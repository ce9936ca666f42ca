"""Brute-force optimum, brute-force separation, and cut counting."""

import gc
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from flexconn import (
    Cut,
    FgcInstance,
    InvalidInstanceError,
    Multigraph,
    TooLargeError,
    all_cut_capacities,
    count_cuts_at_most,
    cut_edges,
    exact_opt,
    gen_random,
    is_feasible,
    is_feasible_direct,
    min_cut,
    separate_bruteforce,
    solve_relaxation,
    violation,
)
from flexconn import exact

from instances import (
    cycle_graph,
    gadget_f1,
    named_corpus,
    triangle_p1q0,
    two_vertex,
    two_vertex_pricey,
)


def test_exact_opt_two_vertex():
    res = exact_opt(two_vertex())
    assert res.best_selection == {1, 2}
    assert res.best_cost == 2.0


def test_exact_opt_prefers_single_safe_edge_when_unsafe_pricey():
    res = exact_opt(two_vertex_pricey())
    assert res.best_selection == {0}
    assert res.best_cost == 5.0


def test_exact_opt_triangle():
    res = exact_opt(triangle_p1q0())
    assert res.best_cost == 2.0
    assert len(res.best_selection) == 2


def test_exact_opt_lexicographic_tie_break():
    g = Multigraph(2, ((0, 1), (0, 1)))
    inst = FgcInstance(g, (False, False), (1.0, 1.0), p=1, q=0)
    res = exact_opt(inst)
    assert res.best_selection == {0}
    # {1, 2} is found first; {0} ties it later, with the smaller ids, so a
    # branch whose bound equals the incumbent must not be pruned
    g = Multigraph(2, ((0, 1),) * 3)
    inst = FgcInstance(g, (True, False, False), (2.0, 1.0, 1.0), p=1, q=1)
    res = exact_opt(inst)
    assert res.best_selection == {0}
    assert res.best_cost == 2.0


def test_exact_opt_refuses_large_inputs():
    g = cycle_graph(24)
    inst = FgcInstance(g, (True,) * 24, (1.0,) * 24, p=1, q=0)
    with pytest.raises(TooLargeError):
        exact_opt(inst)


def test_exact_opt_refuses_many_vertices_before_building_its_table():
    # m = 20 passes the edge limit, so only the vertex limit keeps the
    # search from building its crossing table over 2^20 - 1 cuts
    g = Multigraph(21, tuple((v, v + 1) for v in range(20)))
    inst = FgcInstance(g, (True,) * 20, (1.0,) * 20, p=1, q=0)
    with pytest.raises(TooLargeError, match=r"exact search \(n=21 > 20\)"):
        exact_opt(inst)


def test_exact_opt_reports_the_selection_cost_of_non_dyadic_costs():
    # Branching includes edge 0 (0.1) and edge 1 (0.2) first, then backs
    # out; a cost kept by += and -= along that path ends 2.8e-17 off, so
    # {1} would be reported at 0.20000000000000004.  Edges 1 and 4 tie.
    g = Multigraph(2, ((0, 1),) * 5)
    inst = FgcInstance(g, (False, True, False, False, True), (0.1, 0.2, 0.3, 0.3, 0.2), 1, 1)
    res = exact_opt(inst)
    assert res.best_selection == {1}
    assert res.best_cost == inst.selection_cost(res.best_selection) == 0.2


def test_exact_opt_accepts_a_total_target_beyond_its_counters():
    # p + q = 40001 cannot be met, so only safe edges count; the total
    # count planes must stop at m + 1 rather than at the target
    g = Multigraph(3, ((0, 1), (1, 2), (0, 2), (0, 1)))
    inst = FgcInstance(g, (True, True, False, False), (1.0, 2.0, 0.5, 0.1), 1, 40000)
    res = exact_opt(inst)
    assert res.best_selection == {0, 1}
    assert res.best_cost == 3.0


def _search_without_count_bound(inst):
    """exact_opt's branching without the edge-count bound: prune only on
    committed cost and on cuts that all undecided edges cannot repair.
    Returns (cost, sorted ids, nodes explored)."""
    p, q = inst.p, inst.q
    cuts = [
        [e for e, (u, v) in enumerate(inst.graph.edges) if ((mask >> u) ^ (mask >> v)) & 1]
        for mask in range(2, 1 << inst.n, 2)
    ]
    order = sorted(range(inst.m), key=lambda e: (inst.cost[e], e))

    def covers(sel):
        return all(
            sum(inst.safe[e] for e in c if e in sel) >= p or sum(e in sel for e in c) >= p + q
            for c in cuts
        )

    best = None
    nodes = 0

    def search(pos, chosen):
        nonlocal best, nodes
        nodes += 1
        cost = inst.selection_cost(chosen)
        if best is not None and cost > best[0]:
            return
        if covers(chosen):
            found = (cost, tuple(sorted(chosen)))
            best = found if best is None else min(best, found)
            return
        if pos == inst.m or not covers(chosen | set(order[pos:])):
            return
        search(pos + 1, chosen | {order[pos]})
        search(pos + 1, chosen)

    search(0, set())
    return best + (nodes,)


def test_exact_opt_matches_full_subset_enumeration():
    rng = random.Random(2024)
    checked = nodes = unbounded_nodes = 0
    for seed in range(60):
        n = rng.randint(2, 6)
        p, q = rng.choice([(1, 0), (1, 1), (2, 1), (1, 2), (2, 2), (3, 1)])
        base = gen_random(n, rng.randint(n, 12), 0.5, (1.0, 9.0), p, q, seed)
        if base.m > 12:
            continue
        # small integers make ties exact, so the id tie-break is checked;
        # non-dyadic decimals tie too but drift when summed in another order
        draw = rng.choice(
            (lambda: float(rng.randint(1, 3)), lambda: rng.choice((0.1, 0.2, 0.3, 0.7)), lambda: rng.uniform(0.5, 5.0))
        )
        inst = FgcInstance(base.graph, base.safe, tuple(draw() for _ in range(base.m)), p, q)
        subsets = sorted(
            (inst.selection_cost(ids), ids)
            for size in range(inst.m + 1)
            for ids in itertools.combinations(range(inst.m), size)
        )
        want = next(c for c in subsets if is_feasible_direct(inst, c[1]).feasible)
        res = exact_opt(inst)
        assert (res.best_cost, tuple(sorted(res.best_selection))) == want, seed
        cost, ids, unbounded = _search_without_count_bound(inst)
        assert (cost, ids) == want, seed
        # the bound only ever cuts subtrees the unbounded search explores
        assert res.nodes_explored <= unbounded, seed
        nodes += res.nodes_explored
        unbounded_nodes += unbounded
        checked += 1
    assert checked >= 30
    assert nodes < unbounded_nodes


def _dominated_pairs(inst):
    """(e, f) pairs, e before f in (cost, id) order, of parallel edges with
    e safe or f unsafe: the pairs the search may ban f by."""
    order = sorted(range(inst.m), key=lambda e: (inst.cost[e], e))
    ends = [frozenset(uv) for uv in inst.graph.edges]
    return [
        (e, f)
        for i, e in enumerate(order)
        for f in order[i + 1 :]
        if ends[e] == ends[f] and (inst.safe[e] or not inst.safe[f])
    ]


def test_exact_opt_with_parallel_bundles_matches_full_subset_enumeration():
    # bundles of 2-4 parallel edges with mixed safety, costs in {0, 1, 2, 3}
    # so that zero costs and cost ties both occur: the ban on edges that an
    # excluded parallel edge dominates keeps the optimum and its id tie-break
    rng = random.Random(33)
    checked = dominated = 0
    for seed in range(400):
        n = rng.randint(2, 6)
        p, q = rng.choice([(1, 0), (1, 1), (2, 0), (2, 1), (1, 2), (2, 2), (3, 1)])
        links = [(rng.randrange(v), v) for v in range(1, n)]
        links += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 2))]
        edges = [uv for uv in links for _ in range(rng.randint(2, 4))]
        if len(edges) > 12:
            continue
        rng.shuffle(edges)
        m = len(edges)
        inst = FgcInstance(
            Multigraph(n, tuple(edges)),
            tuple(rng.random() < 0.5 for _ in range(m)),
            tuple(float(rng.randint(0, 3)) for _ in range(m)),
            p,
            q,
        )
        if not is_feasible_direct(inst, range(m)).feasible:
            continue
        subsets = sorted(
            (inst.selection_cost(ids), ids)
            for size in range(m + 1)
            for ids in itertools.combinations(range(m), size)
        )
        want = next(c for c in subsets if is_feasible_direct(inst, c[1]).feasible)
        res = exact_opt(inst)
        assert (res.best_cost, tuple(sorted(res.best_selection))) == want, seed
        assert res.nodes_explored <= _search_without_count_bound(inst)[2], seed
        dominated += len(_dominated_pairs(inst))
        checked += 1
    assert checked >= 100
    assert dominated >= 3 * checked


def test_exact_opt_bans_dominated_parallel_edges_on_a_bundle_path():
    # bundles of 4, 3 and 4 parallel edges on the path 0-1-2-3, closed by
    # one edge (0, 3); nodes before and since the ban
    g = Multigraph(4, ((0, 1),) * 4 + ((1, 2),) * 3 + ((2, 3),) * 4 + ((0, 3),))
    safe = (True, False, True, False, False, True, False, True, True, False, False, True)
    cost = (1.0, 1.0, 2.0, 0.0, 1.0, 1.0, 3.0, 2.0, 2.0, 0.0, 1.0, 3.0)
    res = exact_opt(FgcInstance(g, safe, cost, 2, 2))
    assert (res.best_cost, sorted(res.best_selection)) == (7.0, [0, 3, 5, 7, 9, 11])
    before, nodes = 399, 179
    assert nodes <= before
    assert res.nodes_explored == nodes


def test_exact_opt_ban_keeps_the_id_tie_break_when_cost_sums_round_together():
    # edge 2 is cheaper than its parallel twin, edge 1, but with the 2^54
    # edge both pairs sum to 2^54, so {0, 1} wins on ids; banning edge 1
    # once edge 2 is excluded returned {0, 2}
    g = Multigraph(3, ((0, 1), (1, 2), (1, 2)))
    inst = FgcInstance(g, (True, True, True), (2.0**54, 2.0, 1.0), 1, 0)
    assert inst.selection_cost((0, 1)) == inst.selection_cost((0, 2)) == 2.0**54
    res = exact_opt(inst)
    assert (res.best_cost, sorted(res.best_selection)) == (2.0**54, [0, 1])


# (n, m asked, p, q, seed) -> (m after repair, nodes explored before and
# since dominated parallel edges are banned, best cost, best selection);
# K = 2^(n-1) - 1 is 511 to 32,767 cuts, so every cut bitset spans many
# machine words
SEARCH_TREES = [
    ((10, 16, 2, 1, 0), (19, (171, 145), 84.65108271426212, (0, 1, 2, 3, 6, 7, 8, 9, 10, 11, 12, 15, 16, 17, 18))),
    ((10, 16, 2, 1, 2), (19, (405, 313), 97.06346809541255, (1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 13, 15, 16, 17, 18))),
    ((12, 18, 1, 2, 0), (21, (1019, 1019), 85.45389462698104, (0, 1, 2, 4, 5, 6, 7, 9, 10, 12, 13, 15, 17, 18, 19, 20))),
    ((16, 20, 1, 1, 0), (22, (407, 407), 92.99662608599827, (1, 3, 4, 5, 6, 9, 10, 11, 12, 14, 15, 16, 17, 18, 19, 20, 21))),
    ((16, 20, 1, 1, 1), (20, (523, 523), 97.9848880975545, (0, 2, 3, 4, 5, 6, 8, 9, 10, 11, 13, 14, 15, 17, 18, 19))),
]


@pytest.mark.parametrize("args, want", SEARCH_TREES)
def test_exact_opt_search_tree_is_pinned_on_wide_bitsets(args, want):
    n, m, p, q, seed = args
    final_m, (before, nodes), cost, selection = want
    assert nodes <= before
    inst = gen_random(n, m, 0.5, (1.0, 10.0), p, q, seed)
    res = exact_opt(inst)
    assert (inst.m, res.nodes_explored, res.best_cost, tuple(sorted(res.best_selection))) == (
        final_m, nodes, cost, selection
    )


def test_exact_opt_matches_full_subset_enumeration_at_every_plane_shift():
    # the safe half of each count plane sits d = min(p+q, m+1) - min(p, m+1)
    # planes up; d = 0, 0, 3, 2, 1, 1 for these targets
    rng = random.Random(2025)
    checked = 0
    for seed in range(48):
        p, q = ((1, 0), (2, 0), (1, 3), (2, 2), (3, 1), (4, 1))[seed % 6]
        n = rng.randint(2, 7)
        base = gen_random(n, rng.randint(n, 11), 0.5, (1.0, 9.0), p, q, seed)
        if base.m > 12:
            continue
        inst = FgcInstance(base.graph, base.safe, tuple(float(rng.randint(1, 3)) for _ in range(base.m)), p, q)
        want = min(
            (inst.selection_cost(ids), ids)
            for size in range(inst.m + 1)
            for ids in itertools.combinations(range(inst.m), size)
            if is_feasible_direct(inst, ids).feasible
        )
        res = exact_opt(inst)
        assert (res.best_cost, tuple(sorted(res.best_selection))) == want, seed
        checked += 1
    assert checked >= 36


def test_exact_opt_refuses_an_infeasible_edge_set_with_a_typed_error():
    # cut {2} holds one safe and one unsafe edge: neither p = 2 safe edges
    # nor p + q = 3 edges, so no selection is feasible
    g = Multigraph(3, ((0, 1), (0, 1), (1, 2), (1, 2)))
    inst = FgcInstance(g, (True, True, True, False), (1.0, 1.0, 1.0, 1.0), 2, 1)
    witness = is_feasible_direct(inst, inst.all_edges).witness
    assert sorted(witness.vertices) == [2]
    with pytest.raises(InvalidInstanceError, match=r"cut \[2\] has too few") as err:
        exact_opt(inst)
    assert err.value.code == "infeasible-edges"


def _reverse_delete_quadratic(inst):
    """The incumbent as exact_opt once built it: from every edge, drop each
    edge in descending (cost, id) order if the rest stays feasible, testing
    each rest anew on saturating safe and total count planes."""
    m = inst.m
    k_cuts = (1 << (inst.n - 1)) - 1
    every_cut = (1 << k_cuts) - 1
    cross_t = []
    for u, v in inst.graph.edges:
        row = 0
        for i, mask in enumerate(range(2, 1 << inst.n, 2)):
            row |= (((mask >> u) ^ (mask >> v)) & 1) << i
        cross_t.append(row)
    cross_s = [row if safe else 0 for row, safe in zip(cross_t, inst.safe)]
    need_s, need_t = min(inst.p, m + 1), min(inst.p + inst.q, m + 1)

    def add(planes, row):
        return (every_cut,) + tuple(planes[j] | (planes[j - 1] & row) for j in range(1, len(planes)))

    def satisfied(edges):
        cs, ct = (every_cut,) + (0,) * need_s, (every_cut,) + (0,) * need_t
        for e in edges:
            cs, ct = add(cs, cross_s[e]), add(ct, cross_t[e])
        return cs[need_s] | ct[need_t] == every_cut

    order = sorted(range(m), key=lambda e: (inst.cost[e], e))
    chosen = list(order)
    for e in reversed(order):
        rest = [f for f in chosen if f != e]
        if satisfied(rest):
            chosen = rest
    return frozenset(chosen)


def test_exact_opt_incumbent_is_the_quadratic_reverse_delete(monkeypatch):
    checked = []

    def record(inst, f):
        checked.append(frozenset(f))
        return is_feasible_direct(inst, f)

    monkeypatch.setattr(exact, "is_feasible_direct", record)
    rng = random.Random(77)
    for seed in range(40):
        n = rng.randint(2, 8)
        p, q = rng.choice([(1, 0), (1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)])
        inst = gen_random(n, rng.randint(n, 14), 0.5, rng.choice(((1.0, 3.0), (1e-9, 1e-6))), p, q, seed)
        checked.clear()
        exact_opt(inst)
        assert checked[0] == _reverse_delete_quadratic(inst), seed


def test_exact_opt_leaves_no_reference_cycle():
    # the recursive search closure once held its own cell, so its plane
    # tables outlived the call until the cyclic collector ran
    inst = gen_random(5, 9, 0.5, (1, 10), 1, 1, 2)
    gc.collect()
    gc.disable()
    try:
        res = exact_opt(inst)
        assert gc.collect() == 0
    finally:
        gc.enable()
    # no parallel edges, so the ban leaves this tree as it was
    assert res.nodes_explored == 51


# exact_opt over 60 instances drawn the way perfbench's verify workload
# draws them, 10 per (cost scale, p, q); the costs were pinned before the
# search moved to one complemented plane tuple, the nodes as (before, since)
# dominated parallel edges are banned
VERIFY_LIKE_NODES = (37788, 25782)
VERIFY_LIKE_COSTS = [
    41.35598255541977, 30.976103694828304, 43.175967867797716,
    21.700548637851703, 24.5773965133888, 20.240647477610537,
    23.71830369826675, 29.417936480732994, 42.2474564895372,
    65.8219464010061, 72.40078343556382, 21.40319146889061,
    43.09144997703724, 22.45528934997845, 32.32554856583763,
    31.11700074155247, 34.835600445783946, 35.35446733222179,
    34.365468794289804, 21.618713460954886, 54.19543546627146,
    68.9000476461045, 62.353226751594654, 40.11862821848581,
    21.093596175117757, 48.48456179683903, 38.0080898500563,
    61.71647977347401, 63.62188690843743, 44.579499058107444,
    5.037625713784993e-06, 4.446959007639818e-06, 2.6671595794311246e-06,
    2.3236713744576193e-06, 1.6015001176249114e-06, 1.9161701660804562e-06,
    9.864500276826674e-07, 9.67774280366478e-07, 1.0598872967865907e-06,
    1.4917215932632e-06, 1.717199946873682e-06, 3.087954547037507e-06,
    4.620919677935258e-06, 1.5849246532033625e-06, 3.0352544083922645e-06,
    2.951064980536212e-06, 7.073274995247206e-06, 4.750017177977764e-06,
    3.681163827522503e-06, 2.481149381031104e-06, 6.041365907930326e-06,
    8.606819121562024e-06, 4.0904341865945654e-06, 8.205754409322752e-06,
    3.76562752221773e-06, 3.3351620059825264e-06, 3.2444057894708897e-06,
    6.640695018038676e-06, 3.6499694018435797e-06, 7.984309876074997e-06,
]


def _verify_like_instances():
    rng = random.Random("exact-pin")
    out = []
    for scale in ((1.0, 10.0), (1e-9, 1e-6)):
        for p, q in ((1, 1), (1, 2), (2, 1)):
            drawn = 0
            while drawn < 10:
                n = rng.randint(6, 10)
                inst = gen_random(n, rng.randint(n + 4, 16), 0.5, scale, p, q, rng.randrange(2**31))
                if inst.m <= 16:
                    out.append(inst)
                    drawn += 1
    return out


def test_exact_opt_is_pinned_on_verify_like_instances():
    results = [exact_opt(inst) for inst in _verify_like_instances()]
    assert [res.best_cost for res in results] == VERIFY_LIKE_COSTS
    before, nodes = VERIFY_LIKE_NODES
    assert nodes <= before
    assert sum(res.nodes_explored for res in results) == nodes


# gen_random(n, m, 0.5, (1, 10), p, q, seed) as (n, m, p, q, seed) ->
# (m after repair, (nodes explored before, nodes since)), one search tree
# per instance; "before" was recorded while the repair test still ran at
# every node, "since" once dominated parallel edges are banned
NODES_PINS = [
    ((5, 9, 1, 0, 0), (9, (79, 45))),
    ((5, 9, 1, 0, 1), (9, (107, 57))),
    ((6, 10, 1, 1, 0), (10, (63, 55))),
    ((6, 10, 1, 1, 1), (10, (41, 41))),
    ((7, 12, 1, 2, 0), (12, (199, 199))),
    ((7, 12, 1, 2, 1), (13, (95, 91))),
    ((7, 12, 2, 1, 0), (13, (69, 69))),
    ((7, 12, 2, 1, 1), (14, (37, 33))),
    ((8, 13, 2, 2, 0), (19, (409, 175))),
    ((8, 13, 2, 2, 1), (16, (197, 197))),
    ((6, 11, 3, 1, 0), (13, (51, 39))),
    ((6, 11, 3, 1, 1), (16, (29, 29))),
    ((8, 14, 2, 3, 0), (21, (177, 123))),
]


@pytest.mark.parametrize("args, want", NODES_PINS)
def test_exact_opt_nodes_are_pinned(args, want):
    n, m, p, q, seed = args
    final_m, (before, nodes) = want
    assert nodes <= before
    inst = gen_random(n, m, 0.5, (1.0, 10.0), p, q, seed)
    assert (inst.m, exact_opt(inst).nodes_explored) == (final_m, nodes)


def test_exact_opt_optimum_is_feasible_and_sandwiched():
    for name, inst in named_corpus():
        if inst.m > 18:
            continue
        res = exact_opt(inst)
        assert is_feasible_direct(inst, res.best_selection).feasible, name
        assert is_feasible(inst, res.best_selection).feasible, name
        relax = solve_relaxation(inst)
        assert relax.value <= res.best_cost + 1e-6, name
        # no strictly cheaper feasible set of the same size or smaller exists:
        # spot-check by dropping any one edge
        for e in sorted(res.best_selection):
            smaller = res.best_selection - {e}
            if is_feasible_direct(inst, smaller).feasible:
                assert inst.selection_cost(smaller) >= res.best_cost, name


def test_exact_opt_explores_nodes():
    res = exact_opt(two_vertex())
    assert res.nodes_explored >= 3


def test_separate_bruteforce_empty_on_feasible_point():
    for name, inst in named_corpus():
        if inst.n > 10:
            continue
        rows = separate_bruteforce(inst, (1.0,) * inst.m, 0.0)
        assert rows == [], name


def test_separate_bruteforce_zero_point_reports_every_cut():
    inst = triangle_p1q0()
    x = (0.0, 0.0, 0.0)
    rows = separate_bruteforce(inst, x, 0.0)
    # with p = 1, q = 0 the only candidate J is empty, one row per cut,
    # each violated by exactly p (p + q) = 1
    assert len(rows) == 3
    assert all(not r.j_edges for r in rows)
    assert all(violation(r, x) == pytest.approx(1.0) for r in rows)


def test_separate_bruteforce_gadget_top_row():
    # at x = 1 every plain cut row is satisfied, so the top violation comes
    # from a proper knapsack row: J = the three unsafe edges, violated by 3
    inst = gadget_f1()
    x = (1.0, 1.0, 1.0, 1.0)
    rows = separate_bruteforce(inst, x, 0.0)
    assert violation(rows[0], x) == pytest.approx(3.0)
    assert rows[0].a == 0 and rows[0].b == 3
    violations = [violation(r, x) for r in rows]
    assert violations == sorted(violations, reverse=True)


def test_separate_bruteforce_respects_eps():
    inst = gadget_f1()
    x = (0.5, 0.5, 0.5, 0.5)
    assert separate_bruteforce(inst, x, 2.9) == [
        r for r in separate_bruteforce(inst, x, 0.0) if violation(r, x) > 2.9
    ]


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1.0, True, np.float32(0.5), "0"])
def test_separate_bruteforce_rejects_bad_eps(eps):
    # NaN once returned [] at a point every row violates, so the reference
    # reported no violation; True was read as 1, and np.float32 and
    # strings went unchecked
    inst = two_vertex()
    with pytest.raises(ValueError, match="eps"):
        separate_bruteforce(inst, (0.0,) * inst.m, eps)


@pytest.mark.parametrize("bad", [float("nan"), 5.0, -1.0])
def test_separate_bruteforce_rejects_x_outside_the_box(bad):
    # NaN and 5.0 once returned [] (no row is violated there), where
    # separate refuses the point
    inst = two_vertex()
    with pytest.raises(ValueError, match=r"x\[0\]"):
        separate_bruteforce(inst, (bad,) * inst.m, 1e-7)
    with pytest.raises(ValueError, match=r"x\[2\]"):
        separate_bruteforce(inst, (0.5, 1.0, bad), 1e-7)


def test_separate_bruteforce_refuses_large_graphs():
    g = cycle_graph(14)
    inst = FgcInstance(g, (True,) * 14, (1.0,) * 14, p=1, q=0)
    with pytest.raises(TooLargeError):
        separate_bruteforce(inst, (0.5,) * 14, 0.0)


def test_all_cut_capacities_matches_cut_edges():
    rng = random.Random(21)
    for _ in range(20):
        n = rng.randint(2, 8)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        for _ in range(rng.randint(0, 6)):
            u, v = rng.sample(range(n), 2)
            edges.append((min(u, v), max(u, v)))
        g = Multigraph(n, tuple(edges))
        caps = [rng.randint(0, 5) for _ in range(g.m)]
        pairs = all_cut_capacities(g, caps)
        assert len(pairs) == 2 ** (n - 1) - 1
        for mask, cap in pairs:
            assert cap == sum(caps[e] for e in cut_edges(g, Cut(g.n, mask)))
        assert min(cap for _, cap in pairs) == min_cut(g, caps)[1]


def test_count_cuts_cycle_min_cuts():
    for n in range(4, 11):
        g = cycle_graph(n)
        assert count_cuts_at_most(g, [1] * n, 1.0) == n * (n - 1) // 2


def test_count_cuts_four_cycle_doubled_threshold():
    g = cycle_graph(4)
    # capacities 2 and 4 only; alpha = 2 admits every one of the 7 cuts
    assert count_cuts_at_most(g, [1] * 4, 2.0) == 7
    assert count_cuts_at_most(g, [1] * 4, 1.5) == 6


def test_count_cuts_compares_with_factor_times_the_minimum_exactly():
    # the 15 two-edge cuts of a unit 6-cycle have capacity 2 and the 15
    # four-edge ones 4; a slack of 1e-9 once counted all 30 just below 2
    g = cycle_graph(6)
    assert count_cuts_at_most(g, [1] * 6, 1.9999999999) == 15
    assert count_cuts_at_most(g, [1] * 6, 2) == 30
    assert count_cuts_at_most(g, [Fraction(1, 3)] * 6, Fraction(2)) == 30
    assert count_cuts_at_most(g, [0.1] * 6, 2.0) == 30
    assert count_cuts_at_most(g, [1] * 6, np.int64(2)) == 30


# np.float32 raised an untyped TypeError and True was read as 1
@pytest.mark.parametrize("factor", [0.0, -1.0, float("nan"), float("inf"), np.float32(1.5), True])
def test_count_cuts_rejects_bad_factors(factor):
    with pytest.raises(ValueError, match="factor"):
        count_cuts_at_most(cycle_graph(4), [1] * 4, factor)


def test_all_cut_capacities_refuses_large_graphs_before_any_scan(monkeypatch):
    # it had no size gate: at n = 40 it started a loop over 2^39 masks
    def no_scan(n):
        raise AssertionError("scanned every cut before the size gate")

    monkeypatch.setattr(exact, "canonical_masks", no_scan)
    with pytest.raises(TooLargeError, match=r"all cut capacities \(n=21 > 20\)"):
        all_cut_capacities(cycle_graph(21), [1] * 21)


def test_count_cuts_at_least_one():
    rng = random.Random(33)
    for _ in range(25):
        n = rng.randint(2, 9)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        for _ in range(rng.randint(0, 8)):
            u, v = rng.sample(range(n), 2)
            edges.append((min(u, v), max(u, v)))
        g = Multigraph(n, tuple(edges))
        caps = [rng.randint(1, 4) for _ in range(g.m)]
        assert count_cuts_at_most(g, caps, 1.0) >= 1
