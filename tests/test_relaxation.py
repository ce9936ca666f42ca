"""Constraint rows, separation oracle, LP subsolvers, cutting-plane driver."""

import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from flexconn import (
    Cut,
    IterationLimitError,
    candidate_j_sets,
    capacities,
    constraint_row,
    exact_opt,
    lp_solve,
    min_cut,
    separate,
    solve_relaxation,
    violation,
)
from flexconn import graph, relaxation
from flexconn.exact import separate_bruteforce
from flexconn import model
from flexconn.model import FgcInstance
from flexconn.errors import InvalidInstanceError, LpSolveError, TooLargeError
from flexconn.graph import CUT_BLOCK, Multigraph, cut_edges, enumerate_cuts_below
from flexconn.instance_io import gen_random
from flexconn.relaxation import DEFAULT_EPS

from exact_lp import lp_solve_exact
from instances import (
    basic_lp_value,
    cycle_graph,
    gadget_f1,
    named_corpus,
    random_instance,
    strengthening_gadget,
    triangle_p1q0,
    two_vertex,
)


def test_capacities_formula():
    inst = two_vertex()  # p=1 q=1; safe edge 0
    assert capacities(inst, (0.5, 0.5, 0.25)) == [1.0, 0.5, 0.25]
    g6 = gadget_f1()  # p=2 q=4
    assert capacities(g6, (1, 1, 1, 1)) == [6, 2, 2, 2]
    assert relaxation.capacities is model.capacities


def test_constraint_row_f1_and_f2():
    inst = gadget_f1()
    cut = Cut.from_vertices(2, {1})
    ones = (1, 1, 1, 1)
    f1 = constraint_row(inst, cut, {0})
    assert (f1.alpha1, f1.alpha2, f1.rhs) == (1, 4, 5)
    assert f1.lhs(ones) == 3
    f2 = constraint_row(inst, cut, {1, 2, 3})
    assert (f2.alpha1, f2.alpha2, f2.rhs) == (2, 1, 6)
    assert f2.lhs(ones) == 3


def test_constraint_row_j_empty_reduces_to_covering_form():
    inst = two_vertex()
    row = constraint_row(inst, Cut.from_vertices(2, {1}), frozenset())
    # p x(delta) + q x(delta & S) >= p(p+q): coefficient 2 on safe, 1 on unsafe
    assert row.k == (0, 1, 2) and row.coef == (2, 1, 1)
    assert row.rhs == 2


def test_constraint_row_trivial_when_j_has_p_safe_edges():
    inst = two_vertex()
    row = constraint_row(inst, Cut.from_vertices(2, {1}), {0})  # 1 safe >= p=1
    assert row.trivial
    assert violation(row, (1.0, 1.0, 1.0)) <= 0


def test_constraint_row_rejects_outside_edges():
    tri = triangle_p1q0()
    cut = Cut.from_vertices(3, {0})  # delta = {0, 2}
    with pytest.raises(ValueError):
        constraint_row(tri, cut, {1})


def test_constraint_row_refuses_float_edge_ids():
    # int(0.5) once made {0.5} the J of edge 0
    inst = gadget_f1()
    cut = Cut.from_vertices(2, {1})
    with pytest.raises(ValueError, match="integer"):
        constraint_row(inst, cut, {0.5})
    assert constraint_row(inst, cut, {np.int64(0)}) == constraint_row(inst, cut, {0})


def test_constraint_row_refuses_bool_edge_ids():
    # operator.index(True) is 1, so {True} once read as the J of edge 1
    with pytest.raises(ValueError, match="bool"):
        constraint_row(gadget_f1(), Cut.from_vertices(2, {1}), {True})


def test_candidate_j_sets_ordering_and_ranges():
    # p=2 q=1; 3 safe at x .9 .5 .2 and 2 unsafe at .7 .3
    g = Multigraph(2, ((0, 1),) * 5)
    inst = FgcInstance(g, (True, True, True, False, False), (1.0,) * 5, 2, 1)
    x = (0.9, 0.5, 0.2, 0.7, 0.3)
    cands = candidate_j_sets(inst, Cut.from_vertices(2, {1}), x)
    assert len(cands) == 6  # a in {0,1}, b in {0,1,2}
    by_ab = {(a, b): j for a, b, j in cands}
    assert by_ab[(1, 2)] == {0, 3, 4}
    assert by_ab[(0, 0)] == frozenset()


def test_candidate_j_sets_p1_never_picks_safe():
    inst = two_vertex()
    for a, _, _ in candidate_j_sets(inst, Cut.from_vertices(2, {1}), (0.9, 0.8, 0.1)):
        assert a == 0


def test_candidate_j_sets_breaks_x_ties_by_edge_id():
    g = Multigraph(2, ((0, 1),) * 4)
    inst = FgcInstance(g, (False, False, False, False), (1.0,) * 4, 1, 2)
    cands = candidate_j_sets(inst, Cut.from_vertices(2, {1}), (0.5, 0.5, 0.5, 0.5))
    by_ab = {(a, b): j for a, b, j in cands}
    assert by_ab[(0, 2)] == {0, 1}


def _largest_violations_by_definition(inst, mask, x, j_sets):
    # rhs minus lhs of the row (p-a)+ . x(K) + (q-b)+ . x(K&S) >= (p-a)+ .
    # (p+q-|J|)+ from the module docstring, with a = |J&S|, b = |J&U| and
    # K = delta(R) minus J, in Fraction: (largest over j_sets, over every J)
    p, q = inst.p, inst.q
    delta = [e for e, (u, v) in enumerate(inst.graph.edges) if (mask >> u ^ mask >> v) & 1]

    def slack(j):
        a = sum(1 for e in j if inst.safe[e])
        alpha1, alpha2 = max(p - a, 0), max(q - (len(j) - a), 0)
        k = [e for e in delta if e not in j]
        lhs = alpha1 * sum(x[e] for e in k) + alpha2 * sum(x[e] for e in k if inst.safe[e])
        return alpha1 * max(p + q - len(j), 0) - lhs

    every = (
        [e for i, e in enumerate(delta) if bits >> i & 1] for bits in range(1 << len(delta))
    )
    return max(map(slack, j_sets)), max(map(slack, every))


def test_the_j_family_holds_the_most_violated_j_of_every_cut():
    # the separation claim: whenever some J inside delta(R) gives a violated
    # row, the J_{a,b} family holds one violated as much; rows with rhs = 0
    # are never violated, so a largest violation of 0 asks nothing
    rng = random.Random(12)
    points = violated = 0
    while points < 200:
        n = rng.randint(3, 6)
        p, q = rng.randint(1, 3), rng.randint(0, 3)
        inst = gen_random(n, rng.randint(n, 11), 0.5, (1, 10), p, q, rng.randrange(10**6))
        if inst.m > 11:  # repair added edges
            continue
        lp_x = [Fraction(v) for v in solve_relaxation(inst).x]
        grid_x = [Fraction(rng.randint(0, 8), 8) for _ in range(inst.m)]
        for x in (lp_x, grid_x):
            points += 1
            for mask in graph.canonical_masks(n):
                family = [j for _, _, j in candidate_j_sets(inst, Cut(n, mask), x)]
                best_family, best = _largest_violations_by_definition(inst, mask, x, family)
                if best > 0:
                    violated += 1
                    assert best_family == best, (inst, mask, x)
    assert violated > 100


def test_no_row_is_violated_on_a_cut_of_capacity_p_p_plus_2q_or_more():
    # separation's scan threshold (relaxation's module docstring), from the
    # row definition: every J inside delta(R), x on a 1/8 grid, in Fractions.
    # Cuts between p(p+q) and p(p+2q) do carry violated rows, so the bound
    # is not the basic LP's p(p+q), and it is tight: with q unsafe edges and
    # p safe ones at x = 1 but one safe edge at 1 - 1/64, J = the unsafe
    # edges is violated on a cut of p(p+2q) - (p+q)/64, which separate finds.
    for p, q in [(1, 1), (2, 1), (2, 3), (4, 2)]:
        g = Multigraph(2, ((0, 1),) * (p + q))
        inst = FgcInstance(g, (False,) * q + (True,) * p, (1.0,) * g.m, p, q)
        x = [Fraction(1)] * (g.m - 1) + [Fraction(63, 64)]
        assert sum(capacities(inst, x)) == p * (p + 2 * q) - Fraction(p + q, 64)
        row = separate(inst, x)
        assert row.j_edges == frozenset(range(q)) and violation(row, x) == Fraction(p, 64)
    rng = random.Random(15)
    rows = above_basic = 0
    for _ in range(150):
        n = rng.randint(3, 5)
        p, q = rng.randint(1, 4), rng.randint(0, 4)
        inst = gen_random(n, rng.randint(n, 2 * n), 0.5, (1, 10), p, q, rng.randrange(10**6))
        x = [Fraction(rng.randint(0, 8), 8) for _ in range(inst.m)]
        ux = capacities(inst, x)
        for mask in graph.canonical_masks(n):
            delta = cut_edges(inst.graph, Cut(n, mask))
            cap = sum(ux[e] for e in delta)
            if len(delta) > 10 or cap < p * (p + q):
                continue
            worst = _largest_violations_by_definition(inst, mask, x, [()])[1]
            if cap >= p * (p + 2 * q):
                rows += 1 << len(delta)
                assert worst <= 0, (inst, mask, x)
            elif worst > 0:
                above_basic += 1
    assert rows > 10_000 and above_basic > 10


def test_violation_f1_gadget():
    inst = gadget_f1()
    row = constraint_row(inst, Cut.from_vertices(2, {1}), {0})
    assert violation(row, (1, 1, 1, 1)) == 2


def test_violation_zero_when_capacity_exactly_meets_requirement():
    inst = two_vertex()  # u_x(delta) = 2 x0 + x1 + x2
    row = constraint_row(inst, Cut.from_vertices(2, {1}), frozenset())
    assert violation(row, (0.5, 0.5, 0.5)) == 0  # u_x = 2 = p(p+q)


def test_separate_zero_vector_returns_min_cut_covering_row():
    inst = two_vertex()
    row = separate(inst, (0.0, 0.0, 0.0))
    assert row is not None
    assert row.j_edges == frozenset()
    assert violation(row, (0.0, 0.0, 0.0)) == 2  # p(p+q) - 0


def test_separate_ones_certifies_valid_instances():
    for name, inst in named_corpus():
        assert separate(inst, (1.0,) * inst.m) is None, name


def test_separate_gadget_returns_most_violated_row():
    inst = gadget_f1()
    x = (1.0,) * 4
    row = separate(inst, x)
    assert (row.a, row.b) == (0, 3)
    assert violation(row, x) == 3


def test_separate_returns_a_row_with_a_safe_edge_in_j():
    # p=2 q=2, one cut of a safe edge at 1 and three unsafe edges at 1/2:
    # J = {safe} has violation 3 - 3/2 = 3/2; every other candidate at most 1
    g = Multigraph(2, ((0, 1),) * 4)
    inst = FgcInstance(g, (True, False, False, False), (1.0,) * 4, 2, 2)
    x = (Fraction(1),) + (Fraction(1, 2),) * 3
    row = separate(inst, x, 0)
    assert (row.a, row.b, row.j_edges) == (1, 0, frozenset({0}))
    assert violation(row, x) == Fraction(3, 2)


def test_separate_rejects_out_of_box_x():
    inst = two_vertex()
    with pytest.raises(ValueError):
        separate(inst, (1.5, 0.0, 0.0))


def test_separate_rejects_nan_x():
    # NaN fails every comparison, so a one-sided box test would pass it and
    # the clamp would read it as 0
    with pytest.raises(ValueError):
        separate(two_vertex(), (0.0, float("nan"), 0.0))


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1.0, True, np.float32(0.5), "0"])
def test_separate_rejects_bad_eps(eps):
    # NaN and inf made every row look satisfied; a negative eps re-added pool
    # rows; True was read as 1, and np.float32 and strings went unchecked
    with pytest.raises(ValueError, match="eps"):
        separate(two_vertex(), (0.0, 0.0, 0.0), eps)


@pytest.mark.parametrize("eps", [10**400, Fraction(10**400, 3)], ids=["int", "Fraction"])
def test_separate_takes_an_eps_beyond_float_range(eps):
    # it raised OverflowError where separate_bruteforce returned []
    x = (0.0, 0.0, 0.0)
    assert separate_bruteforce(two_vertex(), x, eps) == []
    assert separate(two_vertex(), x, eps) is None


def test_solve_relaxation_and_separate_refuse_large_graphs_before_any_lp(monkeypatch):
    # the cut scan's size check once ran only at its first scan, after one LP solve
    built = []
    monkeypatch.setattr(relaxation, "_HighsLp", lambda *args: built.append(args))
    inst = FgcInstance(cycle_graph(21), (True,) * 21, (1.0,) * 21, 1, 0)
    with pytest.raises(TooLargeError, match="n=21 > 20"):
        solve_relaxation(inst)
    with pytest.raises(TooLargeError, match="n=21 > 20"):
        separate(inst, (0.0,) * inst.m)
    assert built == []


@pytest.mark.parametrize("n, p, q", [(10, 2, 1), (16, 3, 2), (20, 2, 2)])
def test_solve_relaxation_through_the_flow_search_matches_the_table(monkeypatch, n, p, q):
    # graph's limit at 1 sends separation's every scan of float capacities to
    # the flow search; relaxation's own binding of the limit still admits n
    inst = gen_random(n, 3 * n, 0.4, (1, 10), p, q, 1)
    table = solve_relaxation(inst)
    searched = []
    shortlist = graph._flow_shortlist
    monkeypatch.setattr(graph, "_flow_shortlist", lambda *a: searched.append(1) or shortlist(*a))
    monkeypatch.setattr(graph, "DEFAULT_EXHAUSTIVE_LIMIT", 1)
    flow = solve_relaxation(inst)
    assert len(searched) == flow.iterations
    assert (flow.value, flow.iterations, flow.x) == (table.value, table.iterations, table.x)
    assert [row.key() for row in flow.active_rows] == [row.key() for row in table.active_rows]


def test_separate_agrees_with_bruteforce_on_violation_size():
    rng = random.Random(37)
    for trial in range(40):
        inst = random_instance(
            trial + 400, n=rng.randint(3, 6), m=rng.randint(6, 12),
            p=rng.randint(1, 3), q=rng.randint(0, 4),
        )
        x = tuple(rng.random() for _ in range(inst.m))
        row = separate(inst, x, 1e-7)
        hits = separate_bruteforce(inst, x, 1e-7)
        assert (row is None) == (not hits)
        if row is not None:
            assert abs(violation(row, x) - violation(hits[0], x)) <= 1e-9


def _separate_by_building_every_row(inst, x, eps, cuts=None):
    """separate's exhaustive loop before closed-form scoring: build the row
    of every candidate and keep the first strict maximum."""
    if cuts is None:
        need = inst.p * (inst.p + inst.q)
        cuts = enumerate_cuts_below(inst.graph, capacities(inst, x), 2 * need)
    best = None
    best_violation = eps
    for r in cuts:
        for _, _, j in candidate_j_sets(inst, r, x):
            row = constraint_row(inst, r, j)
            if row.trivial:
                continue
            v = violation(row, x)
            if v > best_violation:
                best = row
                best_violation = v
    return best


@pytest.fixture
def built_rows(monkeypatch):
    """Every row separate builds, in order."""
    built = []
    build = relaxation._row

    def recording_row(*args):
        row = build(*args)
        built.append(row)
        return row

    monkeypatch.setattr(relaxation, "_row", recording_row)
    return built


def _assert_same_row_as_building_every_row(inst, x, eps, built, tol=1e-9):
    # Same row key (so the same tie-break) as the build-every-row loop; and
    # every row separate builds is a new, nontrivial one above eps that could
    # still be its cut's most violated, so the closed-form score neither
    # drops a winner nor lets losers through.
    want = _separate_by_building_every_row(inst, x, eps)
    built.clear()
    row = separate(inst, x, eps)
    assert (row is None) == (want is None)
    if row is not None:
        assert row.key() == want.key()
    assert len({b.key() for b in built}) == len(built)
    top = {}
    for b in built:
        top[b.cut] = max(top.get(b.cut, eps), violation(b, x))
    for b in built:
        assert not b.trivial
        assert violation(b, x) > top[b.cut] - tol


def test_separate_keeps_the_row_of_building_every_candidate(built_rows):
    # tied, random and exact points
    rng = random.Random(41)
    for trial in range(120):
        p = rng.randint(1, 4)
        q = rng.randint(0, 3)
        n = rng.randint(3, 8)
        inst = random_instance(
            trial + 700, n=n, m=rng.randint(n, 2 * n + 4), safe_fraction=rng.random(), p=p, q=q
        )
        kind = trial % 4
        if kind == 0:
            x = tuple(rng.choice((0.0, 0.25, 0.5, 1.0)) for _ in range(inst.m))
            eps = 1e-7
        elif kind == 1:
            x = tuple(rng.random() for _ in range(inst.m))
            eps = 1e-7
        else:
            # at x = 1 nothing is violated and some candidates are trivial rows
            # with lhs 0, which only the rhs test keeps from being built
            quarters = (0, 1, 2, 4) if kind == 2 else (4,)
            x = tuple(Fraction(rng.choice(quarters), 4) for _ in range(inst.m))
            eps = 0
        _assert_same_row_as_building_every_row(inst, x, eps, built_rows)


def test_separate_orders_fractions_that_share_a_float(built_rows):
    # unsafe edges 0 and 2 sit at 1 - 10^-20 and 1, which round to the same
    # float: only the exact values put edge 2 first, and J = {2} is the
    # most violated row (a float argsort would take edge 0 by id)
    g = Multigraph(2, ((0, 1),) * 6)
    inst = FgcInstance(g, (False, True, False, True, False, True), (1.0,) * 6, 3, 1)
    third = Fraction(1, 3)
    x = (1 - Fraction(1, 10**20), Fraction(0), Fraction(1), Fraction(0), third, third)
    _assert_same_row_as_building_every_row(inst, x, 0, built_rows)
    assert separate(inst, x, 0).j_edges == {2}


def test_separate_keeps_the_row_on_hundreds_of_parallel_edges(built_rows):
    # p+q-1 unsafe edges at x = 1 and hundreds of edges at x in {0, .001,
    # .002, .003}: the rows J_{a,b} with b >= q tie exactly, and their float
    # scores and violations round apart by amounts that grow with the cut,
    # so the slack decides which rows are built (with no slack some trials
    # return another row).  Fraction points must match exactly.
    rng = random.Random(43)
    for trial in range(24):
        n = 2 + trial % 3
        m = rng.randint(200, 1000)
        p, q = rng.randint(2, 3), rng.randint(0, 2)
        edges = [(v, v + 1) for v in range(n - 1)]
        while len(edges) < m:
            edges.append(tuple(sorted(rng.sample(range(n), 2))))
        safe = tuple(rng.random() < 0.3 for _ in range(m))
        inst = FgcInstance(Multigraph(n, tuple(edges)), safe, (1.0,) * m, p, q)
        heavy = rng.sample([e for e in range(m) if not safe[e]], p + q - 1)
        units = [1000 if e in heavy else rng.choice((0, 1, 2, 3)) for e in range(m)]
        if trial % 2:
            x = tuple(Fraction(t, 1000) for t in units)
            eps = 0
        else:
            x = tuple(t / 1000 for t in units)
            eps = 1e-7
        _assert_same_row_as_building_every_row(inst, x, eps, built_rows, tol=1e-6)


def test_separate_scores_cuts_in_every_block(monkeypatch):
    # x is ten times smaller on the edges at one vertex, so the winning cut
    # is first (vertex 1), in the middle (6) or last (0) of the 511 cuts of
    # n = 10, all of which fall below 2p(p+q).  Block sizes put it first
    # and last in its block, on either side of a block boundary, and in
    # the first and in the last block.
    inst = random_instance(811, n=10, m=24, p=1, q=1)
    need = inst.p * (inst.p + inst.q)
    for vertex, want_place in [(1, 0), (6, 31), (0, 510)]:
        rng = random.Random(47)
        x = tuple(
            rng.random() / (1000 if vertex in inst.graph.edges[e] else 100)
            for e in range(inst.m)
        )
        cuts = enumerate_cuts_below(inst.graph, capacities(inst, x), 2 * need)
        assert len(cuts) == 2**9 - 1
        want = _separate_by_building_every_row(inst, x, DEFAULT_EPS, cuts)
        place = want.cut.side_mask // 2 - 1  # its index in ascending mask order
        assert place == want_place
        for block in sorted({2, place, place + 1, CUT_BLOCK} - {0, 1}):
            monkeypatch.setattr(graph, "CUT_BLOCK", block)
            assert separate(inst, x).key() == want.key(), (vertex, block)
            assert len(_per_cut_rows(inst, x)) == len(cuts), (vertex, block)
        monkeypatch.undo()


def test_x_is_checked_once_at_the_public_entry(monkeypatch):
    inst = random_instance(812, n=5, m=9, p=2, q=1)
    for bad in (1.1, -0.1, float("nan")):
        with pytest.raises(ValueError, match="outside"):
            separate(inst, (bad,) + (0.5,) * (inst.m - 1))
    # solver noise within BOX_SLACK is clipped before violations are measured
    x = (1 + 1e-7, -1e-7) + (0.25,) * (inst.m - 2)
    assert separate(inst, x).key() == separate(inst, (1.0, 0.0) + x[2:]).key()
    checks = []
    check = relaxation._check_box
    monkeypatch.setattr(relaxation, "_check_box", lambda x: checks.append(1) or check(x))
    separate(inst, x)
    assert len(checks) == 1
    checks.clear()
    solve_relaxation(inst)  # its x comes clipped from the LP
    assert checks == []


def test_separate_none_when_capacitated_min_cut_is_large():
    # x = 1 on a 4-edge-connected all-safe graph: u_x min cut 4(p+q) >= 2p(p+q)
    g = Multigraph(2, ((0, 1),) * 4)
    inst = FgcInstance(g, (True,) * 4, (1.0,) * 4, 1, 1)
    x = (1.0,) * 4
    _, lam = min_cut(inst.graph, capacities(inst, x))
    assert lam >= 2 * inst.p * (inst.p + inst.q)
    assert separate(inst, x) is None


def _separation_points():
    """(name, inst, x): every LP iterate of the corpus solves, plus seeded
    random and Fraction points."""
    rng = random.Random(43)
    for name, inst in named_corpus():
        iterates = []
        solve_relaxation(inst, on_iterate=lambda i, x, v: iterates.append(x))
        for x in iterates:
            yield name, inst, x
        for _ in range(3):
            yield name, inst, tuple(rng.random() for _ in range(inst.m))
        yield name, inst, tuple(Fraction(rng.randint(0, 4), 4) for _ in range(inst.m))


def _per_cut_rows(inst, x, eps=DEFAULT_EPS):
    return relaxation._Separator(inst).rows(x, eps)


@pytest.mark.parametrize("block", [CUT_BLOCK, 2])
def test_per_cut_separation_agrees_with_separate(monkeypatch, block):
    monkeypatch.setattr(graph, "CUT_BLOCK", block)  # 2: cuts span many blocks
    for name, inst, x in _separation_points():
        rows = _per_cut_rows(inst, x)
        best = separate(inst, x, DEFAULT_EPS)
        assert all(violation(row, x) > DEFAULT_EPS for row in rows), name
        assert len({row.cut for row in rows}) == len(rows), name
        assert (best is None) == (not rows), name
        if rows:
            assert max(violation(row, x) for row in rows) == violation(best, x), name


def test_per_cut_separation_keeps_each_cuts_row_of_building_every_candidate():
    # per cut, the first row of largest violation among all its candidates
    for name, inst, x in _separation_points():
        need = inst.p * (inst.p + inst.q)
        cuts = enumerate_cuts_below(inst.graph, capacities(inst, x), 2 * need)
        want = [_separate_by_building_every_row(inst, x, DEFAULT_EPS, [r]) for r in cuts]
        rows = _per_cut_rows(inst, x)
        assert [row.key() for row in rows] == [row.key() for row in want if row], name


def _safe_heavy_path(q):
    # every cut holds 4 safe edges, so p = 3 is met at any q
    edges = ((0, 1),) * 4 + ((1, 2),) * 4 + ((0, 1), (1, 2))
    return FgcInstance(Multigraph(3, edges), (True,) * 8 + (False,) * 2, (1.0,) * 10, 3, q)


@pytest.mark.parametrize("q", [10**17, 10**19])
def test_separate_at_huge_q_matches_bruteforce(q):
    # the (a, b) grid once had p + q columns: a MemoryError at 10^17 and a
    # ValueError from np.arange at 10^19
    inst = _safe_heavy_path(q)
    for x in [(0.5,) * 10, (1, 1, 0.25, 0.25, 1, 0.5, 0.5, 0.5, 1, 1)]:
        assert separate(inst, x) == separate_bruteforce(inst, x)[0]


def test_solve_relaxation_at_huge_q():
    assert solve_relaxation(_safe_heavy_path(10**14)).value == 6.0
    # HiGHS refuses matrix entries of 1e15 and more
    with pytest.raises(LpSolveError):
        solve_relaxation(_safe_heavy_path(10**15))
    # past float range the separator's grid overflowed with a bare OverflowError;
    # at 10^308 p+q fits a float but the grid's rhs p(p+q) and the scan
    # threshold 2p(p+q) do not, and overflowed the same way after a warning
    for q in (10**308, 10**400):
        for run_lp in (solve_relaxation, lambda inst: separate(inst, (0.5,) * 10)):
            with pytest.raises(LpSolveError, match="float range"):
                run_lp(_safe_heavy_path(q))


def test_separate_at_the_largest_q_the_float_guard_admits():
    # The guard is on what separation turns into floats, the (a, b) grid's
    # rhs up to p(p+q).  Cut capacities reach m(p+q), far beyond it, and
    # once refused the instance at the first q below (guard
    # 2.max(p, m).(p+q)); the scan leaves out a cut whose float sum is inf,
    # with no numpy overflow warning (an error under this suite), so
    # separation matches the brute-force reference up to p(p+q) just below
    # float max, and refuses one q past it.
    g, safe, p = Multigraph(2, ((0, 1),) * 20), (True,) * 20, 2
    edge = int(sys.float_info.max) // p - p
    for q in (4 * (int(sys.float_info.max) // (2 * g.m) - p), edge):
        inst = FgcInstance(g, safe, (1.0,) * g.m, p, q)
        for value in (1.0, 0.5, 0.25, 0.0):
            x = (value,) * g.m
            want = separate_bruteforce(inst, x, DEFAULT_EPS)
            assert separate(inst, x) == (want[0] if want else None)
    assert p * (p + edge) <= sys.float_info.max < p * (p + edge + 1)
    with pytest.raises(LpSolveError, match="float range"):
        separate(FgcInstance(g, safe, (1.0,) * g.m, p, edge + 1), (1.0,) * g.m)


def test_solve_relaxation_names_the_cut_of_an_infeasible_edge_set():
    # all-safe at q = 0, so gen_random's repair edge is unsafe; read at
    # q = 1, cut {2} holds too few safe and too few total edges, and HiGHS
    # once reported the bare LpSolveError "LP subsolver failed: Infeasible"
    base = gen_random(12, 30, 1.0, (1, 10), 2, 0, 1)
    inst = FgcInstance(base.graph, base.safe, base.cost, 2, 1)
    witness = model.is_feasible(inst, inst.all_edges).witness
    assert sorted(witness.vertices) == [2]
    with pytest.raises(InvalidInstanceError, match=r"cut \[2\] has too few") as err:
        solve_relaxation(inst)
    assert err.value.code == "infeasible-edges"


@pytest.mark.parametrize("n", [13, 14])
def test_per_cut_separation_on_both_sides_of_the_table_size(monkeypatch, n):
    # n = 13 scans all 4,095 cuts in one block; n = 14 shortlists its 8,191
    # cuts with the capacity table
    tables = []
    build_table = graph._cut_capacity_table
    monkeypatch.setattr(
        graph, "_cut_capacity_table", lambda *a: tables.append(1) or build_table(*a)
    )
    rng = random.Random(n)
    for p, q, scale in [(2, 1, 0.5), (2, 2, 0.4)]:
        inst = random_instance(900 + n, n=n, m=2 * n + 4, p=p, q=q)
        x = tuple(rng.random() * scale for _ in range(inst.m))
        cuts = enumerate_cuts_below(inst.graph, capacities(inst, x), 2 * p * (p + q))
        want = [_separate_by_building_every_row(inst, x, DEFAULT_EPS, [r]) for r in cuts]
        tables.clear()
        rows = _per_cut_rows(inst, x)
        assert len(tables) == (1 if n == 14 else 0)
        assert [row.key() for row in rows] == [row.key() for row in want if row]
        assert any(row.j_edges for row in rows)


@pytest.mark.parametrize("n", [8, 13, 14])
def test_one_separator_per_solve_matches_a_fresh_one_per_iterate(n):
    # n <= 13 reuses the scan's stored crossing matrix; n = 14 shortlists
    # with the capacity table each round
    inst = random_instance(930 + n, n=n, m=3 * n, p=2, q=2)
    iterates = []
    solve_relaxation(inst, on_iterate=lambda i, x, v: iterates.append(x))
    assert len(iterates) >= 2
    separator = relaxation._Separator(inst)
    for x in iterates:
        reused = separator.rows(x, DEFAULT_EPS)
        fresh = _per_cut_rows(inst, x)
        assert [row.key() for row in reused] == [row.key() for row in fresh]
        assert [violation(row, x) for row in reused] == [violation(row, x) for row in fresh]


def test_a_reused_separator_slices_its_stored_matrix_by_the_current_block(monkeypatch):
    inst = random_instance(941, n=10, m=24, p=2, q=1)
    rng = random.Random(941)
    x = tuple(rng.random() * 0.3 for _ in range(inst.m))
    want = [row.key() for row in _per_cut_rows(inst, x)]
    assert want
    separator = relaxation._Separator(inst)
    for block in (CUT_BLOCK, 2, 7, 511):  # the first run stores the matrix
        monkeypatch.setattr(graph, "CUT_BLOCK", block)
        rows = separator.rows(x, DEFAULT_EPS)
        assert [row.key() for row in rows] == want, block


@pytest.mark.parametrize("safe", [True, False])
def test_separation_with_one_edge_family_empty(built_rows, safe):
    # all safe or all unsafe: one family's tail sums have no columns
    rng = random.Random(953 if safe else 954)
    for trial in range(24):
        n, p, q = rng.randint(3, 7), rng.randint(1, 3), rng.randint(0, 3)
        base = random_instance(960 + trial, n=n, m=14, p=p, q=q)
        inst = FgcInstance(base.graph, (safe,) * base.m, base.cost, base.p, base.q)
        if trial % 2:
            x = tuple(Fraction(rng.randint(0, 8), 8) for _ in range(inst.m))
            eps = 0
        else:
            x = tuple(rng.random() for _ in range(inst.m))
            eps = DEFAULT_EPS
        _assert_same_row_as_building_every_row(inst, x, eps, built_rows)
        need = inst.p * (inst.p + inst.q)
        cuts = enumerate_cuts_below(inst.graph, capacities(inst, x), 2 * need)
        want = [_separate_by_building_every_row(inst, x, eps, [r]) for r in cuts]
        rows = _per_cut_rows(inst, x, eps)
        assert [row.key() for row in rows] == [row.key() for row in want if row], trial


def test_crossing_matrix_runs_once_per_solve(monkeypatch):
    # every canonical mask fits in one block at n = 8, so the scan keeps
    # their crossing matrix for the whole loop instead of one per round
    calls = []
    build = graph.crossing_matrix
    monkeypatch.setattr(graph, "crossing_matrix", lambda *a, **k: calls.append(1) or build(*a, **k))
    relax = solve_relaxation(gen_random(8, 56, 0.5, (1, 10), 4, 3, 7))
    assert relax.iterations == 8
    assert len(calls) == 1


def test_lp_solve_no_rows_gives_zero():
    x, value = lp_solve([], (1.0, 2.0), 2)
    assert x == (0.0, 0.0) and value == 0.0


def test_lp_solve_all_trivial_rows_gives_zero():
    inst = two_vertex()
    row = constraint_row(inst, Cut.from_vertices(2, {1}), {0})  # 1 safe >= p=1
    assert row.trivial
    x, value = lp_solve([row, row], inst.cost, inst.m)
    assert x == (0.0, 0.0, 0.0) and value == 0.0


def _all_unsafe_pair() -> FgcInstance:
    g = Multigraph(2, ((0, 1),) * 3)
    return FgcInstance(g, (False, False, False), (1.0, 1.0, 1.0), 1, 1)


def test_lp_solve_single_row_by_inspection():
    inst = _all_unsafe_pair()
    row = constraint_row(inst, Cut.from_vertices(2, {1}), {0})
    # row reads x1 + x2 >= 1; the cheaper of the two wins
    x, value = lp_solve([row], (9.0, 1.0, 2.0), 3)
    assert abs(value - 1.0) <= 1e-9
    assert abs(x[1] - 1.0) <= 1e-9 and abs(x[2]) <= 1e-9


def test_lp_solve_two_vertex_row_system():
    inst = two_vertex()
    cut = Cut.from_vertices(2, {1})
    rows = [
        constraint_row(inst, cut, frozenset()),
        constraint_row(inst, cut, {1}),
        constraint_row(inst, cut, {2}),
    ]
    x, value = lp_solve(rows, inst.cost, inst.m)
    assert abs(value - 2.0) <= 1e-7
    assert abs(x[0]) <= 1e-9 and abs(x[1] - 1) <= 1e-9 and abs(x[2] - 1) <= 1e-9


def test_lp_solve_zero_objective_gives_zero():
    row = constraint_row(two_vertex(), Cut.from_vertices(2, {0}), frozenset())
    x, value = lp_solve([row], (0.0, 0.0, 0.0), 3)
    assert value == 0.0
    assert violation(row, x) <= 1e-7


@pytest.mark.parametrize("p, q, seed", [(2, 1, 2), (1, 1, 11), (1, 2, 12), (1, 2, 41)])
def test_lp_value_stays_below_optimum_at_tiny_costs(p, q, seed):
    # HiGHS's absolute tolerances, about 1e-7, against costs near 1e-6 put
    # the LP value 0.7-7.6% above the optimum on these instances until the
    # objective was scaled to a largest coefficient of 1
    inst = gen_random(7, 12, 0.5, (1e-9, 1e-6), p, q, seed)
    assert solve_relaxation(inst).value <= exact_opt(inst).best_cost * (1 + 1e-9)


def test_row_is_the_same_whichever_order_its_cut_set_iterates(monkeypatch):
    # cut {1} crosses edges 0, 8 and 16, which share a slot in a small set
    # table, so frozenset([16, 8, 0]) iterates in another order than the
    # frozenset that cut_edges builds in edge order
    ends = [(0, 1) if e % 8 == 0 else (0, 2) for e in range(17)]
    inst = FgcInstance(Multigraph(3, ends), (True,) * 17, (1.0,) * 17, 1, 0)
    cut = Cut.from_vertices(3, {1})
    built = relaxation.cut_edges(inst.graph, cut)
    reordered = frozenset([16, 8, 0])
    assert built == reordered and list(built) != list(reordered)
    rows = [constraint_row(inst, cut, ())]
    monkeypatch.setattr(relaxation, "cut_edges", lambda g, r: reordered)
    rows.append(constraint_row(inst, cut, ()))
    assert rows[0].k == rows[1].k == (0, 8, 16) and rows[0].coef == rows[1].coef == (1, 1, 1)

    calls = []
    for row in rows:
        lp = relaxation._HighsLp(inst.cost, inst.m)
        add_rows = lp.highs.addRows  # the model's own attributes are read-only
        lp.highs = SimpleNamespace(addRows=lambda *args: calls.append(args) or add_rows(*args))
        lp.add([row])
    index, value = calls[0][5:]
    assert index.tolist() == [0, 8, 16] and value.tolist() == [1.0, 1.0, 1.0]
    for a, b in zip(*calls):
        assert np.array_equal(a, b)

    # (0.1 + 0.2) + 0.3 and (0.3 + 0.2) + 0.1 differ in the last bit
    x = [0.0] * inst.m
    x[0], x[8], x[16] = 0.1, 0.2, 0.3
    assert rows[0].lhs(x) == rows[1].lhs(x) == (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1


def test_lp_solve_rejects_negative_objective():
    with pytest.raises(ValueError):
        lp_solve([], (-1.0, 0.0), 2)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_lp_solve_rejects_non_finite_objective(bad):
    # a NaN cost gave value nan, an infinite one value inf, and with no
    # rows a NaN cost gave zeros after a RuntimeWarning
    row = constraint_row(_all_unsafe_pair(), Cut.from_vertices(2, {1}), {0})
    with pytest.raises(ValueError, match="finite"):
        lp_solve([row], (bad, 1.0, 1.0), 3)
    with pytest.raises(ValueError, match="finite"):
        lp_solve([], (bad, 1.0), 2)


def test_exact_lp_matches_float_lp_on_corpus():
    # the warm-started model's final value against a fresh HiGHS model and
    # the rational simplex over the same pool, whose optimum certifies the
    # LP optimum
    for name, inst in named_corpus():
        if inst.m > 16:
            continue
        relax = solve_relaxation(inst)
        _, fresh = lp_solve(relax.active_rows, inst.cost, inst.m)
        xe, ve = lp_solve_exact(relax.active_rows, inst.cost, inst.m)
        assert abs(relax.value - fresh) <= 1e-9 * fresh, name
        assert abs(relax.value - float(ve)) <= 1e-9 * float(ve), name
        for row in relax.active_rows:
            if not row.trivial:
                assert row.lhs(xe) >= row.rhs  # exact feasibility
        # exact separation at the rational optimum finds no violated row
        assert separate(inst, xe, 0) is None, name


def test_exact_lp_simple_vertex():
    inst = _all_unsafe_pair()
    row = constraint_row(inst, Cut.from_vertices(2, {1}), {0})
    x, value = lp_solve_exact([row], (9, 1, 2), 3)
    assert value == Fraction(1)
    assert x == (Fraction(0), Fraction(1), Fraction(0))


def test_solve_relaxation_two_vertex():
    relax = solve_relaxation(two_vertex())
    assert abs(relax.value - 2.0) <= 1e-7
    assert relax.x == (0.0, 1.0, 1.0)


def test_solve_relaxation_triangle():
    relax = solve_relaxation(triangle_p1q0())
    assert abs(relax.value - 1.5) <= 1e-7
    assert all(abs(v - 0.5) <= 1e-9 for v in relax.x)


def test_solve_relaxation_final_x_passes_separation():
    for name, inst in named_corpus():
        relax = solve_relaxation(inst)
        assert separate(inst, relax.x, 1e-7) is None, name


def test_solve_relaxation_value_below_exact_optimum():
    for name, inst in named_corpus():
        if inst.m > 20:
            continue
        relax = solve_relaxation(inst)
        best = exact_opt(inst)
        assert relax.value <= best.best_cost + 1e-6, name


def test_solve_relaxation_iteration_cap(monkeypatch):
    monkeypatch.setattr(relaxation, "ITERATIONS_PER_EDGE_VERTEX", 0)
    with pytest.raises(IterationLimitError):
        solve_relaxation(two_vertex())


def test_solve_relaxation_skips_pool_rows_separation_reports(monkeypatch):
    # A pool row read as violated (as LP tolerance and clipping allow) is
    # dropped while other cuts still bring new rows.
    inst = strengthening_gadget()
    want = solve_relaxation(inst)
    pool_row = constraint_row(inst, Cut.from_vertices(inst.n, {0}), frozenset())
    per_cut = relaxation._Separator.rows

    def with_pool_row(*args):
        rows = per_cut(*args)
        return [pool_row] + rows if rows else rows

    monkeypatch.setattr(relaxation._Separator, "rows", with_pool_row)
    relax = solve_relaxation(inst)
    assert relax.value == want.value
    assert len({row.key() for row in relax.active_rows}) == len(relax.active_rows)


def test_solve_relaxation_stalls_when_separation_repeats_the_pool(monkeypatch):
    inst = two_vertex()
    pool_row = constraint_row(inst, Cut.from_vertices(inst.n, {0}), frozenset())
    monkeypatch.setattr(relaxation._Separator, "rows", lambda *args: [pool_row])
    with pytest.raises(IterationLimitError, match="already in the pool"):
        solve_relaxation(inst)


def test_exact_lp_certifies_two_vertex_and_gadget_optima():
    # the rational simplex over the float loop's final pool certifies the
    # LP optimum: exact separation at its optimum finds no violated row
    inst = two_vertex()
    xe, ve = lp_solve_exact(solve_relaxation(inst).active_rows, inst.cost, inst.m)
    assert (xe, ve) == ((0, 1, 1), 2)
    assert separate(inst, xe, 0) is None
    gadget = strengthening_gadget()
    xe, ve = lp_solve_exact(solve_relaxation(gadget).active_rows, gadget.cost, gadget.m)
    assert ve == 11
    assert separate(gadget, xe, 0) is None


def test_solve_relaxation_logs_iterates():
    seen = []
    solve_relaxation(two_vertex(), on_iterate=lambda i, x, v: seen.append((i, x, v)))
    assert seen and seen[0][0] == 1


def test_strengthening_gadget_gap():
    inst = strengthening_gadget()
    basic = basic_lp_value(inst)
    full = solve_relaxation(inst)
    assert abs(basic - 4.0) <= 1e-6
    assert abs(full.value - 11.0) <= 1e-6
    assert full.value >= basic + 1e-3


def test_knapsack_rows_never_lower_the_lp():
    for name, inst in named_corpus():
        basic = basic_lp_value(inst)
        full = solve_relaxation(inst)
        assert full.value >= basic - 1e-9, name
