"""Constraint rows, separation oracle, LP subsolvers, cutting-plane driver."""

import dataclasses
import random
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
    lp_solve_exact,
    min_cut,
    separate,
    solve_relaxation,
    violation,
)
from flexconn import graph, relaxation
from flexconn.exact import separate_bruteforce
from flexconn import model
from flexconn.model import FgcInstance
from flexconn.errors import LpSolveError
from flexconn.graph import CUT_BLOCK, Multigraph, enumerate_cuts_below
from flexconn.instance_io import gen_random
from flexconn.relaxation import DEFAULT_EPS, ConstraintRow

from instances import (
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
    assert row.coefficient(0) == 2
    assert row.coefficient(1) == 1
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


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1.0])
def test_separate_rejects_bad_eps(eps):
    # NaN and inf made every row look satisfied; a negative eps re-added pool rows
    with pytest.raises(ValueError, match="eps"):
        separate(two_vertex(), (0.0, 0.0, 0.0), eps)


def test_solve_relaxation_rejects_nan_eps():
    with pytest.raises(ValueError, match="eps"):
        solve_relaxation(random_instance(3, n=6, m=12, p=2, q=1), float("nan"))


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
            assert len(relaxation._separate_per_cut(inst, x)) == len(cuts), (vertex, block)
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


@pytest.mark.parametrize(
    "j_family, block", [("full", CUT_BLOCK), ("full", 2), ("basic", CUT_BLOCK)]
)
def test_per_cut_separation_agrees_with_separate(monkeypatch, j_family, block):
    monkeypatch.setattr(graph, "CUT_BLOCK", block)  # 2: cuts span many blocks
    for name, inst, x in _separation_points():
        rows = relaxation._separate_per_cut(inst, x, DEFAULT_EPS, j_family=j_family)
        best = separate(inst, x, DEFAULT_EPS, j_family=j_family)
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
        rows = relaxation._separate_per_cut(inst, x, DEFAULT_EPS)
        assert [row.key() for row in rows] == [row.key() for row in want if row], name


def test_basic_per_cut_separation_returns_every_violated_j_empty_row():
    # the J-empty row of every cut below 2p(p+q) violated beyond eps, in
    # (capacity, mask) order, not only the minimum cut's row
    for name, inst, x in _separation_points():
        need = inst.p * (inst.p + inst.q)
        cuts = enumerate_cuts_below(inst.graph, capacities(inst, x), 2 * need)
        want = [constraint_row(inst, r, ()) for r in cuts]
        want = [row for row in want if violation(row, x) > DEFAULT_EPS]
        rows = relaxation._separate_per_cut(inst, x, DEFAULT_EPS, j_family="basic")
        assert [row.key() for row in rows] == [row.key() for row in want], name


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
        rows = relaxation._separate_per_cut(inst, x, DEFAULT_EPS)
        assert len(tables) == (1 if n == 14 else 0)
        assert [row.key() for row in rows] == [row.key() for row in want if row]
        assert any(row.j_edges for row in rows)


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


def test_highs_gets_row_entries_in_edge_order():
    # frozenset([8, 0]) and frozenset([0, 8]) iterate in different orders
    first = ConstraintRow(
        cut=Cut.from_vertices(2, {1}),
        j_edges=frozenset(),
        a=0,
        b=0,
        alpha1=2,
        alpha2=1,
        rhs=6,
        k_safe=frozenset([8, 0]),
        k_unsafe=frozenset([3]),
    )
    second = dataclasses.replace(first, k_safe=frozenset([0, 8]))
    assert first == second and list(first.k_safe) != list(second.k_safe)
    calls = []
    for row in (first, second):
        lp = relaxation._HighsLp((1.0,) * 9, 9)
        add_rows = lp.highs.addRows  # the model's own attributes are read-only
        lp.highs = SimpleNamespace(addRows=lambda *args: calls.append(args) or add_rows(*args))
        lp.add([row])
    index, value = calls[0][5:]
    assert index.tolist() == [0, 3, 8] and value.tolist() == [3.0, 2.0, 3.0]
    for a, b in zip(*calls):
        assert np.array_equal(a, b)


def test_lp_solve_rejects_negative_objective():
    with pytest.raises(ValueError):
        lp_solve([], (-1.0, 0.0), 2)


def test_exact_lp_matches_float_lp_on_corpus():
    # the warm-started model's final value against a fresh HiGHS model and
    # the rational simplex over the same pool
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
    per_cut = relaxation._separate_per_cut

    def with_pool_row(*args):
        rows = per_cut(*args)
        return [pool_row] + rows if rows else rows

    monkeypatch.setattr(relaxation, "_separate_per_cut", with_pool_row)
    relax = solve_relaxation(inst)
    assert relax.value == want.value
    assert len({row.key() for row in relax.active_rows}) == len(relax.active_rows)


def test_solve_relaxation_stalls_when_separation_repeats_the_pool(monkeypatch):
    inst = two_vertex()
    pool_row = constraint_row(inst, Cut.from_vertices(inst.n, {0}), frozenset())
    monkeypatch.setattr(relaxation, "_separate_per_cut", lambda *args: [pool_row])
    with pytest.raises(IterationLimitError, match="already in the pool"):
        solve_relaxation(inst)


def test_solve_relaxation_exact_numeric_mode():
    relax = solve_relaxation(two_vertex(), eps=0, numeric="exact")
    assert relax.value == 2
    assert relax.x == (0, 1, 1)
    gadget = solve_relaxation(strengthening_gadget(), eps=0, numeric="exact")
    assert gadget.value == 11


def test_solve_relaxation_logs_iterates():
    seen = []
    solve_relaxation(two_vertex(), on_iterate=lambda i, x, v: seen.append((i, x, v)))
    assert seen and seen[0][0] == 1


def test_strengthening_gadget_gap():
    inst = strengthening_gadget()
    basic = solve_relaxation(inst, j_family="basic")
    full = solve_relaxation(inst)
    assert abs(basic.value - 4.0) <= 1e-6
    assert abs(full.value - 11.0) <= 1e-6
    assert full.value >= basic.value + 1e-3


def test_knapsack_rows_never_lower_the_lp():
    for name, inst in named_corpus():
        basic = solve_relaxation(inst, j_family="basic")
        full = solve_relaxation(inst)
        assert full.value >= basic.value - 1e-9, name
