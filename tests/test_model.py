"""Instance model and the two feasibility checkers."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexconn import (
    Cut,
    FgcInstance,
    InvalidInstanceError,
    Multigraph,
    TooLargeError,
    gen_random,
    is_feasible,
    is_feasible_direct,
    min_cut,
    validate_instance,
)
from flexconn import graph, model
from flexconn.graph import canonical_masks
from flexconn.model import cut_tallies

from instances import cycle_graph, gadget_f1, named_corpus, random_instance, two_vertex


def test_instance_checks_array_lengths():
    g = Multigraph(2, ((0, 1),))
    with pytest.raises(ValueError):
        FgcInstance(g, (True, False), (1.0,), 1, 0)
    with pytest.raises(ValueError):
        FgcInstance(g, (True,), (1.0, 2.0), 1, 0)


def test_instance_edge_id_views():
    inst = two_vertex()
    assert inst.all_edges == {0, 1, 2}
    assert inst.selection_cost({0, 1}) == 6.0


def test_direct_two_vertex_examples():
    inst = two_vertex()
    assert is_feasible_direct(inst, {0}).feasible  # 1 safe >= p
    bad = is_feasible_direct(inst, {1})
    assert not bad.feasible
    assert bad.witness.vertices == frozenset({1})
    assert is_feasible_direct(inst, {1, 2}).feasible  # 2 total >= p+q


def test_direct_witness_is_first_in_canonical_order():
    inst = random_instance(5, n=5, m=9, p=2, q=1)
    verdict = is_feasible_direct(inst, set())
    assert not verdict.feasible
    assert verdict.witness.side_mask == 0b00010  # mask 1 << 1 comes first


def test_direct_witness_is_the_first_cut_short_by_its_tallies():
    rng = random.Random(31)
    for seed in range(40):
        p, q = rng.randint(1, 3), rng.randint(0, 3)
        inst = random_instance(seed, n=rng.randint(2, 7), m=rng.randint(6, 14), p=p, q=q)
        f = {e for e in range(inst.m) if rng.random() < 0.7}
        short = []
        for mask in canonical_masks(inst.n):
            s, t = cut_tallies(inst, f, mask)
            if s < p and t < p + q:
                short.append(mask)
        verdict = is_feasible_direct(inst, f)
        assert verdict.feasible == (not short)
        assert verdict.witness == (Cut(inst.n, short[0]) if short else None)


def test_direct_refuses_large_instances():
    # a 21-vertex path is one past the limit; the check raises before any scan
    g = Multigraph(21, tuple((v, v + 1) for v in range(20)))
    inst = FgcInstance(g, (True,) * 20, (1.0,) * 20, 1, 0)
    with pytest.raises(TooLargeError):
        is_feasible_direct(inst, inst.all_edges)


def test_direct_rejects_unknown_edge_ids():
    with pytest.raises(ValueError):
        is_feasible_direct(two_vertex(), {7})


def test_selections_refuse_float_edge_ids():
    # int(0.9) once made [0.9] a selection of edge 0
    inst = two_vertex()
    for check in (is_feasible, is_feasible_direct):
        with pytest.raises(ValueError, match="integer"):
            check(inst, [0.9])
        assert check(inst, [np.int64(0)]) == check(inst, [0])


def test_selections_refuse_bool_edge_ids():
    # operator.index(True) is 1, so [True, False] once selected edges {0, 1}
    inst = two_vertex()
    for check in (model.check_selection, is_feasible, is_feasible_direct):
        with pytest.raises(ValueError, match="bool"):
            check(inst, [True, False])


def test_capacitated_two_vertex_safe_edge():
    # min cut 2 = p(p+q); violating-cut bound 1; enumeration below it empty
    inst = two_vertex()
    verdict = is_feasible(inst, {0})
    assert verdict.feasible
    assert verdict.mode == "exhaustive"


def test_mode_is_the_route_chosen_by_size_not_the_candidate_source(monkeypatch):
    # at q = 10^307 the float cut table cannot hold the sums, so at n = 16
    # the scan takes the flow search's candidates; mode still reads the
    # route chosen by size
    inst = gen_random(16, 48, 1.0, (1, 10), 2, 10**307, 1)
    sizes, flow = [], graph._flow_shortlist
    monkeypatch.setattr(
        graph, "_flow_shortlist", lambda *args: sizes.append(args[0].n) or flow(*args)
    )
    verdict = is_feasible(inst, range(3, 48))
    assert sizes == [16] and verdict.mode == "exhaustive"
    assert verdict.feasible == is_feasible_direct(inst, range(3, 48)).feasible


def test_capacitated_f1_style_selection_infeasible():
    # capacity 6 + 3*2 = 12 = p(p+q) but 1 safe < 2 and 4 total < 6
    g = Multigraph(2, ((0, 1),) * 6)
    safe = (True, False, False, False, True, False)
    inst = FgcInstance(g, safe, (1.0,) * 6, 2, 4)
    verdict = is_feasible(inst, {0, 1, 2, 3})
    assert not verdict.feasible
    s, t = cut_tallies(inst, {0, 1, 2, 3}, verdict.witness.side_mask)
    assert s < 2 and t < 6


@pytest.mark.parametrize("p, q", [(1, 2), (2, 0), (3, 1)])
def test_capacitated_verdicts_need_no_cut_scan_when_q_le_1_or_p_is_1(monkeypatch, p, q):
    # a minimum cut of at least p(p+q) is then above the violating-cut bound
    # p(p+q-1) + q(p-1), so the min cut alone decides every verdict
    def no_scan(*args, **kwargs):
        raise AssertionError("is_feasible scanned cuts")

    monkeypatch.setattr(model, "enumerate_cuts_below", no_scan)
    rng = random.Random(10 * p + q)
    inst = random_instance(10 * p + q, n=6, m=14, p=p, q=q)
    verdicts = []
    for _ in range(30):
        f = {e for e in range(inst.m) if rng.random() < 0.8}
        verdicts.append(is_feasible(inst, f).feasible)
        assert verdicts[-1] == is_feasible_direct(inst, f).feasible
    assert is_feasible(inst, inst.all_edges).feasible
    assert any(verdicts) and not all(verdicts)


def test_capacitated_scans_when_min_cut_equals_the_bound():
    # p = q = 2: 1 safe and 2 unsafe selected edges give min cut 4 + 2 + 2 = 8,
    # both p(p+q) and the violating-cut bound p(p+q-1) + q(p-1); only the cut
    # scan sees that 1 safe < 2 and 3 total < 4
    g = Multigraph(2, ((0, 1),) * 6)
    inst = FgcInstance(g, (True, True, False, False, False, False), (1.0,) * 6, 2, 2)
    verdict = is_feasible(inst, {0, 2, 3})
    assert not verdict.feasible
    assert verdict.witness.side_mask == 0b10
    assert is_feasible(inst, {0, 1}).feasible


def _cycle21_two_unsafe_per_position(single_safe_at_0: bool) -> FgcInstance:
    # positions are the vertex pairs (v, v+1 mod 21); (p, q) = (2, 2)
    edges, safe = [], []
    for v in range(21):
        if v == 0 and single_safe_at_0:
            edges.append((0, 1))
            safe.append(True)
        else:
            edges += [(v, (v + 1) % 21)] * 2
            safe += [False, False]
    return FgcInstance(Multigraph(21, tuple(edges)), tuple(safe), (1.0,) * len(edges), 2, 2)


def _record_scans(monkeypatch) -> list:
    sizes, scan = [], model.enumerate_cuts_below
    monkeypatch.setattr(
        model, "enumerate_cuts_below", lambda *args: sizes.append(args[0].n) or scan(*args)
    )
    return sizes


def test_capacitated_past_the_exhaustive_limit_enumerates_by_flow(monkeypatch):
    # n = 21: every cut crosses two positions, 4 unsafe edges, capacity 8
    inst = _cycle21_two_unsafe_per_position(single_safe_at_0=False)
    sizes = _record_scans(monkeypatch)
    verdict = is_feasible(inst, inst.all_edges)
    assert verdict.feasible
    assert verdict.mode == "flow" and sizes == [21]


def test_capacitated_flow_route_finds_a_witness_at_the_min_cut(monkeypatch):
    # one safe edge at position 0: its cuts hold 1 safe and 3 edges, and
    # lambda = 4 + 4 = 8 = p(p+q), so the min cut alone does not decide
    inst = _cycle21_two_unsafe_per_position(single_safe_at_0=True)
    sizes = _record_scans(monkeypatch)
    verdict = is_feasible(inst, inst.all_edges)
    assert not verdict.feasible
    assert verdict.mode == "flow" and sizes == [21]
    assert verdict.witness.vertices == frozenset({1})
    assert cut_tallies(inst, inst.all_edges, verdict.witness.side_mask) == (1, 3)


def _survives_every_q_failure(inst: FgcInstance, f: frozenset) -> bool:
    """The definition: F minus any q of its unsafe edges keeps unit min cut
    >= p.  Dropping fewer edges is weaker, and each dropped edge lowers the
    min cut by at most 1, so a set of failures at min cut >= p + (failures
    still to come) needs no further branching."""
    g, p = inst.graph, inst.p
    unsafe = sorted(e for e in f if not inst.safe[e])

    def survives(kept, budget, start):
        lam = min_cut(g, [1 if e in kept else 0 for e in range(inst.m)])[1]
        if lam < p:
            return False
        if budget == 0 or lam >= p + budget:
            return True
        return all(
            survives(kept - {e}, budget - 1, i + 1) for i, e in enumerate(unsafe[start:], start)
        )

    return survives(f, inst.q, 0)


@pytest.mark.parametrize("n", [24, 32, 40])
def test_capacitated_past_the_table_matches_the_definition(monkeypatch, n):
    # full edge sets, 1-edge and 3-edge deletions
    sizes = _record_scans(monkeypatch)
    verdicts, scanned = [], 0
    for p, q in ((2, 1), (2, 2), (3, 2)):
        inst = gen_random(n, 3 * n, 0.4, (1, 10), p, q, seed=n + q)
        rng = random.Random(10 * n + p + q)
        full = inst.all_edges
        dropped = [set(), {rng.randrange(inst.m)}, set(rng.sample(range(inst.m), 3))]
        for f in (full - d for d in dropped):
            before = len(sizes)
            verdict = is_feasible(inst, f)
            scanned += len(sizes) > before
            assert verdict.mode == "flow"
            assert verdict.feasible == _survives_every_q_failure(inst, f), (n, p, q, f)
            verdicts.append(verdict.feasible)
    # both verdicts occur, and some came from the flow enumeration
    assert True in verdicts and False in verdicts
    assert scanned >= 2


@pytest.mark.parametrize("n", [4, 14, 24])
def test_capacitated_at_q_beyond_float_range(n):
    # every cut of a safe cycle crosses 2 = p safe edges, so it is feasible
    # at any q; the cut threshold was bound + 0.5, which raised
    # OverflowError once q passed float range.  These capacities do not fit
    # the float cut table, so n = 14, like n = 24, enumerates by flow
    inst = FgcInstance(cycle_graph(n), (True,) * n, (1.0,) * n, 2, 10**400)
    path = inst.all_edges - {0}
    assert is_feasible(inst, inst.all_edges).feasible
    assert not is_feasible(inst, path).feasible
    if n <= 14:
        assert is_feasible_direct(inst, inst.all_edges).feasible
        assert not is_feasible_direct(inst, path).feasible


@pytest.mark.parametrize("n", [14, 17, 20])
def test_capacitated_where_cut_sums_pass_float_range(n):
    # at q = 10^307 each capacity fits a float but the float cut table's
    # sums do not: it overflowed, with numpy warnings, and lost cuts; the
    # flow search now lists them, and the verdicts are the definition's
    base = gen_random(n, 3 * n, 1.0, (1, 10), 2, 2, 1)
    inst = FgcInstance(base.graph, base.safe, base.cost, 2, 10**307)
    for f in (inst.all_edges, range(3, inst.m)):
        verdict = is_feasible(inst, f)
        assert verdict.feasible == is_feasible_direct(inst, f).feasible
    assert is_feasible(inst, inst.all_edges).feasible


def test_full_edge_set_feasible_on_corpus():
    for name, inst in named_corpus():
        assert is_feasible(inst, inst.all_edges).feasible, name


def test_checkers_agree_on_random_selections():
    rng = random.Random(23)
    for trial in range(60):
        inst = random_instance(
            rng.randrange(10**6),
            n=rng.randint(3, 7),
            m=rng.randint(7, 14),
            p=rng.randint(1, 3),
            q=rng.randint(0, 4),
        )
        f = {e for e in range(inst.m) if rng.random() < 0.6}
        direct = is_feasible_direct(inst, f)
        fast = is_feasible(inst, f)
        assert direct.feasible == fast.feasible, trial
        if not fast.feasible:
            s, t = cut_tallies(inst, f, fast.witness.side_mask)
            assert s < inst.p and t < inst.p + inst.q


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.data())
def test_feasibility_is_monotone(seed, data):
    rng = random.Random(seed)
    inst = random_instance(seed % 1000, n=rng.randint(3, 6), m=10, p=rng.randint(1, 2), q=rng.randint(0, 3))
    small = data.draw(st.sets(st.integers(0, inst.m - 1)), label="small")
    extra = data.draw(st.sets(st.integers(0, inst.m - 1)), label="extra")
    if is_feasible_direct(inst, small).feasible:
        assert is_feasible_direct(inst, small | extra).feasible


def test_validate_rejects_bad_parameters():
    # FgcInstance checks p and q when it is built
    g = Multigraph(2, ((0, 1), (0, 1)))
    with pytest.raises(InvalidInstanceError) as exc:
        FgcInstance(g, (True, True), (1.0, 1.0), 0, 0)
    assert exc.value.code == "params"
    with pytest.raises(InvalidInstanceError) as exc:
        FgcInstance(g, (True, True), (1.0, 1.0), 1, -1)
    assert exc.value.code == "params"


@pytest.mark.parametrize("p, q", [(1.5, 0), (2, 0.5), (2.0, 1), (True, 0), (1, False)])
def test_validate_refuses_non_integer_parameters(p, q):
    # p = 1.5 and q = 0.5 once passed, and True read as 1
    g = Multigraph(2, ((0, 1), (0, 1)))
    with pytest.raises(InvalidInstanceError, match="integer") as exc:
        FgcInstance(g, (True, True), (1.0, 1.0), p, q)
    assert exc.value.code == "params"


def test_validate_rejects_bad_costs():
    # FgcInstance checks the costs when it is built
    g = Multigraph(2, ((0, 1), (0, 1)))
    with pytest.raises(InvalidInstanceError) as exc:
        FgcInstance(g, (True, True), (1.0, -2.0), 1, 0)
    assert exc.value.code == "costs"
    with pytest.raises(InvalidInstanceError) as exc:
        FgcInstance(g, (True, True), (float("inf"), 1.0), 1, 0)
    assert exc.value.code == "costs"
    # finite costs whose total is beyond float range
    with pytest.raises(InvalidInstanceError) as exc:
        FgcInstance(g, (True, True), (1e308, 1e308), 1, 0)
    assert exc.value.code == "costs"


def test_validate_rejects_infeasible_edge_set():
    # single safe edge cannot give 2-edge-connectivity
    g = Multigraph(2, ((0, 1),))
    inst = FgcInstance(g, (True,), (1.0,), 2, 0)
    with pytest.raises(InvalidInstanceError) as exc:
        validate_instance(inst)
    assert exc.value.code == "infeasible-edges"
    # the F1 gadget's edge set is likewise infeasible for p=2 q=4
    with pytest.raises(InvalidInstanceError):
        validate_instance(gadget_f1())


@pytest.mark.parametrize(
    "safe, cost, error, code",
    [
        (("no", True), (1.0, 1.0), "safety flag", None),
        ((0.5, True), (1.0, 1.0), "safety flag", None),
        ((True, True), ("3", 1.0), "cost of edge 0", "costs"),
        ((True, True), (1.0, True), "cost of edge 1", "costs"),
        ((True, True), (10**400, 1.0), "beyond float range", "costs"),
    ],
)
def test_instance_refuses_bad_fields_when_built(safe, cost, error, code):
    # "no" and 0.5 read as True, and "3" and True as costs 3.0 and 1.0
    # (test_validate_rejects_bad_parameters covers p = 0, which only
    # validate_instance caught, and library calls skip it)
    g = Multigraph(2, ((0, 1), (0, 1)))
    with pytest.raises(ValueError, match=error) as exc:
        FgcInstance(g, safe, cost, 1, 0)
    assert getattr(exc.value, "code", None) == code


def test_instance_reads_numpy_integers_and_bools():
    g = Multigraph(2, ((0, 1), (0, 1)))
    inst = FgcInstance(g, (np.bool_(True), False), (1, 2.5), np.int64(2), np.int32(1))
    assert (inst.p, inst.q, inst.safe, inst.cost) == (2, 1, (True, False), (1.0, 2.5))
    assert type(inst.p) is int and type(inst.q) is int and type(inst.safe[0]) is bool


def test_validate_accepts_one_safe_edge_when_p_is_one():
    # q demands 4 edges or 1 safe; the safe edge alone is enough
    inst = two_vertex()
    trip = FgcInstance(inst.graph, inst.safe, inst.cost, 1, 3)
    validate_instance(trip)


def test_verdict_is_truthy_only_when_feasible():
    inst = two_vertex()
    assert is_feasible(inst, {0})
    assert not is_feasible(inst, {1})
