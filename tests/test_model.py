"""Instance model and the two feasibility checkers."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexconn import (
    FgcInstance,
    InvalidInstanceError,
    Multigraph,
    TooLargeError,
    is_feasible,
    is_feasible_direct,
    validate_instance,
)
from flexconn import model
from flexconn.model import cut_tallies

from instances import gadget_f1, named_corpus, random_instance, two_vertex


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


def test_direct_refuses_large_instances():
    # a 21-vertex path is one past the limit; the check raises before any scan
    g = Multigraph(21, tuple((v, v + 1) for v in range(20)))
    inst = FgcInstance(g, (True,) * 20, (1.0,) * 20, 1, 0)
    with pytest.raises(TooLargeError):
        is_feasible_direct(inst, inst.all_edges)


def test_direct_rejects_unknown_edge_ids():
    with pytest.raises(ValueError):
        is_feasible_direct(two_vertex(), {7})


def test_capacitated_two_vertex_safe_edge():
    # min cut 2 = p(p+q); violating-cut bound 1; enumeration below it empty
    inst = two_vertex()
    verdict = is_feasible(inst, {0})
    assert verdict.feasible
    assert verdict.mode == "exhaustive"


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
    modes, scan = [], model.enumerate_cuts_below
    monkeypatch.setattr(
        model, "enumerate_cuts_below", lambda *args, **kw: modes.append(args[3]) or scan(*args, **kw)
    )
    return modes


def test_capacitated_past_the_exhaustive_limit_enumerates_by_contraction(monkeypatch):
    # n = 21: every cut crosses two positions, 4 unsafe edges, capacity 8
    inst = _cycle21_two_unsafe_per_position(single_safe_at_0=False)
    modes = _record_scans(monkeypatch)
    verdict = is_feasible(inst, inst.all_edges)
    assert verdict.feasible
    assert verdict.mode == "contraction" and modes == ["contraction"]


def test_capacitated_contraction_route_finds_a_witness_at_the_min_cut(monkeypatch):
    # one safe edge at position 0: its cuts hold 1 safe and 3 edges, and
    # lambda = 4 + 4 = 8 = p(p+q), so the min cut alone does not decide
    inst = _cycle21_two_unsafe_per_position(single_safe_at_0=True)
    modes = _record_scans(monkeypatch)
    verdict = is_feasible(inst, inst.all_edges)
    assert not verdict.feasible
    assert verdict.mode == "contraction" and modes == ["contraction"]
    assert verdict.witness.vertices == frozenset({1})
    assert cut_tallies(inst, inst.all_edges, verdict.witness.side_mask) == (1, 3)


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
    g = Multigraph(2, ((0, 1), (0, 1)))
    inst = FgcInstance(g, (True, True), (1.0, 1.0), 0, 0)
    with pytest.raises(InvalidInstanceError) as exc:
        validate_instance(inst)
    assert exc.value.code == "params"
    inst = FgcInstance(g, (True, True), (1.0, 1.0), 1, -1)
    with pytest.raises(InvalidInstanceError) as exc:
        validate_instance(inst)
    assert exc.value.code == "params"


def test_validate_rejects_bad_costs():
    g = Multigraph(2, ((0, 1), (0, 1)))
    inst = FgcInstance(g, (True, True), (1.0, -2.0), 1, 0)
    with pytest.raises(InvalidInstanceError) as exc:
        validate_instance(inst)
    assert exc.value.code == "costs"
    inst = FgcInstance(g, (True, True), (float("inf"), 1.0), 1, 0)
    with pytest.raises(InvalidInstanceError) as exc:
        validate_instance(inst)
    assert exc.value.code == "costs"
    # finite costs whose total is beyond float range
    inst = FgcInstance(g, (True, True), (1e308, 1e308), 1, 0)
    with pytest.raises(InvalidInstanceError) as exc:
        validate_instance(inst)
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


def test_validate_accepts_one_safe_edge_when_p_is_one():
    # q demands 4 edges or 1 safe; the safe edge alone is enough
    inst = two_vertex()
    trip = FgcInstance(inst.graph, inst.safe, inst.cost, 1, 3)
    validate_instance(trip)


def test_verdict_is_truthy_only_when_feasible():
    inst = two_vertex()
    assert is_feasible(inst, {0})
    assert not is_feasible(inst, {1})
