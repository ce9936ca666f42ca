"""End-to-end acceptance checks, one per release criterion.

Each test prints a single [acceptance] PASS/FAIL line on the real stdout,
so `pytest tests/test_acceptance.py` doubles as a checklist run.
"""

import functools
import math
import random
from contextlib import contextmanager

from flexconn import (
    Cut,
    FgcInstance,
    Multigraph,
    RoundingConfig,
    all_cut_capacities,
    constraint_row,
    count_cuts_at_most,
    enumerate_cuts_below,
    exact_opt,
    inclusion_probabilities,
    is_feasible,
    is_feasible_direct,
    min_cut,
    round_once,
    separate,
    separate_bruteforce,
    solve,
    solve_relaxation,
    violation,
)
from flexconn import graph

from instances import (
    basic_lp_value,
    cycle_graph,
    gadget_f1,
    named_corpus,
    strengthening_gadget,
    two_vertex,
)


@contextmanager
def _report(capsys, number: int, description: str):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance] criterion {number}: FAIL - {description}")
        raise
    with capsys.disabled():
        print(f"[acceptance] criterion {number}: PASS - {description}")


def _random_raw_instance(rng: random.Random, n_max: int, m_max: int, p_max: int, q_max: int):
    """Connected random instance; the full edge set need not be feasible."""
    n = rng.randint(2, n_max)
    m = rng.randint(n - 1, max(n - 1, m_max))
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    for _ in range(m - (n - 1)):
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        edges.append((min(u, v), max(u, v)))
    safety = tuple(rng.random() < 0.5 for _ in range(m))
    costs = tuple(float(rng.randint(1, 10)) for _ in range(m))
    return FgcInstance(
        Multigraph(n, tuple(edges)), safety, costs, rng.randint(1, p_max), rng.randint(0, q_max)
    )


@functools.lru_cache(maxsize=1)
def _separation_corpus():
    return [
        _random_raw_instance(random.Random(1000 + i), n_max=10, m_max=18, p_max=3, q_max=4)
        for i in range(500)
    ]


def test_criterion_1_cover_rows_characterize_feasibility(capsys):
    desc = "covering rows hold at 0/1 x iff the support is feasible (500 instances)"
    with _report(capsys, 1, desc):
        for i, inst in enumerate(_separation_corpus()):
            rng = random.Random(2000 + i)
            x = tuple(rng.randint(0, 1) for _ in range(inst.m))
            support = frozenset(e for e in range(inst.m) if x[e])
            clean = not separate_bruteforce(inst, x, 0.0)
            assert clean == is_feasible_direct(inst, support).feasible, f"instance {i}"


def test_criterion_2_separation_matches_bruteforce(capsys):
    desc = "fast separation agrees with brute force and returns a maximally violated row"
    with _report(capsys, 2, desc):
        eps = 1e-7
        for i, inst in enumerate(_separation_corpus()):
            rng = random.Random(3000 + i)
            x = tuple(rng.random() for _ in range(inst.m))
            row = separate(inst, x, eps)
            rows = separate_bruteforce(inst, x, eps)
            assert (row is None) == (not rows), f"instance {i}"
            if row is not None:
                best = violation(rows[0], x)
                assert violation(row, x) >= best - 1e-9, f"instance {i}"


def test_criterion_3_lp_lower_bounds_optimum(capsys):
    desc = "LP relaxation value never exceeds the exact optimum"
    with _report(capsys, 3, desc):
        checked = 0
        for name, inst in named_corpus():
            if inst.m > 20:
                continue
            relax = solve_relaxation(inst)
            res = exact_opt(inst)
            assert relax.value <= res.best_cost + 1e-6, name
            checked += 1
        assert checked >= 5


def test_criterion_4_gadget_row_arithmetic(capsys):
    desc = "knapsack rows on the 1-safe/3-unsafe gadget evaluate exactly"
    with _report(capsys, 4, desc):
        inst = gadget_f1()  # p=2, q=4, edge 0 safe, edges 1-3 unsafe
        cut = Cut(inst.n, 0b10)  # the only nontrivial cut of the 2-vertex gadget
        ones = (1, 1, 1, 1)

        row_safe_j = constraint_row(inst, cut, {0})
        assert (row_safe_j.alpha1, row_safe_j.alpha2) == (1, 4)
        assert row_safe_j.rhs == 5
        assert row_safe_j.lhs(ones) == 3  # 3 unsafe remainder edges at alpha1=1

        row_unsafe_j = constraint_row(inst, cut, {1, 2, 3})
        assert (row_unsafe_j.alpha1, row_unsafe_j.alpha2) == (2, 1)
        assert row_unsafe_j.rhs == 6
        assert row_unsafe_j.lhs(ones) == 3  # 1 safe remainder edge at alpha1+alpha2=3

        assert violation(row_safe_j, ones) == 2
        assert violation(row_unsafe_j, ones) == 3


def test_criterion_5_rounding_defaults_succeed_first_try(capsys):
    desc = "default rounding saturates, lands feasible, and meets the 200 ln(n) cap"
    with _report(capsys, 5, desc):
        for name, inst in named_corpus():
            out = solve(inst)
            assert out.attempts_used == 1, name
            assert is_feasible_direct(inst, out.selection).feasible, name
            assert out.cost <= 200 * math.log(inst.n) * out.lp_value + 1e-9, name


def test_criterion_6_empirical_mean_cost(capsys):
    desc = "sampled cost mean sits within 5 SE of the inclusion-probability target"
    with _report(capsys, 6, desc):
        inst = two_vertex()
        cfg = RoundingConfig(scale_constant=0.5, seed=77)
        relax = solve_relaxation(inst)
        y = inclusion_probabilities(inst, relax.x, cfg)
        assert any(0 < v < 1 for v in y)  # non-saturating by construction
        target = sum(c * v for c, v in zip(inst.cost, y))
        variance = sum(c * c * v * (1 - v) for c, v in zip(inst.cost, y))
        draws = 1000
        total = 0.0
        for attempt in range(draws):
            total += inst.selection_cost(round_once(inst, relax.x, cfg, attempt))
        se = math.sqrt(variance / draws)
        assert abs(total / draws - target) <= 5 * se


def test_criterion_7_feasibility_checkers_agree(capsys):
    desc = "capacitated checker matches direct enumeration on 500 random pairs"
    with _report(capsys, 7, desc):
        for i in range(500):
            rng = random.Random(4000 + i)
            inst = _random_raw_instance(rng, n_max=12, m_max=22, p_max=3, q_max=4)
            if i % 10 == 0:
                f = inst.all_edges
            else:
                f = frozenset(e for e in range(inst.m) if rng.random() < 0.5)
            fast = is_feasible(inst, f)
            direct = is_feasible_direct(inst, f)
            assert fast.feasible == direct.feasible, f"pair {i}"


def test_criterion_8_near_min_cut_counts(capsys):
    desc = "cycle min-cut count is n(n-1)/2 and counts respect the n^(2a) bound"
    with _report(capsys, 8, desc):
        for n in range(4, 11):
            g = cycle_graph(n)
            assert count_cuts_at_most(g, [1] * n, 1.0) == n * (n - 1) // 2
        for i in range(100):
            rng = random.Random(5000 + i)
            n = rng.randint(2, 10)
            edges = [(rng.randrange(v), v) for v in range(1, n)]
            for _ in range(rng.randint(0, 12)):
                u = rng.randrange(n)
                v = rng.randrange(n - 1)
                if v >= u:
                    v += 1
                edges.append((min(u, v), max(u, v)))
            g = Multigraph(n, tuple(edges))
            for alpha in (1.0, 1.5, 2.0):
                assert count_cuts_at_most(g, [1] * g.m, alpha) <= n ** (2 * alpha), (i, alpha)


def test_criterion_9_min_cut_and_flow_enumeration(capsys, monkeypatch):
    desc = "min cut is exhaustively exact; flow-pruned enumeration matches exhaustive"
    with _report(capsys, 9, desc):
        for name, inst in named_corpus():
            if inst.n > 12:
                continue
            for caps in ([1] * inst.m, [random.Random(name).randint(1, 6) for _ in range(inst.m)]):
                _, lam = min_cut(inst.graph, caps)
                assert lam == min(c for _, c in all_cut_capacities(inst.graph, caps)), name
        for trial in range(100):
            rng = random.Random(6000 + trial)
            n = 4 + trial % 4
            edges = [(rng.randrange(v), v) for v in range(1, n)]
            for _ in range(rng.randint(2, 8)):
                u = rng.randrange(n)
                v = rng.randrange(n - 1)
                if v >= u:
                    v += 1
                edges.append((min(u, v), max(u, v)))
            g = Multigraph(n, tuple(edges))
            caps = [rng.randint(1, 4) for _ in range(g.m)]
            _, lam = min_cut(g, caps)
            threshold = (1.2 + 0.3 * (trial % 3)) * lam
            plain = enumerate_cuts_below(g, caps, threshold)
            with monkeypatch.context() as patch:  # candidates from the flow search
                patch.setattr(graph, "TABLE_LIMIT", n - 1)
                flow = enumerate_cuts_below(g, caps, threshold)
            key = [(c.side_mask, c.capacity) for c in plain]
            assert key == [(c.side_mask, c.capacity) for c in flow], trial


def test_criterion_10_knapsack_rows_strengthen_lp(capsys):
    desc = "knapsack-cover rows strictly raise the LP value on the gadget family"
    with _report(capsys, 10, desc):
        inst = strengthening_gadget()
        basic = basic_lp_value(inst)
        full = solve_relaxation(inst).value
        assert full >= basic + 1e-3
