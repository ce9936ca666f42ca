"""Randomized rounding and the Las Vegas accept loop."""

import math

import numpy as np
import pytest

from flexconn import (
    FgcInstance,
    RelaxationResult,
    RoundingConfig,
    RoundingFailedError,
    gen_random,
    inclusion_probabilities,
    is_feasible_direct,
    round_once,
    solve,
    solve_relaxation,
)

from instances import named_corpus, triangle_p1q0, two_vertex


def test_config_validation():
    with pytest.raises(ValueError):
        RoundingConfig(scale_constant=0)
    with pytest.raises(ValueError):
        RoundingConfig(max_attempts=0)
    with pytest.raises(ValueError, match="seed"):
        RoundingConfig(seed=-1)


@pytest.mark.parametrize("field", ["max_attempts", "seed"])
@pytest.mark.parametrize("bad", [1.5, 2.0, True, "3"])
def test_config_rejects_non_integer_counts(field, bad):
    # 1.5 would otherwise fail only after the LP, and True would read as 1
    with pytest.raises(ValueError, match=field):
        RoundingConfig(**{field: bad})


def test_config_refuses_a_bool_scale_constant():
    # True once read as C = 1.0, though the counts refuse it
    with pytest.raises(ValueError, match="scale_constant"):
        RoundingConfig(scale_constant=True)


@pytest.mark.parametrize("field", ["scale_constant"])
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_config_rejects_non_finite(field, bad):
    # with C = inf, C ln(n) * 0 is NaN and min(1.0, NaN) is 1.0, so every
    # x_e = 0 edge would be drawn
    with pytest.raises(ValueError):
        RoundingConfig(**{field: bad})


@pytest.mark.parametrize("bad", [np.float32(2), "2", 10**400], ids=["float32", "str", "1e400"])
def test_config_refuses_other_scale_constants(bad):
    # np.float32 was taken, "2" raised an untyped TypeError, and 10**400
    # raised OverflowError at C ln(n)
    with pytest.raises(ValueError, match="scale_constant"):
        RoundingConfig(scale_constant=bad)


def test_config_reads_numpy_integers_as_ints():
    cfg = RoundingConfig(scale_constant=np.int64(3), max_attempts=np.int64(5), seed=np.int64(3))
    assert cfg == RoundingConfig(scale_constant=3.0, max_attempts=5, seed=3)
    assert type(cfg.seed) is int and type(cfg.max_attempts) is int


def test_inclusion_probabilities_formula():
    inst = two_vertex()
    cfg = RoundingConfig()
    assert inclusion_probabilities(inst, (0.0, 1.0, 0.5), cfg) == (0.0, 1.0, 1.0)
    # n = 2: anything at least 1/(100 ln 2) saturates
    tiny = 1 / (100 * math.log(2)) / 2
    y = inclusion_probabilities(inst, (tiny, 0.0, 0.0), cfg)
    assert y[0] == pytest.approx(0.5)


@pytest.mark.parametrize("bad", [math.nan, -1.0, 1.5, True, "0.5", np.float32(0.5)])
def test_rounding_rejects_x_outside_the_box(bad):
    # min(1.0, nan) is 1.0, so a NaN x once drew every edge, and x = -1 gave
    # a negative probability; x = True read as 1 and "0.5" raised an
    # untyped TypeError
    inst = two_vertex()
    cfg = RoundingConfig()
    with pytest.raises(ValueError, match=r"x\[1\]"):
        round_once(inst, (0.5, bad, 0.5), cfg)
    relax = RelaxationResult(x=(bad,) * inst.m, value=1.0, active_rows=(), iterations=1)
    with pytest.raises(ValueError, match=r"x\[0\]"):
        solve(inst, cfg, relaxation=relax)


@pytest.mark.parametrize(
    "attempt, error",
    [(True, "bool"), ("1", "not an integer"), (1.0, "not an integer"), (-1, "nonnegative")],
)
def test_round_once_reads_attempt_as_an_integer(attempt, error):
    # True and "1" drew attempt 1's sample; numpy refused 1.0 with an
    # untyped TypeError and -1 with a message naming no argument
    inst = two_vertex()
    with pytest.raises(ValueError, match=f"attempt.*{error}"):
        round_once(inst, (0.5,) * inst.m, RoundingConfig(), attempt)


def test_inclusion_probability_saturation_threshold():
    # with n = 8 and C = 100 anything above ~0.00481 saturates
    inst = two_vertex()
    cfg = RoundingConfig()
    factor = 100 * math.log(8)
    assert factor * 0.00482 > 1
    assert factor * 0.0048 < 1


def test_zero_x_edges_stay_out_when_the_scale_overflows():
    # C ln(n) = inf made y_e = min(1, inf . 0) = min(1, nan) = 1, so every
    # edge of x_e = 0 was selected
    inst = gen_random(8, 16, 0.5, (1.0, 10.0), 2, 1, 3)
    cfg = RoundingConfig(scale_constant=1e308)
    relax = solve_relaxation(inst)
    zero = {e for e, v in enumerate(relax.x) if v == 0}
    assert zero
    y = inclusion_probabilities(inst, relax.x, cfg)
    assert all(y[e] == 0.0 for e in zero)
    assert not solve(inst, cfg, relaxation=relax).selection & zero


def test_zero_lp_value_caps_at_zero_when_the_scale_overflows():
    # C ln(n) = inf made the cap inf . 0 = nan, so a feasible draw of cost 0
    # read as above it and every attempt was rejected
    inst = gen_random(8, 16, 0.5, (0.0, 0.0), 2, 1, 3)
    out = solve(inst, RoundingConfig(scale_constant=1e308))
    assert out.lp_value == 0.0
    assert out.cost == 0.0
    assert out.attempts_used == 1


def test_round_once_extremes():
    inst = two_vertex()
    cfg = RoundingConfig(seed=5)
    assert round_once(inst, (1.0, 1.0, 1.0), cfg) == {0, 1, 2}
    assert round_once(inst, (0.0, 0.0, 0.0), cfg) == frozenset()


def test_round_once_two_vertex_lp_point_saturates():
    inst = two_vertex()
    for seed in range(10):
        f = round_once(inst, (0.0, 1.0, 1.0), RoundingConfig(seed=seed))
        assert f == {1, 2}
        assert is_feasible_direct(inst, f).feasible


def test_round_once_deterministic_per_seed_and_attempt():
    inst = two_vertex()
    cfg = RoundingConfig(scale_constant=0.3, seed=9)
    x = (0.4, 0.7, 0.6)
    assert round_once(inst, x, cfg, attempt=3) == round_once(inst, x, cfg, attempt=3)
    draws = {round_once(inst, x, cfg, attempt=k) for k in range(40)}
    assert len(draws) > 1  # substreams actually differ


def test_solve_two_vertex():
    out = solve(two_vertex())
    assert out.cost == 2.0
    assert out.selection == {1, 2}
    assert out.attempts_used == 1
    assert out.forced_set_size == 2
    assert out.lp_value == pytest.approx(2.0)


def test_solve_integral_lp_point_returns_support():
    # strengthening gadget: LP optimum is integral {s1, s2}
    for name, inst in named_corpus():
        relax = solve_relaxation(inst)
        if not all(v in (0.0, 1.0) for v in relax.x):
            continue
        out = solve(inst, relaxation=relax)
        assert out.selection == {e for e in range(inst.m) if relax.x[e] == 1.0}, name
        assert out.cost == pytest.approx(relax.value), name


def test_solve_triangle_takes_every_edge():
    out = solve(triangle_p1q0())
    assert out.selection == {0, 1, 2}
    assert out.cost == 3.0
    assert out.cost <= 2 * 100 * math.log(3) * out.lp_value + 1e-9


def test_solve_deterministic():
    a = solve(two_vertex(), RoundingConfig(seed=123))
    b = solve(two_vertex(), RoundingConfig(seed=123))
    assert a == b


def test_solve_cost_bound_holds_on_corpus():
    for name, inst in named_corpus():
        out = solve(inst)
        bound = 2 * 100 * math.log(inst.n) * out.lp_value
        assert out.cost <= bound + 1e-9, name
        assert is_feasible_direct(inst, out.selection).feasible, name


def test_solve_cost_cap_is_scale_free():
    # at costs near 1e-11 an absolute slack of 1e-9 would accept the first
    # draw at 1.066 times the cap 2 C ln(n) LP; the 17th draw is the first
    # within it
    base = gen_random(6, 10, 0.5, (1, 10), 1, 1, 14)
    inst = FgcInstance(base.graph, base.safe, tuple(c * 1e-12 for c in base.cost), base.p, base.q)
    cfg = RoundingConfig(scale_constant=0.5, max_attempts=200, seed=30)
    out = solve(inst, cfg)
    cap = 2 * cfg.scale_constant * math.log(inst.n) * out.lp_value
    first = round_once(inst, out.relaxation.x, cfg, 0)
    assert is_feasible_direct(inst, first).feasible
    assert inst.selection_cost(first) > 1.05 * cap
    assert out.attempts_used == 17
    assert out.cost <= cap


def test_solve_saturation_gives_first_attempt_success():
    for name, inst in named_corpus():
        relax = solve_relaxation(inst)
        support_min = min((v for v in relax.x if v > 0), default=1.0)
        if support_min >= 1 / (100 * math.log(inst.n)):
            out = solve(inst, relaxation=relax)
            assert out.attempts_used == 1, name
            assert out.selection == {e for e in range(inst.m) if relax.x[e] > 0}, name


def test_solve_raises_with_diagnostics_when_every_attempt_fails():
    # C tiny: y barely includes anything, so samples stay infeasible
    inst = two_vertex()
    cfg = RoundingConfig(scale_constant=1e-6, max_attempts=3, seed=1)
    with pytest.raises(RoundingFailedError) as exc:
        solve(inst, cfg)
    assert len(exc.value.attempts) == 3
    assert exc.value.attempts[0]["feasible"] is False


def test_solve_expected_cost_matches_inclusion_probabilities():
    # non-saturating C: mean sampled cost tracks sum of c_e y_e
    inst = two_vertex()
    cfg = RoundingConfig(scale_constant=0.5, seed=2024)
    relax = solve_relaxation(inst)
    y = inclusion_probabilities(inst, relax.x, cfg)
    mean_target = sum(c * p for c, p in zip(inst.cost, y))
    variance = sum(c * c * p * (1 - p) for c, p in zip(inst.cost, y))
    draws = 1000
    total = 0.0
    for attempt in range(draws):
        total += inst.selection_cost(round_once(inst, relax.x, cfg, attempt))
    se = math.sqrt(variance / draws)
    assert abs(total / draws - mean_target) <= 5 * se
