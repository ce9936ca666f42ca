"""Independent randomized rounding of an LP solution.

Each edge enters F independently with probability y_e = min(1, C ln(n) x_e);
a Las Vegas loop retries until the sample is feasible and within the cost
cap, so the output is always correct and only the attempt count is random.
With the default C = 100 the probabilities saturate on the LP support at
desk scale and the first attempt succeeds.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import RoundingFailedError
from .model import FgcInstance, is_feasible
from .relaxation import RelaxationResult, solve_relaxation

# Relative room on the cost cap for float error, so the cap scales with the
# costs.  The cap is a log and three products, each within one ulp, and the
# cost is correctly rounded, so the computed values sit within 3 ulps of the
# exact ones; 4 ulps covers that and lets nothing measurably above the cap in.
_CAP_SLACK = 4 * sys.float_info.epsilon


@dataclass(frozen=True)
class RoundingConfig:
    """Scaling constant C, acceptance cap, attempt budget, RNG seed.

    Accepted outcomes cost at most cost_cap_multiplier . C . ln(n) times
    the LP value; the defaults give the 200 ln(n) guarantee.
    """

    scale_constant: float = 100.0
    cost_cap_multiplier: float = 2.0
    max_attempts: int = 64
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.scale_constant < math.inf:
            raise ValueError("scale_constant must be positive and finite")
        if not 1 <= self.cost_cap_multiplier < math.inf:
            raise ValueError("cost_cap_multiplier must be finite and at least 1")
        for name in ("max_attempts", "seed"):  # True is an int but must not read as 1
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.seed < 0:  # numpy would refuse it only after the LP
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class RoundingOutcome:
    """Accepted edge set with its cost and attempt statistics.

    forced_set_size counts edges with y_e = 1, which every attempt includes.
    """

    selection: frozenset[int]
    cost: float
    attempts_used: int
    forced_set_size: int
    lp_value: float
    relaxation: RelaxationResult


def inclusion_probabilities(inst: FgcInstance, x, cfg: RoundingConfig) -> tuple[float, ...]:
    """y_e = min(1, C ln(n) x_e) per edge, and 0 where x_e = 0 even when
    C ln(n) overflows to inf (inf . 0 is nan, which min() reads as 1)."""
    if len(x) != inst.m:
        raise ValueError(f"expected {inst.m} coordinates, got {len(x)}")
    factor = cfg.scale_constant * math.log(inst.n)
    return tuple(min(1.0, factor * float(v)) if v else 0.0 for v in x)


def round_once(inst: FgcInstance, x, cfg: RoundingConfig, attempt: int = 0) -> frozenset[int]:
    """One independent rounding draw, deterministic given (seed, attempt).

    Edges with y_e = 1 are always included, edges with y_e = 0 never.
    """
    y = inclusion_probabilities(inst, x, cfg)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(attempt,)))
    draws = rng.random(inst.m)
    return frozenset(e for e in range(inst.m) if draws[e] < y[e])


def solve(
    inst: FgcInstance,
    cfg: RoundingConfig = RoundingConfig(),
    *,
    relaxation: RelaxationResult | None = None,
) -> RoundingOutcome:
    """Full pipeline: solve the LP relaxation, then round until accepted.

    An attempt is accepted when it passes is_feasible and costs at most
    cost_cap_multiplier . C . ln(n) . lp_value.  Raises RoundingFailedError
    with per-attempt diagnostics if max_attempts draws are all rejected.
    A precomputed relaxation may be passed to skip the LP phase.
    """
    relax = relaxation if relaxation is not None else solve_relaxation(inst)
    y = inclusion_probabilities(inst, relax.x, cfg)
    forced = sum(1 for v in y if v >= 1.0)
    cap = cfg.cost_cap_multiplier * cfg.scale_constant * math.log(inst.n) * float(relax.value)
    attempts = []
    for attempt in range(cfg.max_attempts):
        f = round_once(inst, relax.x, cfg, attempt)
        cost = inst.selection_cost(f)
        verdict = is_feasible(inst, f)
        within_cap = cost <= cap * (1 + _CAP_SLACK)
        if verdict and within_cap:
            return RoundingOutcome(
                selection=f,
                cost=cost,
                attempts_used=attempt + 1,
                forced_set_size=forced,
                lp_value=float(relax.value),
                relaxation=relax,
            )
        attempts.append(
            {
                "attempt": attempt,
                "cost": cost,
                "feasible": bool(verdict),
                "within_cap": within_cap,
            }
        )
    raise RoundingFailedError(
        f"all {cfg.max_attempts} rounding attempts were rejected", attempts
    )
