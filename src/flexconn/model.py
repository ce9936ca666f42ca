"""Flexible-connectivity instance model and both feasibility checkers.

An instance asks for a cheap edge set F that keeps the graph p-edge-connected
after any q unsafe edges of F fail.  Cut characterization: F works iff every
nontrivial cut contains at least p safe F-edges or at least p+q F-edges total.
The direct checker tests that on every bipartition; the capacitated checker
gives safe F-edges weight p+q and unsafe ones weight p, compares the minimum
cut against p(p+q), and then only has to inspect near-minimum cuts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InvalidInstanceError, TooLargeError
from .graph import (
    DEFAULT_EXHAUSTIVE_LIMIT,
    Cut,
    Multigraph,
    canonical_masks,
    enumerate_cuts_below,
    min_cut,
)


@dataclass(frozen=True)
class FgcInstance:
    """(p,q)-FGC instance: labeled multigraph, costs, connectivity targets.

    ``safe[eid]`` and ``cost[eid]`` are indexed by dense edge id.  Parameter
    and cost ranges are checked by validate_instance, not here, so that a
    malformed instance can still be constructed and diagnosed.
    """

    graph: Multigraph
    safe: tuple[bool, ...]
    cost: tuple[float, ...]
    p: int
    q: int

    def __post_init__(self):
        object.__setattr__(self, "safe", tuple(bool(s) for s in self.safe))
        object.__setattr__(self, "cost", tuple(float(c) for c in self.cost))
        if len(self.safe) != self.graph.m:
            raise ValueError(f"expected {self.graph.m} safety flags, got {len(self.safe)}")
        if len(self.cost) != self.graph.m:
            raise ValueError(f"expected {self.graph.m} costs, got {len(self.cost)}")

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.graph.m

    @property
    def all_edges(self) -> frozenset[int]:
        return frozenset(range(self.m))

    def selection_cost(self, f: Iterable[int]) -> float:
        """Correctly rounded sum of the costs of f, whatever its order."""
        return math.fsum(self.cost[e] for e in f)


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Result of a feasibility check.

    ``witness`` is present exactly when infeasible and names a cut with
    fewer than p safe and fewer than p+q selected edges.  ``mode`` records
    which checking route produced the verdict: "direct" (exhaustive cut
    characterization) or the capacitated route with "exhaustive" or
    "contraction" enumeration.  Contraction-mode "feasible" verdicts are
    Monte Carlo with one-sided error at most 1e-9.
    """

    feasible: bool
    witness: Cut | None
    mode: str

    def __bool__(self) -> bool:
        return self.feasible


def capacities(inst: FgcInstance, x: Sequence) -> list:
    """Per-edge capacities u_x(e) = (p + q.[e safe]) . x_e."""
    if len(x) != inst.m:
        raise ValueError(f"expected {inst.m} coordinates, got {len(x)}")
    p, q = inst.p, inst.q
    return [(p + q if inst.safe[e] else p) * x[e] for e in range(inst.m)]


def check_selection(inst: FgcInstance, f: Iterable[int]) -> frozenset[int]:
    """Validate an edge selection: ids in range, returned as a frozenset."""
    out = frozenset(int(e) for e in f)
    for e in out:
        if not 0 <= e < inst.m:
            raise ValueError(f"edge id {e} out of range 0..{inst.m - 1}")
    return out


def cut_tallies(inst: FgcInstance, f: Iterable[int], side_mask: int) -> tuple[int, int]:
    """(safe count, total count) of selected edges crossing the cut."""
    edges = inst.graph.edges
    s = t = 0
    for e in f:
        u, v = edges[e]
        if ((side_mask >> u) ^ (side_mask >> v)) & 1:
            t += 1
            if inst.safe[e]:
                s += 1
    return s, t


def is_feasible_direct(inst: FgcInstance, f: Iterable[int]) -> FeasibilityVerdict:
    """Exhaustive feasibility check over every nontrivial cut.

    The witness, when infeasible, is the first violated cut in canonical
    iteration order.  Deliberately a plain per-mask loop that shares no
    code with the solver's cut table: it is the reference that is_feasible
    and exact_opt are checked against.
    """
    if inst.n > DEFAULT_EXHAUSTIVE_LIMIT:
        raise TooLargeError(
            f"instance too large for the direct check (n={inst.n} > {DEFAULT_EXHAUSTIVE_LIMIT})"
        )
    f = check_selection(inst, f)
    p, q = inst.p, inst.q
    for mask in canonical_masks(inst.n):
        s, t = cut_tallies(inst, f, mask)
        if s < p and t < p + q:
            return FeasibilityVerdict(False, Cut(inst.n, mask), "direct")
    return FeasibilityVerdict(True, None, "direct")


def is_feasible(inst: FgcInstance, f: Iterable[int]) -> FeasibilityVerdict:
    """Capacitated feasibility check without full bipartition iteration.

    Capacities are those of F's 0/1 indicator: safe selected edges get p+q,
    unsafe ones p, everything else 0.  A selection is feasible only if the
    minimum cut reaches p(p+q); when it does, any still-violating cut has
    capacity at most p(p+q-1) + q(p-1) (from safe count <= p-1 and total
    count <= p+q-1), so only cuts up to that bound need testing against
    the characterization, and none exist when the minimum cut exceeds it
    (always so when q <= 1 or p = 1).  Above
    DEFAULT_EXHAUSTIVE_LIMIT vertices the enumeration runs in contraction
    mode and a "feasible" verdict is Monte Carlo with one-sided error
    at most 1e-9.
    """
    f = check_selection(inst, f)
    p, q = inst.p, inst.q
    need = p * (p + q)
    caps = capacities(inst, [1 if e in f else 0 for e in range(inst.m)])
    mode = "exhaustive" if inst.n <= DEFAULT_EXHAUSTIVE_LIMIT else "contraction"

    witness, lam = min_cut(inst.graph, caps)
    if lam < need:
        # capacity p*t + q*s below p(p+q) forces s < p and t < p+q
        return FeasibilityVerdict(False, witness, mode)

    bound = p * (p + q - 1) + q * (p - 1)
    if lam > bound:
        return FeasibilityVerdict(True, None, mode)
    # integer capacities: cap <= bound is cap < bound + 0.5
    cuts = enumerate_cuts_below(inst.graph, caps, bound + 0.5, mode, delta=1e-9)
    for r in cuts:
        s, t = cut_tallies(inst, f, r.side_mask)
        if s < p and t < p + q:
            return FeasibilityVerdict(False, r, mode)
    return FeasibilityVerdict(True, None, mode)


def validate_instance(inst: FgcInstance) -> None:
    """Raise InvalidInstanceError unless the instance satisfies every invariant.

    Checks, with distinct error codes: parameter ranges ("params"),
    nonnegative finite costs with a finite total ("costs"), and
    feasibility of the full edge set ("infeasible-edges").  Graph
    structure (connectivity, no self-loops) is already enforced by the
    Multigraph constructor.
    """
    if inst.p < 1:
        raise InvalidInstanceError("params", f"p must be at least 1, got {inst.p}")
    if inst.q < 0:
        raise InvalidInstanceError("params", f"q must be nonnegative, got {inst.q}")
    for e, c in enumerate(inst.cost):
        if not math.isfinite(c):
            raise InvalidInstanceError("costs", f"cost of edge {e} is not finite")
        if c < 0:
            raise InvalidInstanceError("costs", f"cost of edge {e} is negative")
    try:  # selection_cost's sum, which raises when it leaves float range
        math.fsum(inst.cost)
    except OverflowError:
        raise InvalidInstanceError("costs", "the total cost is beyond float range") from None
    verdict = is_feasible(inst, inst.all_edges)
    if not verdict:
        side = sorted(verdict.witness.vertices)
        raise InvalidInstanceError(
            "infeasible-edges",
            f"the full edge set is infeasible for p={inst.p}, q={inst.q}: "
            f"cut {side} has too few safe and total edges",
        )
