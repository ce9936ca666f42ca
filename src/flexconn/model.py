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
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InvalidInstanceError, check_size
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
    characterization) or the capacitated route, chosen by size alone:
    "exhaustive" at n <= DEFAULT_EXHAUSTIVE_LIMIT, "flow" above it.  It
    does not name the cut scan's candidate source: below the limit, sums
    the float cut table cannot hold go to the flow search too.  Every
    verdict is exact.
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
    """Validate an edge selection: integer ids in range, returned as a
    frozenset.  A float or bool id is refused, not truncated or read as 0/1."""
    ids = tuple(f)
    try:
        out = frozenset(map(operator.index, ids))
    except TypeError as exc:
        raise ValueError(f"edge ids must be integers: {exc}") from None
    if bool in map(type, ids):  # True is an int but must not read as edge 1
        raise ValueError("edge ids must be integers, not bools")
    m = inst.m
    for e in out:
        if not 0 <= e < m:
            raise ValueError(f"edge id {e} out of range 0..{m - 1}")
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
    and exact_opt are checked against.  F's endpoints are read once, safe
    edges apart from unsafe ones, and a cut already crossed by p safe
    edges is not counted further.
    """
    check_size("the direct check", inst.n, DEFAULT_EXHAUSTIVE_LIMIT)
    f = check_selection(inst, f)
    p, q = inst.p, inst.q
    edges = inst.graph.edges
    safe_ends = [edges[e] for e in f if inst.safe[e]]
    unsafe_ends = [edges[e] for e in f if not inst.safe[e]]
    for mask in canonical_masks(inst.n):
        s = 0
        for u, v in safe_ends:
            if ((mask >> u) ^ (mask >> v)) & 1:
                s += 1
        if s >= p:
            continue
        t = s
        for u, v in unsafe_ends:
            if ((mask >> u) ^ (mask >> v)) & 1:
                t += 1
        if t < p + q:
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
    (always so when q <= 1 or p = 1).  enumerate_cuts_below lists those
    cuts exactly at every n, so the verdict is deterministic and exact;
    above DEFAULT_EXHAUSTIVE_LIMIT vertices its scan's candidates come
    from flow-pruned branching on the integer capacities.
    """
    f = check_selection(inst, f)
    p, q = inst.p, inst.q
    need = p * (p + q)
    caps = capacities(inst, [1 if e in f else 0 for e in range(inst.m)])
    mode = "exhaustive" if inst.n <= DEFAULT_EXHAUSTIVE_LIMIT else "flow"

    witness, lam = min_cut(inst.graph, caps)
    if lam < need:
        # capacity p*t + q*s below p(p+q) forces s < p and t < p+q
        return FeasibilityVerdict(False, witness, mode)

    bound = p * (p + q - 1) + q * (p - 1)
    if lam > bound:
        return FeasibilityVerdict(True, None, mode)
    # integer capacities: cap <= bound is cap < bound + 1, exactly at any size
    cuts = enumerate_cuts_below(inst.graph, caps, bound + 1)
    for r in cuts:
        s, t = cut_tallies(inst, f, r.side_mask)
        if s < p and t < p + q:
            return FeasibilityVerdict(False, r, mode)
    return FeasibilityVerdict(True, None, mode)


def validate_instance(inst: FgcInstance) -> None:
    """Raise InvalidInstanceError unless the instance satisfies every invariant.

    Checks, with distinct error codes: parameter ranges ("params"),
    nonnegative finite costs with a finite total ("costs"), both by
    validate_fields, and feasibility of the full edge set
    ("infeasible-edges").  Graph structure (connectivity, no self-loops)
    is already enforced by the Multigraph constructor.
    """
    validate_fields(inst)
    verdict = is_feasible(inst, inst.all_edges)
    if not verdict:
        raise infeasible_edges_error(inst, verdict.witness)


def validate_fields(inst: FgcInstance) -> None:
    """validate_instance's checks of p, q and the costs, without the
    feasibility check, for a caller that already holds the verdict."""
    for name in ("p", "q"):  # True is an int but must not read as 1
        value = getattr(inst, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise InvalidInstanceError("params", f"{name} must be an integer, got {value!r}")
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


def infeasible_edges_error(inst: FgcInstance, witness: Cut) -> InvalidInstanceError:
    """The error for an instance whose full edge set leaves cut ``witness`` short."""
    return InvalidInstanceError(
        "infeasible-edges",
        f"the full edge set is infeasible for p={inst.p}, q={inst.q}: "
        f"cut {sorted(witness.vertices)} has too few safe and total edges",
    )
