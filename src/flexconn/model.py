"""Flexible-connectivity instance model and the solver's feasibility check.

An instance asks for a cheap edge set F that keeps the graph p-edge-connected
after any q unsafe edges of F fail.  Cut characterization: F works iff every
nontrivial cut contains at least p safe F-edges or at least p+q F-edges total.
is_feasible gives safe F-edges weight p+q and unsafe ones weight p, compares
the minimum cut against p(p+q), and then only has to inspect near-minimum
cuts.  The reference that tests the characterization on every bipartition,
is_feasible_direct, lives with the other references in exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidInstanceError
from .graph import Cut, Multigraph, check_int, check_number, enumerate_cuts_below, min_cut


@dataclass(frozen=True)
class FgcInstance:
    """(p,q)-FGC instance: labeled multigraph, costs, connectivity targets.

    ``safe[eid]`` and ``cost[eid]`` are indexed by dense edge id.  Fields
    are checked when built: p >= 1 and q >= 0 are ints, numpy integers
    read as ints (else InvalidInstanceError "params"); safety flags are
    bools or numpy bools (else ValueError); costs are read by check_number
    and stored as floats with a total in float range (else "costs").
    validate_instance adds only the full edge set's feasibility.
    """

    graph: Multigraph
    safe: tuple[bool, ...]
    cost: tuple[float, ...]
    p: int
    q: int

    def __post_init__(self):
        try:
            p, q = check_int(self.p, "p"), check_int(self.q, "q")
        except ValueError as exc:
            raise InvalidInstanceError("params", str(exc)) from None
        if p < 1:
            raise InvalidInstanceError("params", f"p must be at least 1, got {p}")
        if q < 0:
            raise InvalidInstanceError("params", f"q must be nonnegative, got {q}")
        m = self.graph.m
        safe, cost = tuple(self.safe), list(self.cost)
        if len(safe) != m:
            raise ValueError(f"expected {m} safety flags, got {len(safe)}")
        if len(cost) != m:
            raise ValueError(f"expected {m} costs, got {len(cost)}")
        if not set(map(type, safe)) <= {bool, np.bool_}:  # numpy bools read as bools
            raise ValueError("safety flags must be bools")
        try:  # plain in-range floats skip the call
            for e, c in enumerate(cost):
                if type(c) is not float or not 0 <= c < math.inf:
                    cost[e] = float(check_number(c, f"cost of edge {e}"))
            math.fsum(cost)  # selection_cost's sum, which raises when it leaves float range
        except ValueError as exc:
            raise InvalidInstanceError("costs", str(exc)) from None
        except OverflowError:  # from float() or fsum
            message = "a cost or the total cost is beyond float range"
            raise InvalidInstanceError("costs", message) from None
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "safe", tuple(map(bool, safe)))
        object.__setattr__(self, "cost", tuple(cost))

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

    ``witness`` is None exactly when the selection is feasible; otherwise
    it names a cut with fewer than p safe and fewer than p+q selected
    edges.  Every verdict is exact.
    """

    witness: Cut | None

    @property
    def feasible(self) -> bool:
        return self.witness is None

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
    out = frozenset(e if type(e) is int else check_int(e, "edge id") for e in f)
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
    past graph's crossover from the float cut table its scan's candidates
    come from flow-pruned branching on the integer capacities.
    """
    f = check_selection(inst, f)
    p, q = inst.p, inst.q
    need = p * (p + q)
    caps = capacities(inst, [1 if e in f else 0 for e in range(inst.m)])

    witness, lam = min_cut(inst.graph, caps)
    if lam < need:
        # capacity p*t + q*s below p(p+q) forces s < p and t < p+q
        return FeasibilityVerdict(witness)

    bound = p * (p + q - 1) + q * (p - 1)
    if lam > bound:
        return FeasibilityVerdict(None)
    # integer capacities: cap <= bound is cap < bound + 1, exactly at any size
    cuts = enumerate_cuts_below(inst.graph, caps, bound + 1)
    for r in cuts:
        s, t = cut_tallies(inst, f, r.side_mask)
        if s < p and t < p + q:
            return FeasibilityVerdict(r)
    return FeasibilityVerdict(None)


def validate_instance(inst: FgcInstance) -> None:
    """InvalidInstanceError("infeasible-edges") unless the full edge set is
    feasible; Multigraph and FgcInstance check the rest when built."""
    verdict = is_feasible(inst, inst.all_edges)
    if not verdict:
        raise infeasible_edges_error(inst, verdict.witness)


def infeasible_edges_error(inst: FgcInstance, witness: Cut) -> InvalidInstanceError:
    """The error for an instance whose full edge set leaves cut ``witness`` short."""
    return InvalidInstanceError(
        "infeasible-edges",
        f"the full edge set is infeasible for p={inst.p}, q={inst.q}: "
        f"cut {sorted(witness.vertices)} has too few safe and total edges",
    )
