"""Brute-force baselines that verify the other modules at desk scale:
exact optimum by branch and bound, full-scan separation, and exact
near-minimum-cut counting.  Everything here trades speed for being an
independent implementation path: exact_opt builds its own crossing table
and shares no cut-scan code with the solver's graph module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import TooLargeError
from .graph import DEFAULT_EXHAUSTIVE_LIMIT, Cut, Multigraph, canonical_masks, check_capacities
from .model import FgcInstance, is_feasible_direct
from .relaxation import ConstraintRow, candidate_j_sets, constraint_row, violation

DEFAULT_EDGE_LIMIT = 22
DEFAULT_VERTEX_LIMIT = 12


@dataclass(frozen=True)
class ExactResult:
    """True optimum: no feasible selection costs less than best_cost."""

    best_selection: frozenset[int]
    best_cost: float
    nodes_explored: int


def exact_opt(inst: FgcInstance) -> ExactResult:
    """Exact minimum-cost feasible selection by branch and bound.

    Edges are branched in ascending (cost, id) order, inclusion first.
    A branch dies when its committed cost exceeds the incumbent or when
    some cut cannot reach p safe or p+q total edges even with every
    undecided edge added.  Cost ties break toward the lexicographically
    smallest sorted edge-id tuple.  Accepted candidates are re-verified
    with is_feasible_direct, keeping the search honest against the
    counter bookkeeping.
    """
    if inst.m > DEFAULT_EDGE_LIMIT:
        raise TooLargeError(
            f"instance too large for exact search (m={inst.m} > {DEFAULT_EDGE_LIMIT})"
        )
    p, q = inst.p, inst.q
    need_total = p + q

    # per-edge 0/1 rows over all canonical cuts
    masks = np.arange(1, 1 << (inst.n - 1), dtype=np.int64) << 1
    u, v = np.array(inst.graph.edges, dtype=np.int64).T[:, :, None]
    cross_total = (((masks >> u) ^ (masks >> v)) & 1).astype(np.int16)
    cross_safe = cross_total * np.array(inst.safe, dtype=np.int16)[:, None]

    order = sorted(range(inst.m), key=lambda e: (inst.cost[e], e))
    chosen_safe = np.zeros_like(cross_total[0])
    chosen_total = np.zeros_like(cross_total[0])
    # potential = chosen plus every undecided edge; starts as all of E
    pot_safe = cross_safe.sum(axis=0, dtype=np.int16)
    pot_total = cross_total.sum(axis=0, dtype=np.int16)

    best_cost = None
    best_ids = None
    best_set = None
    nodes = 0
    chosen: list[int] = []
    partial_cost = 0.0

    def satisfied() -> bool:
        return bool(np.all((chosen_safe >= p) | (chosen_total >= need_total)))

    def repairable() -> bool:
        return not np.any((pot_safe < p) & (pot_total < need_total))

    def consider_candidate():
        nonlocal best_cost, best_ids, best_set
        ids = tuple(sorted(chosen))
        if best_cost is not None and (
            partial_cost > best_cost or (partial_cost == best_cost and ids >= best_ids)
        ):
            return
        if not is_feasible_direct(inst, chosen):
            raise AssertionError("counter bookkeeping accepted an infeasible selection")
        best_cost = partial_cost
        best_ids = ids
        best_set = frozenset(chosen)

    def search(pos: int):
        nonlocal nodes, partial_cost, chosen_safe, chosen_total, pot_safe, pot_total
        nodes += 1
        if best_cost is not None and partial_cost > best_cost:
            return
        if satisfied():
            # supersets only add cost or lengthen the id tuple
            consider_candidate()
            return
        if pos == inst.m or not repairable():
            return
        e = order[pos]
        # include e
        chosen.append(e)
        partial_cost += inst.cost[e]
        chosen_safe += cross_safe[e]
        chosen_total += cross_total[e]
        search(pos + 1)
        chosen_safe -= cross_safe[e]
        chosen_total -= cross_total[e]
        partial_cost -= inst.cost[e]
        chosen.pop()
        # exclude e
        pot_safe -= cross_safe[e]
        pot_total -= cross_total[e]
        search(pos + 1)
        pot_safe += cross_safe[e]
        pot_total += cross_total[e]

    search(0)
    if best_set is None:
        raise AssertionError("no feasible selection found; the instance invariant is broken")
    return ExactResult(best_selection=best_set, best_cost=best_cost, nodes_explored=nodes)


def separate_bruteforce(inst: FgcInstance, x: Sequence, eps: float = 0.0) -> list[ConstraintRow]:
    """Every covering row violated by more than eps, by scanning all
    2^(n-1) - 1 cuts and their full candidate families.

    Sorted by violation descending; ties by cut mask then the sorted J ids,
    so the order is deterministic.  A plain per-mask loop on purpose: it is
    the reference that criterion 2 checks ``separate`` against.
    """
    if inst.n > DEFAULT_VERTEX_LIMIT:
        raise TooLargeError(
            f"instance too large for brute-force separation (n={inst.n} > {DEFAULT_VERTEX_LIMIT})"
        )
    if len(x) != inst.m:
        raise ValueError(f"expected {inst.m} coordinates, got {len(x)}")
    hits = []
    for mask in canonical_masks(inst.n):
        r = Cut(inst.n, mask)
        for _, _, j in candidate_j_sets(inst, r, x):
            row = constraint_row(inst, r, j)
            v = violation(row, x)
            if v > eps:
                hits.append((row, v))
    hits.sort(key=lambda item: (-item[1], item[0].cut.side_mask, sorted(item[0].j_edges)))
    return [row for row, _ in hits]


def all_cut_capacities(g: Multigraph, caps: Sequence) -> list[tuple[int, float]]:
    """(side_mask, capacity) for every canonical nontrivial cut, by direct
    scan; the oracle other modules' cut routines are checked against, so
    it stays a plain loop that shares no code with the solver's cut table."""
    check_capacities(caps, g.m)
    out = []
    for mask in canonical_masks(g.n):
        total = 0
        for e, (u, v) in enumerate(g.edges):
            if ((mask >> u) ^ (mask >> v)) & 1:
                total += caps[e]
        out.append((mask, total))
    return out


def count_cuts_at_most(g: Multigraph, caps: Sequence, factor: float) -> int:
    """Exact number of canonical nontrivial cuts with capacity at most
    factor times the minimum, by exhaustive scan."""
    if g.n > DEFAULT_EXHAUSTIVE_LIMIT:
        raise TooLargeError(
            f"instance too large for exact counting (n={g.n} > {DEFAULT_EXHAUSTIVE_LIMIT})"
        )
    if not 0 < factor < math.inf:  # also rejects NaN
        raise ValueError(f"factor must be finite and positive, got {factor}")
    table = all_cut_capacities(g, caps)
    lam = min(cap for _, cap in table)
    bound = factor * lam * (1 + 1e-9)
    return sum(1 for _, cap in table if cap <= bound)
