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
# relative room for float error when a running cost sum of at most 22
# edges is compared with an incumbent's selection_cost; it only ever keeps
# a branch alive, so it can cost nodes but never the optimum
_COST_SLACK = 1e-12


@dataclass(frozen=True)
class ExactResult:
    """True optimum: no feasible selection costs less than best_cost."""

    best_selection: frozenset[int]
    best_cost: float
    nodes_explored: int


def exact_opt(inst: FgcInstance) -> ExactResult:
    """Exact minimum-cost feasible selection by branch and bound.

    Edges are branched in ascending (cost, id) order, inclusion first.
    The search state is one fused (2K,) int16 pair over the K canonical
    cuts, safe half then total half: ``deficit`` (p or p+q minus the
    chosen edges crossing the cut) and ``slack`` (every chosen or
    undecided crossing edge minus that same need).  A branch step is one
    in-place add or subtract of the edge's fused crossing row.  The
    selection is feasible once every cut has a nonpositive deficit on one
    half.  A branch dies when some cut has negative slack on both halves,
    or when the worst cut still misses k edges and even the k cheapest
    undecided edges would lift the committed cost above the incumbent
    (only by more than float error, so cost ties still reach the
    tie-break).  Cost is ``selection_cost``; ties break toward the
    lexicographically smallest sorted edge-id tuple.  Accepted candidates
    are re-verified with is_feasible_direct, keeping the search honest
    against the counter bookkeeping.
    """
    if inst.n > DEFAULT_EXHAUSTIVE_LIMIT:
        raise TooLargeError(
            f"instance too large for exact search (n={inst.n} > {DEFAULT_EXHAUSTIVE_LIMIT})"
        )
    if inst.m > DEFAULT_EDGE_LIMIT:
        raise TooLargeError(
            f"instance too large for exact search (m={inst.m} > {DEFAULT_EDGE_LIMIT})"
        )
    p, q, m = inst.p, inst.q, inst.m
    k_cuts = (1 << (inst.n - 1)) - 1

    # per-edge 0/1 rows over all canonical cuts: safe half, then total half
    masks = np.arange(1, k_cuts + 1, dtype=np.int64) << 1
    cross = np.empty((m, 2 * k_cuts), dtype=np.int16)
    for e, (u, v) in enumerate(inst.graph.edges):
        cross[e, k_cuts:] = ((masks >> u) ^ (masks >> v)) & 1
        cross[e, :k_cuts] = cross[e, k_cuts:] if inst.safe[e] else 0
    # no cut holds more than m edges, so a need above m + 1 changes nothing
    need = np.repeat(np.array([min(p, m + 1), min(p + q, m + 1)], dtype=np.int16), k_cuts)
    deficit = need.copy()
    # the potential starts as all of E
    slack = cross.sum(axis=0, dtype=np.int16) - need
    deficit_safe, deficit_total = deficit[:k_cuts], deficit[k_cuts:]
    slack_safe, slack_total = slack[:k_cuts], slack[k_cuts:]
    worst = np.empty(k_cuts, dtype=np.int16)

    order = sorted(range(m), key=lambda e: (inst.cost[e], e))
    cost = [inst.cost[e] for e in order]
    # cheapest[pos][k]: least cost of k more edges once order[:pos] is decided
    cheapest = [[math.fsum(cost[pos : pos + k]) for k in range(m - pos + 1)] for pos in range(m + 1)]

    best_cost = None
    best_ids = None
    # committed costs are running sums, so compare them with relative slack
    cutoff = math.inf
    nodes = 0
    chosen: list[int] = []

    def consider_candidate():
        nonlocal best_cost, best_ids, cutoff
        total = inst.selection_cost(chosen)
        ids = tuple(sorted(chosen))
        if best_cost is not None and (total, ids) >= (best_cost, best_ids):
            return
        if not is_feasible_direct(inst, chosen):
            raise AssertionError("counter bookkeeping accepted an infeasible selection")
        best_cost, best_ids = total, ids
        cutoff = total * (1 + _COST_SLACK)

    def search(pos: int, partial: float):
        nonlocal nodes
        nodes += 1
        # edges still missing on the worst cut
        missing = int(np.minimum(deficit_safe, deficit_total, out=worst).max())
        if missing <= 0:
            # supersets only add cost or lengthen the id tuple
            consider_candidate()
            return
        if missing > m - pos or partial + cheapest[pos][missing] > cutoff:
            return
        if np.maximum(slack_safe, slack_total, out=worst).min() < 0:
            return
        e = order[pos]
        row = cross[e]
        # include e
        chosen.append(e)
        np.subtract(deficit, row, out=deficit)
        search(pos + 1, partial + cost[pos])
        np.add(deficit, row, out=deficit)
        chosen.pop()
        # exclude e
        np.subtract(slack, row, out=slack)
        search(pos + 1, partial)
        np.add(slack, row, out=slack)

    search(0, 0.0)
    if best_ids is None:
        raise AssertionError("no feasible selection found; the instance invariant is broken")
    return ExactResult(best_selection=frozenset(best_ids), best_cost=best_cost, nodes_explored=nodes)


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
