"""Brute-force baselines that verify the other modules at desk scale:
exact optimum by branch and bound, full-scan separation, and exact
near-minimum-cut counting.  Everything here trades speed for being an
independent implementation path: exact_opt builds its own crossing table
and shares no cut-scan code with the solver's graph module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from operator import and_, or_
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

    Edges are branched in ascending (cost, id) order, inclusion first,
    from a reverse-delete incumbent: every edge, then each edge in
    descending (cost, id) order dropped if the rest stays feasible.
    The search state is a pair of saturating count planes, Python-int
    bitsets over the K canonical cuts (bit i is the cut of mask
    (i+1) << 1): ``cs[j]`` holds the cuts crossed by at least j chosen
    safe edges (j = 0..Ts, Ts = min(p, m+1)) and ``ct[j]`` those crossed
    by at least j chosen edges (j = 0..Tt, Tt = min(p+q, m+1)).
    Including edge e passes down ``cs[j] | (cs[j-1] & cross_s[e])`` and
    its total twin; excluding it passes the parent's planes unchanged.
    The selection is feasible once ``cs[Ts] | ct[Tt]`` holds every cut.
    A cut still misses k edges when it is in neither ``cs[Ts-k+1]`` nor
    ``ct[Tt-k+1]``.  A branch dies when some cut cannot be repaired even
    by every undecided edge (the chosen planes against suffix planes of
    the undecided edges), or when the worst cut still misses k edges and
    even the k cheapest undecided edges would lift the committed cost
    above the incumbent (only by more than float error, so cost ties
    still reach the tie-break).  Cost is ``selection_cost``; ties break
    toward the lexicographically smallest sorted edge-id tuple.  Accepted
    candidates, the incumbent included, are re-verified with
    is_feasible_direct, keeping the search honest against the plane
    bookkeeping.
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
    every_cut = (1 << k_cuts) - 1

    # per-edge crossing bitsets over all canonical cuts
    masks = np.arange(1, k_cuts + 1, dtype=np.int64) << 1
    cross_t = []
    for u, v in inst.graph.edges:
        row = (((masks >> u) ^ (masks >> v)) & 1).astype(np.uint8)
        cross_t.append(int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little"))
    cross_s = [row if safe else 0 for row, safe in zip(cross_t, inst.safe)]
    # no cut holds more than m edges, so a need above m + 1 changes nothing
    need_s, need_t = min(p, m + 1), min(p + q, m + 1)

    def add(planes, row):
        # plane j gains the cuts of plane j - 1 that the new edge crosses
        return (every_cut, *map(or_, planes[1:], map(and_, planes, repeat(row))))

    order = sorted(range(m), key=lambda e: (inst.cost[e], e))
    cost = [inst.cost[e] for e in order]
    # cheapest[pos][k]: least cost of k more edges once order[:pos] is decided
    cheapest = [[math.fsum(cost[pos : pos + k]) for k in range(m - pos + 1)] for pos in range(m + 1)]
    none_s = (every_cut,) + (0,) * need_s
    none_t = (every_cut,) + (0,) * need_t
    # count planes of the undecided edges order[pos:], highest plane first,
    # so zip(cs, undecided_s[pos]) pairs j chosen with need_s - j undecided
    undecided_s = [none_s]
    undecided_t = [none_t]
    for e in reversed(order):
        undecided_s.append(add(undecided_s[-1], cross_s[e]))
        undecided_t.append(add(undecided_t[-1], cross_t[e]))
    undecided_s = [planes[::-1] for planes in reversed(undecided_s)]
    undecided_t = [planes[::-1] for planes in reversed(undecided_t)]

    def satisfied(edges) -> bool:
        cs, ct = none_s, none_t
        for e in edges:
            cs, ct = add(cs, cross_s[e]), add(ct, cross_t[e])
        return cs[need_s] | ct[need_t] == every_cut

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
            raise AssertionError("plane bookkeeping accepted an infeasible selection")
        best_cost, best_ids = total, ids
        cutoff = total * (1 + _COST_SLACK)

    def search(pos: int, partial: float, cs: tuple, ct: tuple):
        nonlocal nodes
        nodes += 1
        # edges still missing on the worst cut
        missing = 0
        while missing < need_s and cs[need_s - missing] | ct[need_t - missing] != every_cut:
            missing += 1
        if missing == 0:
            # supersets only add cost or lengthen the id tuple
            consider_candidate()
            return
        if missing > m - pos or partial + cheapest[pos][missing] > cutoff:
            return
        # cuts that reach their need on one side if every undecided edge is added
        reach = reduce(or_, map(and_, cs, undecided_s[pos])) | reduce(
            or_, map(and_, ct, undecided_t[pos])
        )
        if reach != every_cut:
            return
        e = order[pos]
        # include e
        chosen.append(e)
        row = cross_s[e]
        search(pos + 1, partial + cost[pos], add(cs, row) if row else cs, add(ct, cross_t[e]))
        chosen.pop()
        # exclude e
        search(pos + 1, partial, cs, ct)

    if satisfied(order):
        # reverse delete, most expensive edge first, gives the search a
        # feasible incumbent and so a finite cutoff from the root
        chosen.extend(order)
        for e in reversed(order):
            rest = [f for f in chosen if f != e]
            if satisfied(rest):
                chosen[:] = rest
        consider_candidate()
        chosen.clear()
    search(0, 0.0, none_s, none_t)
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
