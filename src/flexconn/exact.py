"""Brute-force baselines that verify the other modules at desk scale:
exact optimum by branch and bound, full-scan feasibility, full-scan
separation, and exact near-minimum-cut counting.  Everything here trades
speed for being an independent implementation path: exact_opt builds its
own crossing table and shares no cut-scan code with the solver's graph
module.  The size limits are this module's own, set by the cost of the
references' loops, not by where the solver's cut scan changes method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import repeat
from operator import and_, or_
from typing import Iterable, Sequence

from .errors import check_size
from .graph import Cut, Multigraph, canonical_masks, check_capacities, check_number
from .model import FeasibilityVerdict, FgcInstance, check_selection, infeasible_edges_error
from .relaxation import ConstraintRow, candidate_j_sets, constraint_row, violation

# Largest n of the references that loop over all 2^(n-1) - 1 cuts in pure
# Python: is_feasible_direct, exact_opt, all_cut_capacities and
# count_cuts_at_most.
ORACLE_LIMIT = 20
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


def check_exact_size(inst: FgcInstance) -> None:
    """Raise TooLargeError unless exact_opt takes an instance of this size:
    n <= ORACLE_LIMIT and m <= DEFAULT_EDGE_LIMIT.  A caller
    that does other work before exact_opt calls it first."""
    check_size("exact search", inst.n, ORACLE_LIMIT)
    check_size("exact search", inst.m, DEFAULT_EDGE_LIMIT, "m")


def exact_opt(inst: FgcInstance) -> ExactResult:
    """Exact minimum-cost feasible selection by branch and bound.

    Edges are branched in ascending (cost, id) order, inclusion first,
    from a reverse-delete incumbent: every edge, then each edge in
    descending (cost, id) order dropped if the rest stays feasible.
    The search state is one tuple of complemented ("still short") count
    planes, Python-int bitsets 2K bits wide over the K canonical cuts (bit
    i is the cut of mask (i+1) << 1).  Plane j holds in its low half the
    cuts crossed by fewer than j - d chosen safe edges and in its high half
    those crossed by fewer than j chosen edges, for j = 0..Tt with
    Ts = min(p, m+1), Tt = min(p+q, m+1) and d = Tt - Ts, so both halves
    reach their need at plane Tt.  A plane is met when no cut is short in
    both halves, ``not x & x >> K``.  Including edge e passes down
    ``short[j] & (short[j-1] | skip[e])``, where skip[e] holds the cuts
    that e does not count for; excluding it passes the parent's planes
    unchanged.  The selection is feasible once plane Tt is met, and the
    worst cut still misses k edges when plane Tt-k+1 is not.  A branch dies
    when some cut cannot be repaired even by every undecided edge (the
    chosen planes against unshifted planes of the undecided edges; tested
    only below an exclusion, as including an edge leaves the chosen and
    undecided edges together unchanged), or
    when the worst cut still misses k edges and even the k cheapest
    undecided edges would lift the committed cost above the incumbent
    (only by more than float error, so cost ties still reach the
    tie-break).  The incumbent's test of each edge is one such repair test
    of the prefix planes of the cheaper edges against the planes of the
    edges kept so far.  Cost is ``selection_cost``; ties break toward the
    lexicographically smallest sorted edge-id tuple.  Once the search
    excludes an edge, it bans every later edge that the excluded one
    dominates: a parallel edge that is no safer and has a larger id or is
    dearer by more than ulp(total cost).  Swapping the dominated edge for
    the dominating one keeps a selection feasible and makes it no worse in
    (cost, ids), so no optimum holds a banned edge and neither the optimum
    nor its tie-break moves (the argument, float sums included, is in the
    comment at ``dominated``).  nodes_explored counts the root and every
    inclusion and exclusion child the search reaches; a chain of
    exclusions is walked in one loop, and a banned edge is passed over
    without a node.  Accepted candidates, the incumbent included, are
    re-verified with is_feasible_direct, keeping the search honest against
    the plane bookkeeping.  Raises TooLargeError past check_exact_size's
    limits, and InvalidInstanceError("infeasible-edges") when no selection
    is feasible.
    """
    check_exact_size(inst)
    p, q, m = inst.p, inst.q, inst.m
    k_cuts = (1 << (inst.n - 1)) - 1
    every_cut = (1 << k_cuts) - 1
    both_halves = every_cut << k_cuts | every_cut

    # side[v]: the cuts whose mask holds vertex v, that is bit v - 1 of
    # i + 1 for cut i: runs of 2^(v-1) zeros then ones, doubled to K bits
    side = [0]
    for v in range(1, inst.n):
        run = 1 << (v - 1)
        pattern, width = ((1 << run) - 1) << run, 2 * run
        while width <= k_cuts:
            pattern |= pattern << width
            width *= 2
        side.append(pattern >> 1)
    # skip[e]: the cuts that edge e does not count for, safe half low
    skip = []
    for (u, v), safe in zip(inst.graph.edges, inst.safe):
        cross = side[u] ^ side[v]
        skip.append(both_halves ^ (cross << k_cuts | (cross if safe else 0)))
    # no cut holds more than m edges, so a need above m + 1 changes nothing
    need_s, need_t = min(p, m + 1), min(p + q, m + 1)

    def add(planes, e):
        # short of j after e: short of j, and short of j - 1 or skipped by e
        return (0, *map(and_, planes[1:], map(or_, planes, repeat(skip[e]))))

    def short_after(chosen, others):
        # cuts short in both halves even with the edges of others added;
        # others' unshifted planes come highest first, so plane j of chosen
        # pairs with Tt - j of others
        short = reduce(and_, map(or_, chosen, others))
        return short & short >> k_cuts

    order = sorted(range(m), key=lambda e: (inst.cost[e], e))
    cost = [inst.cost[e] for e in order]
    # Dominance.  Edge e, before f in the order, dominates f when e counts
    # for every cut half that f counts for (the two are parallel, and e is
    # safe or f is not), and e has the smaller id or is cheaper than f by
    # more than ulp(total cost).  The swap: let S, the least feasible
    # (selection_cost, sorted ids), hold f but not e.  S - f + e is
    # feasible, and as cost[e] <= cost[f] its exact cost sum is no larger,
    # so neither is its correctly rounded selection_cost.  Two sums that
    # round to one float differ by at most its ulp, so if the two selection
    # costs are equal, e has the smaller id and S - f + e the smaller
    # sorted id tuple.  Either way S is not least, so no optimum holds f
    # without e, and once the search excludes e it bans f.  Tied edge
    # costs are ordered by id, so a tie always bans, and zero costs need no
    # exception: the swap uses only cost[e] <= cost[f].  Banned edges stay
    # in cheapest and undecided below, so those bounds stay valid.
    # dominated[pos]: the positions after pos whose edges order[pos] dominates
    total_ulp = math.ulp(inst.selection_cost(range(m)))
    dominated = [0] * m
    for pos, e in enumerate(order):
        for later in range(pos + 1, m):
            f = order[later]
            if skip[e] | skip[f] == skip[f] and (e < f or cost[later] - cost[pos] > total_ulp):
                dominated[pos] |= 1 << later
    # cheapest[pos][k]: least cost of k <= need_s more edges once order[:pos] is decided
    cheapest = [
        [math.fsum(cost[pos : pos + k]) for k in range(min(need_s, m - pos) + 1)]
        for pos in range(m + 1)
    ]
    # planes of no edges: shifted for the chosen edges, unshifted otherwise
    none = (0,) + (every_cut << k_cuts,) * (need_t - need_s) + (both_halves,) * need_s
    none_unshifted = (0,) + (both_halves,) * need_t

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

    # reverse delete, most expensive edge first, gives the search a
    # feasible incumbent and so a finite cutoff from the root
    prefix = [none]
    for e in order:
        prefix.append(add(prefix[-1], e))
    full = prefix[m][need_t]
    short = full & full >> k_cuts
    if short:
        # lowest bit: the first violated cut in canonical order
        raise infeasible_edges_error(inst, Cut(inst.n, (short & -short).bit_length() << 1))
    kept = none_unshifted
    for pos in reversed(range(m)):
        if short_after(prefix[pos], reversed(kept)):
            chosen.append(order[pos])
            kept = add(kept, order[pos])
    consider_candidate()
    chosen.clear()
    del prefix

    # unshifted planes of the undecided edges order[pos:], highest plane
    # first, so zip(short, undecided[pos]) pairs j chosen with Tt - j undecided
    grown = none_unshifted
    undecided = [grown[::-1]]
    for e in reversed(order):
        grown = add(grown, e)
        undecided.append(grown[::-1])
    undecided.reverse()

    def search(pos: int, partial: float, short: tuple, banned: int):
        # a node that included its parent's edge, or the root: it passes
        # the repair test as its parent did.  banned: the positions of the
        # edges that an excluded edge dominates
        nonlocal nodes
        nodes += 1
        # edges still missing on the worst cut
        missing = 0
        while missing < need_s and (plane := short[need_t - missing]) & plane >> k_cuts:
            missing += 1
        if missing == 0:
            # supersets only add cost or lengthen the id tuple
            consider_candidate()
            return
        # this node, then its chain of exclusion children: excluding an
        # edge passes the planes, and so missing, on unchanged
        repairable = True
        while True:
            # a banned edge is excluded without a node, so the repair
            # test runs again
            while banned >> pos & 1:
                pos += 1
                repairable = False
            if missing > m - pos or partial + cheapest[pos][missing] > cutoff:
                return
            if not repairable:
                # short_after(short, undecided[pos]), inlined like add below
                left = reduce(and_, map(or_, short, undecided[pos]))
                if left & left >> k_cuts:
                    return
            e = order[pos]
            # include e
            chosen.append(e)
            search(
                pos + 1,
                partial + cost[pos],
                (0, *map(and_, short[1:], map(or_, short, repeat(skip[e])))),
                banned,
            )
            chosen.pop()
            # exclude e
            banned |= dominated[pos]
            pos += 1
            nodes += 1
            repairable = False

    try:
        # the full edge set is feasible, so the root passes the repair test
        search(0, 0.0, none, 0)
    finally:
        # search's cell refers to search: clear it, or the closure and its
        # plane tables wait for the cyclic collector
        del search
    return ExactResult(best_selection=frozenset(best_ids), best_cost=best_cost, nodes_explored=nodes)


def is_feasible_direct(inst: FgcInstance, f: Iterable[int]) -> FeasibilityVerdict:
    """Exhaustive feasibility check over every nontrivial cut.

    The witness, when infeasible, is the first violated cut in canonical
    iteration order.  Deliberately a plain per-mask loop that shares no
    code with the solver's cut table: it is the reference that is_feasible
    and exact_opt are checked against.  F's endpoints are read once, safe
    edges apart from unsafe ones, and a cut already crossed by p safe
    edges is not counted further.
    """
    check_size("the direct check", inst.n, ORACLE_LIMIT)
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
            return FeasibilityVerdict(Cut(inst.n, mask))
    return FeasibilityVerdict(None)


def separate_bruteforce(inst: FgcInstance, x: Sequence, eps: float = 0.0) -> list[ConstraintRow]:
    """Every covering row violated by more than eps, by scanning all
    2^(n-1) - 1 cuts and their full candidate families.

    Sorted by violation descending; ties by cut mask then the sorted J ids,
    so the order is deterministic.  A plain per-mask loop on purpose: it is
    the reference that criterion 2 checks ``separate`` against.
    """
    check_size("brute-force separation", inst.n, DEFAULT_VERTEX_LIMIT)
    if len(x) != inst.m:
        raise ValueError(f"expected {inst.m} coordinates, got {len(x)}")
    for e, v in enumerate(x):
        if check_number(v, f"x[{e}]") > 1:
            raise ValueError(f"x[{e}] = {v} is outside [0, 1]")
    eps = check_number(eps, "eps")
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
    check_size("all cut capacities", g.n, ORACLE_LIMIT)
    caps = check_capacities(caps, g.m)
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
    check_size("exact counting", g.n, ORACLE_LIMIT)
    factor = check_number(factor, "factor")
    if not factor:
        raise ValueError("factor must be positive, got 0")
    table = all_cut_capacities(g, caps)
    lam = min(cap for _, cap in table)
    # exactly, in Fractions; a float sum past float range is inf, and then all are
    bound = Fraction(factor) * Fraction(lam) if lam < math.inf else lam
    return sum(1 for _, cap in table if cap <= bound)
