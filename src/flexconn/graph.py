"""Multigraph representation, cut arithmetic, exact global minimum cut,
and enumeration of all cuts below a capacity threshold.

All types are immutable values (a CutScan keeps only what it built at
construction) and every function here is pure and safe to call from
multiple threads.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import GraphStructureError

# Largest vertex count whose cut scan takes its candidates from every mask
# or the float cut table; past it they come from the flow search.  Only
# this module reads it: the references in exact and separation's refusal
# keep limits of their own.
TABLE_LIMIT = 20

# Cuts per crossing matrix, which bounds its size: at n = 20 up to 2^19
# cuts can fall below a threshold.
CUT_BLOCK = 4096


@dataclass(frozen=True)
class Multigraph:
    """Connected undirected multigraph without self-loops.

    Edges are identified by their dense index in ``edges``; parallel edges
    are permitted and count separately everywhere.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        try:  # a float is refused, not truncated, and a bool not read as 0 or 1
            n = check_int(self.n, "n")
            edges = tuple(  # plain ints skip the call
                (u, v) if type(u) is int and type(v) is int
                else (check_int(u, "endpoint"), check_int(v, "endpoint"))
                for u, v in self.edges
            )
        except (TypeError, ValueError) as exc:
            raise GraphStructureError(f"n and edge endpoints must be integers ({exc})") from None
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        if n < 2:
            raise GraphStructureError(f"need at least 2 vertices, got {n}")
        if len(edges) < n - 1:  # before is_connected allocates O(n)
            raise GraphStructureError("graph is not connected")
        for eid, (u, v) in enumerate(edges):
            if not (0 <= u < n and 0 <= v < n):
                raise GraphStructureError(f"edge {eid}: endpoint out of range")
            if u == v:
                raise GraphStructureError(f"edge {eid}: self-loop at vertex {u}")
        if not is_connected(n, edges):
            raise GraphStructureError("graph is not connected")

    @property
    def m(self) -> int:
        return len(self.edges)


def is_connected(n: int, edges: Iterable[tuple[int, int]]) -> bool:
    """Whether the edges connect all n vertices (union-find)."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in edges:
        parent[find(u)] = find(v)
    root = find(0)
    return all(find(v) == root for v in range(n))


@dataclass(frozen=True)
class Cut:
    """Canonical nontrivial vertex bipartition.

    ``side_mask`` is a bitset over vertices holding the side that does NOT
    contain vertex 0, so each bipartition has exactly one representation.
    Python integers are arbitrary-width, so any vertex count is supported.
    ``capacity`` is a cache filled in by enumerations and is excluded from
    equality and hashing.
    """

    n: int
    side_mask: int
    capacity: int | float | Fraction | None = field(default=None, compare=False)

    def __post_init__(self):
        if type(self.n) is not int or type(self.side_mask) is not int:  # plain ints skip the calls
            object.__setattr__(self, "n", check_int(self.n, "n"))
            object.__setattr__(self, "side_mask", check_int(self.side_mask, "side_mask"))
        if self.n < 2:  # before the shift, which a negative n would fail untyped
            raise ValueError(f"n must be at least 2, got {self.n}")
        if self.side_mask <= 0 or self.side_mask >> self.n:
            raise ValueError("cut side must be a nonempty proper vertex subset")
        if self.side_mask & 1:
            raise ValueError("canonical cut side must not contain vertex 0")

    @classmethod
    def from_vertices(cls, n: int, vertices: Iterable[int]) -> "Cut":
        n, mask = check_int(n, "n"), 0
        for v in vertices:
            v = check_int(v, "vertex")
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} out of range")
            mask |= 1 << v
        full = (1 << n) - 1
        if mask == 0 or mask == full:
            raise ValueError("cut must be nontrivial")
        if mask & 1:
            mask ^= full
        return cls(n, mask)

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(v for v in range(self.n) if (self.side_mask >> v) & 1)


def check_int(value, what: str) -> int:
    """``value`` as a Python int if it is an int or numpy integer, not a
    bool (True is an int but must not read as 1); else ValueError naming
    ``what``.  The one rule for vertex counts, endpoints, vertices, edge
    ids, p, q, counts and seeds: a float is refused, not truncated."""
    if type(value) is not bool:
        try:
            return operator.index(value)
        except TypeError:
            pass
    kind = type(value).__name__
    raise ValueError(f"{what} must be an integer: {value!r} is a {kind}, not an integer")


def check_number(value, what: str):
    """``value``, numpy numbers as int or float, if it is an int, float,
    Fraction or numpy integer, not a bool, nonnegative and finite; else
    ValueError naming ``what``.  The one rule for capacities, thresholds,
    factors and eps."""
    kind = type(value)
    if kind is not int and kind is not float:
        if kind is bool or not isinstance(value, (int, float, Fraction, np.integer)):
            raise ValueError(f"{what} must be an int, float or Fraction, not {kind.__name__}")
        if not isinstance(value, Fraction):
            value = float(value) if isinstance(value, float) else int(value)
    if not 0 <= value < math.inf:  # also refuses NaN
        raise ValueError(f"{what} is {'negative' if value < 0 else 'not finite'}")
    return value


def check_float(value, what: str) -> float:
    """``value`` read by check_number and returned as a float; else
    ValueError naming ``what``, "WHAT is out of float range" beyond it.
    The one reader of parsed costs, safe_fraction, cost_range and
    scale_constant."""
    if type(value) is float and 0 <= value < math.inf:  # parsed costs skip the call
        return value
    try:
        return float(check_number(value, what))
    except OverflowError:
        raise ValueError(f"{what} is out of float range") from None


def check_capacities(caps: Sequence, m: int) -> list:
    """The per-edge capacities as a list, each read by check_number, and
    no float beside exact values summing past float range (their Python
    sums cannot be formed); else ValueError."""
    if len(caps) != m:
        raise ValueError(f"expected {m} capacities, got {len(caps)}")
    caps = list(caps)
    for eid, c in enumerate(caps):
        kind = type(c)  # plain ints and floats in range skip the call
        if (kind is not int and kind is not float) or not 0 <= c < math.inf:
            caps[eid] = check_number(c, f"capacity of edge {eid}")
    exact = [c for c in caps if type(c) is not float]
    if len(exact) < m and sum(exact) > sys.float_info.max:
        raise ValueError("capacities mix floats with exact values summing beyond float range")
    return caps


def cut_edges(g: Multigraph, r: Cut) -> frozenset[int]:
    """Edge ids with exactly one endpoint on the cut side."""
    if r.n != g.n:
        raise ValueError("cut and graph have different vertex counts")
    mask = r.side_mask
    return frozenset(
        eid for eid, (u, v) in enumerate(g.edges) if ((mask >> u) ^ (mask >> v)) & 1
    )


def crossing_matrix(g: Multigraph, masks: Sequence[int]) -> np.ndarray:
    """Boolean masks x edges matrix; entry (i, e) is whether edge e crosses
    the cut with side mask masks[i].

    Side masks are unpacked from their bytes, so any vertex count works
    (shifting an int64 mask past bit 62 would give wrong crossings).
    """
    width = (g.n + 7) // 8
    raw = b"".join(mask.to_bytes(width, "little") for mask in masks)
    bits = np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), width)
    side = np.unpackbits(bits, axis=1, bitorder="little")
    u, v = np.array(g.edges, dtype=np.intp).T
    return side[:, u] != side[:, v]


def canonical_masks(n: int) -> range:
    """All canonical cut side masks in iteration order (increasing integer).

    Vertex 0 is fixed on the excluded side, giving 2^(n-1) - 1 masks: the
    even numbers from 2 to 2^n - 2.
    """
    return range(2, 1 << n, 2)


def _cut_capacity_table(g: Multigraph, weights: np.ndarray) -> np.ndarray:
    """Float capacity of every canonical cut; entry i is side mask (i+1) << 1.

    Subset doubling over vertices 1..n-1: adding vertex k to each subset S
    of 1..k-1 gives cap(S+k) = cap(S) + d(k) - 2 w(k, S).  ``into`` holds
    w(j, S) for the vertices j not yet added; it doubles the same way, and
    a vertex's row is dropped once the vertex has been added.
    """
    u, v = np.array(g.edges, dtype=np.int64).T
    w = np.zeros((g.n, g.n))
    np.add.at(w, (u, v), weights)
    w += w.T
    degree = w.sum(axis=1)
    caps = np.zeros(1)
    into = np.zeros((g.n - 1, 1))
    for k in range(1, g.n):
        caps = np.concatenate((caps, caps + degree[k] - 2 * into[0]))
        into = np.concatenate((into[1:], into[1:] + w[k + 1 :, k, None]), axis=1)
    return caps[1:]


def min_cut(g: Multigraph, caps: Sequence) -> tuple[Cut, float]:
    """Exact global minimum cut by repeated maximum-adjacency phases.

    Deterministic: phase start vertices and ties are resolved by smallest
    index. Works for any ordered numeric capacity type (int, float,
    Fraction); the returned value has the promoted type of the inputs.

    Each pick is one pass over the waiting vertices (ascending), which
    adds the picked vertex's weights to their scores and keeps the first
    strict maximum as the next pick.
    """
    caps = check_capacities(caps, g.m)
    n = g.n
    weight = [[0] * n for _ in range(n)]
    for eid, (u, v) in enumerate(g.edges):
        weight[u][v] += caps[eid]
        weight[v][u] += caps[eid]

    masks = [1 << v for v in range(n)]
    active = list(range(n))
    best_value = None
    best_mask = None

    while len(active) > 1:
        start = active[0]
        score = weight[start][:]
        rest = active[1:]
        # most tightly connected next vertex, smallest index on ties
        nxt = max(rest, key=score.__getitem__)
        prev = last = start
        while True:
            rest.remove(nxt)
            prev, last = last, nxt
            if not rest:
                break
            row = weight[nxt]
            top = -1  # below every score, so the first waiting vertex is taken
            for v in rest:
                s = score[v] + row[v]
                score[v] = s
                if s > top:
                    top = s
                    nxt = v
        phase_value = score[last]
        if best_value is None or phase_value < best_value:
            best_value = phase_value
            best_mask = masks[last]
        # merge last into prev
        into, away = weight[prev], weight[last]
        for v in active:
            if v != last and v != prev:
                s = into[v] + away[v]
                into[v] = s
                weight[v][prev] = s
        masks[prev] |= masks[last]
        active.remove(last)

    full = (1 << n) - 1
    if best_mask & 1:
        best_mask ^= full
    return Cut(n, best_mask, capacity=best_value), best_value


def enumerate_cuts_below(g: Multigraph, caps: Sequence, threshold) -> list[Cut]:
    """All canonical nontrivial cuts with capacity strictly below ``threshold``.

    Exact at every n and for int, float, Fraction and mixed capacities:
    the cuts of one CutScan.blocks run, whose candidates come from
    flow-pruned branching past TABLE_LIMIT vertices, the crossover from
    the float cut table.  A cut is listed exactly when its capacity,
    summed in edge order in the capacities' own type, is strictly below
    the threshold as given.

    Results are sorted by (capacity, side_mask) and duplicate-free.
    """
    cuts = [
        Cut(g.n, mask, capacity=cap)
        for masks, values, _ in CutScan(g).blocks(caps, threshold)
        for mask, cap in zip(masks, values)
    ]
    cuts.sort(key=lambda c: (c.capacity, c.side_mask))
    return cuts


class CutScan:
    """The cut scan of one graph, prepared once and run for any number of
    capacity vectors.

    When all 2^(n-1) - 1 canonical masks fit in one CUT_BLOCK at
    construction (n <= 13 at 4096), it holds those masks and their
    crossing matrix, which no capacity changes.  CUT_BLOCK and
    TABLE_LIMIT, the largest n whose candidates come from every mask or
    the float table, are read at each scan; the stored matrix is sliced
    into blocks of the current CUT_BLOCK.
    """

    def __init__(self, g: Multigraph):
        self.g = g
        self._every: tuple[range, np.ndarray] | None = None
        if (1 << (g.n - 1)) - 1 <= CUT_BLOCK:
            masks = canonical_masks(g.n)
            self._every = masks, crossing_matrix(g, masks)

    def blocks(self, caps: Sequence, threshold) -> Iterator[tuple[list[int], list, np.ndarray]]:
        """The cuts below ``threshold``, as enumerate_cuts_below defines
        them, in blocks ``(side masks, capacities, crossing_matrix rows)`` in
        ascending mask order; each block comes from at most CUT_BLOCK
        candidate masks.

        Candidates are, past TABLE_LIMIT vertices, the masks that
        flow-pruned branching finds below the threshold; else every
        canonical mask while they fit in one block; else the masks that a
        float table of every cut's capacity puts within a rounding margin
        of the threshold, or the flow search's where the table cannot hold
        the capacities' sums; the table's fixed cost per vertex outweighs
        one block's crossing matrix at small n.  Each candidate is re-summed
        over its crossing row, in edge order as a plain running total would
        (a float sum past float range is inf), by one row-by-row numpy
        reduction over an edges x cuts table with a 0 for every edge that
        does not cross, and kept when strictly below the threshold: floats
        in float64, against the least float at or above the threshold; ints
        and Fractions as integers over their common denominator (int64 below
        a 2^63 total), against ceil(threshold * denominator), then divided
        once per kept cut (Fractions unless all are ints); floats mixed with
        exact values as objects, against the threshold.
        """
        g = self.g
        caps = check_capacities(caps, g.m)
        threshold = check_number(threshold, "threshold")
        if not threshold:
            raise ValueError("threshold must be positive, got 0")
        ceiling = float(threshold) if threshold <= sys.float_info.max else math.inf
        if ceiling < threshold:  # rounded down: the next float up is the least above it
            ceiling = math.nextafter(ceiling, math.inf)
        every = self._every
        if g.n > TABLE_LIMIT:
            every = None
            masks = _flow_shortlist(g, caps, threshold)
        elif every is None:
            masks = _table_shortlist(g, caps, threshold, ceiling)
        else:
            masks = every[0]

        kinds = set(map(type, caps))
        scale = 0  # float and mixed sums are not divided
        if kinds == {float}:
            values, cutoff = np.array(caps), ceiling
        elif float in kinds:
            values, cutoff = np.array(caps, dtype=object), threshold
        else:  # ints and Fractions as integers over their common denominator
            ints, scale = _scaled(caps)
            values = np.array(ints, dtype=np.int64 if sum(ints) < 2**63 else object)
            cutoff = math.ceil(Fraction(threshold) * scale)
        size = CUT_BLOCK
        for start in range(0, len(masks), size):
            block = masks[start : start + size]
            if every is None:
                cross = crossing_matrix(g, block)
            else:
                cross = every[1][start : start + size]
            # edges as rows and cuts as columns: numpy adds the rows in
            # order, and the zero column keeps a one-cut block from being
            # one contiguous run, which it would sum pairwise
            table = np.zeros((g.m, len(cross) + 1), dtype=values.dtype)
            np.copyto(table[:, :-1], values[:, None], where=cross.T)
            with np.errstate(over="ignore"):  # inf, as a Python float sum gives
                sums = table.sum(axis=0)[:-1]
            keep = np.flatnonzero(sums < cutoff)
            if len(keep):
                kept = sums[keep].tolist()
                if scale and kinds != {int}:
                    kept = [Fraction(s, scale) for s in kept]
                yield [block[i] for i in keep.tolist()], kept, cross[keep]


def _table_shortlist(g, caps, threshold, ceiling) -> list[int]:
    """Canonical masks whose float table capacity is within a rounding
    margin of ``ceiling``, a float at or above ``threshold``: a superset of
    those strictly below the threshold.

    The table holds capacities that are finite floats and whose sum, times
    four, is one too: its intermediates reach twice their sum, and this
    leaves room for their rounding.  Other capacities get the flow
    search's masks.
    """
    try:  # a capacity, or their sum, beyond float range raises
        weights = np.array(caps, dtype=float)
        total = math.fsum(weights)
    except OverflowError:
        total = math.inf
    if not 4 * total < math.inf:
        return _flow_shortlist(g, caps, threshold)
    # Covers float rounding of the capacities and the table (the ceiling
    # is not below the threshold). Table intermediates are at most
    # 2*sum(w). An entry takes at most n-1 doubling steps; each adds two
    # roundings and carries those of d(k) and w(k, S), sums of at most m
    # edge weights. So its error is below n*(3m+4)*eps*sum(w): under
    # 1e-11*sum(w) at n = 20, m = 1000.
    bound = ceiling + 1e-9 * (total + 1.0)
    shortlist = np.flatnonzero(_cut_capacity_table(g, weights) < bound) + 1
    return (shortlist << 1).tolist()


def _flow_shortlist(g: Multigraph, caps: Sequence, cutoff) -> list[int]:
    """The canonical masks of the cuts below ``cutoff``, ascending, by
    flow-pruned branching (Vazirani & Yannakakis, ICALP 1992), at any n.

    Capacities and cutoff are scaled to integers by one common denominator,
    exactly (a float is a dyadic rational).  The limit is the cutoff, plus
    the float table's rounding margin where a float makes blocks' re-sum round.

    Vertex 0 is on the source side A; vertices 1..n-1 go to A or to the
    sink side B, depth first.  Once B is not empty, a node is pruned when
    the maximum flow from A to B, with the undecided vertices free,
    reaches the limit: no completion then has a cut below it, and an
    unpruned node has at least one completion that does.  At a leaf every
    vertex is decided, so the flow is the cut's exact capacity.
    """
    limit = Fraction(cutoff)
    if float in map(type, caps):
        limit += Fraction(1e-9) * (sum(map(Fraction, caps)) + 1)  # _table_shortlist's margin
    *ints, limit = _scaled([*caps, limit])[0]
    n = g.n
    # summed capacity of each vertex pair, both directions
    adj = [{} for _ in range(n)]
    for (u, v), c in zip(g.edges, ints):
        if c:
            adj[u][v] = adj[v][u] = adj[u].get(v, 0) + c
    masks = []
    stack = [(1, 1, 0)]  # (next vertex, A mask, B mask)
    while stack:
        k, a, b = stack.pop()
        if b:
            if _max_flow(adj, a, b, limit) >= limit:
                continue
            if k == n:
                masks.append(b)
        if k < n:
            stack += [(k + 1, a | 1 << k, b), (k + 1, a, b | 1 << k)]
    masks.sort()
    return masks


def _scaled(values: Sequence) -> tuple[list[int], int]:
    """Ints, floats and Fractions as exact integers over one common denominator, and it."""
    exact = [Fraction(v) if type(v) is float else v for v in values]
    scale = math.lcm(*(v.denominator for v in exact))
    return [v.numerator * (scale // v.denominator) for v in exact], scale


def _max_flow(adj: list[dict], a: int, b: int, limit):
    """Maximum flow from the vertices of mask ``a`` to those of mask ``b``
    along shortest augmenting paths (Edmonds-Karp), stopped once it
    reaches ``limit``."""
    residual = [dict(row) for row in adj]
    sources = [v for v in range(len(adj)) if a >> v & 1]
    total = 0
    while total < limit:
        parent = dict.fromkeys(sources)
        queue = sources[:]
        sink = None
        for u in queue:  # breadth first; the loop also visits what it appends
            for v, c in residual[u].items():
                if c and v not in parent:
                    parent[v] = u
                    if b >> v & 1:
                        sink = v
                        break
                    queue.append(v)
            if sink is not None:
                break
        if sink is None:
            return total
        path = []
        v = sink
        while parent[v] is not None:
            path.append((parent[v], v))
            v = parent[v]
        push = min(residual[u][v] for u, v in path)
        for u, v in path:
            residual[u][v] -= push
            residual[v][u] += push
        total += push
    return total
