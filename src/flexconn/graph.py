"""Multigraph representation, cut arithmetic, exact global minimum cut,
and enumeration of all cuts below a capacity threshold.

All types but CutScan are immutable values and every function here is
pure and safe to call from multiple threads; a CutScan fills its
per-graph state on first use, so each caller (one solve) keeps its own.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import GraphStructureError, TooLargeError

# Largest vertex count for which exhaustive bipartition scans are allowed.
DEFAULT_EXHAUSTIVE_LIMIT = 20

# Relative slop at enumeration thresholds for float capacities, so that ones
# within floating-point noise of the threshold count as *at* it (strict).
CUT_REL_TOL = 1e-9

# Contraction mode refuses thresholds further above the minimum cut than this.
DEFAULT_ALPHA_MAX = 4.0

# Multiplier in front of the n^(2*alpha) * ln(n/delta) repetition count.
DEFAULT_REPETITION_CONSTANT = 2.0

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
        if self.n < 2:
            raise GraphStructureError(f"need at least 2 vertices, got {self.n}")
        if len(self.edges) < self.n - 1:  # before is_connected allocates O(n)
            raise GraphStructureError("graph is not connected")
        object.__setattr__(self, "edges", tuple((int(u), int(v)) for u, v in self.edges))
        for eid, (u, v) in enumerate(self.edges):
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphStructureError(f"edge {eid}: endpoint out of range")
            if u == v:
                raise GraphStructureError(f"edge {eid}: self-loop at vertex {u}")
        if not is_connected(self.n, self.edges):
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
    capacity: float | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.side_mask <= 0 or self.side_mask >> self.n:
            raise ValueError("cut side must be a nonempty proper vertex subset")
        if self.side_mask & 1:
            raise ValueError("canonical cut side must not contain vertex 0")

    @classmethod
    def from_vertices(cls, n: int, vertices: Iterable[int], capacity=None) -> "Cut":
        mask = 0
        for v in vertices:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} out of range")
            mask |= 1 << v
        full = (1 << n) - 1
        if mask == 0 or mask == full:
            raise ValueError("cut must be nontrivial")
        if mask & 1:
            mask ^= full
        return cls(n, mask, capacity)

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(v for v in range(self.n) if (self.side_mask >> v) & 1)

    @property
    def complement(self) -> frozenset[int]:
        return frozenset(v for v in range(self.n) if not (self.side_mask >> v) & 1)


def check_capacities(caps: Sequence, m: int) -> None:
    """Validate a per-edge capacity vector: length m, nonnegative, finite."""
    if len(caps) != m:
        raise ValueError(f"expected {m} capacities, got {len(caps)}")
    for eid, c in enumerate(caps):
        if c < 0:
            raise ValueError(f"capacity of edge {eid} is negative")
        if isinstance(c, float) and not math.isfinite(c):
            raise ValueError(f"capacity of edge {eid} is not finite")


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


def _are_floats(caps: Sequence) -> bool:
    """Float capacities sum in float64 and meet thresholds with CUT_REL_TOL
    slop; int, Fraction and mixed ones sum and compare exactly."""
    return all(type(c) is float for c in caps)


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
    check_capacities(caps, g.m)
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


def enumerate_cuts_below(
    g: Multigraph,
    caps: Sequence,
    threshold,
    mode: str = "exhaustive",
    *,
    delta: float = 1e-6,
    seed: int = 0,
) -> list[Cut]:
    """All canonical nontrivial cuts with capacity strictly below ``threshold``.

    Exhaustive mode scans every bipartition and is exact; it refuses graphs
    with more than DEFAULT_EXHAUSTIVE_LIMIT vertices rather than silently
    degrading. Contraction mode runs
    ``ceil(K * n^(2a) * ln(n/delta))`` independent capacity-weighted
    contraction runs (a = threshold / min cut, at most DEFAULT_ALPHA_MAX;
    K = DEFAULT_REPETITION_CONSTANT); each run contracts down to
    max(2, ceil(2a)) supervertices and every bipartition of the quotient
    is a candidate. With probability at least 1 - delta the result contains
    every qualifying cut; it never contains a non-qualifying one. Both
    modes re-sum their candidates exactly (see CutScan.blocks).

    Float capacities within CUT_REL_TOL (relative) of the threshold count
    as at the threshold and are excluded.  int, Fraction and mixed
    capacities are compared with the threshold exactly.

    Results are sorted by (capacity, side_mask) and duplicate-free.
    """
    cuts = [
        Cut(g.n, mask, capacity=cap)
        for masks, values, _ in CutScan(g).blocks(caps, threshold, mode, delta=delta, seed=seed)
        for mask, cap in zip(masks, values)
    ]
    cuts.sort(key=lambda c: (c.capacity, c.side_mask))
    return cuts


class CutScan:
    """The cut scan of one graph, prepared once and run for any number of
    capacity vectors.

    From the first exhaustive scan at which all 2^(n-1) - 1 canonical
    masks fit in one CUT_BLOCK (n <= 13 at 4096), it holds those masks and
    their crossing matrix, which no capacity changes.  CUT_BLOCK is read
    at each scan; the stored matrix is sliced into blocks of its current
    size.
    """

    def __init__(self, g: Multigraph):
        self.g = g
        self._every: tuple[range, np.ndarray] | None = None

    def blocks(
        self,
        caps: Sequence,
        threshold,
        mode: str = "exhaustive",
        *,
        delta: float = 1e-6,
        seed: int = 0,
    ) -> Iterator[tuple[list[int], list, np.ndarray]]:
        """The cuts below ``threshold``, as enumerate_cuts_below defines
        them, in blocks ``(side masks, capacities, crossing_matrix rows)`` in
        ascending mask order; each block comes from at most CUT_BLOCK
        candidate masks.

        Exhaustive candidates are every canonical mask while they fit in one
        block, and otherwise the masks that a float table of every cut's
        capacity puts within a rounding margin of the cutoff; the table's
        fixed cost per vertex outweighs one block's crossing matrix at small
        n.  Each candidate is re-summed exactly in the capacities' own type
        over its crossing row, adding in edge order from 0 as a plain
        running total would: floats by a float64 cumsum with a 0 (exact for
        x >= 0) for every edge that does not cross, ints by an int64 cumsum
        while their total is below 2^53 (so the sums, and their comparison
        with a float cutoff, are exact), the rest by reduce (sum()
        compensates floats on Python 3.12+).
        """
        g = self.g
        check_capacities(caps, g.m)
        if not 0 < threshold < math.inf:  # also rejects NaN
            raise ValueError(f"threshold must be positive and finite, got {threshold}")
        floats = _are_floats(caps)
        cutoff = threshold - CUT_REL_TOL * threshold if floats else threshold

        every = None
        if mode == "exhaustive":
            if g.n > DEFAULT_EXHAUSTIVE_LIMIT:
                raise TooLargeError(
                    f"instance too large for exhaustive mode (n={g.n} > {DEFAULT_EXHAUSTIVE_LIMIT})"
                )
            if self._every is None and (1 << (g.n - 1)) - 1 <= CUT_BLOCK:
                masks = canonical_masks(g.n)
                self._every = masks, crossing_matrix(g, masks)
            every = self._every
            masks = _table_shortlist(g, caps, cutoff) if every is None else every[0]
        elif mode == "contraction":
            if not 0 < delta < 1:  # also rejects NaN
                raise ValueError(f"delta must be between 0 and 1, got {delta}")
            masks = _contraction_shortlist(g, caps, cutoff, threshold, delta, seed)
        else:
            raise ValueError(f"unknown enumeration mode {mode!r}")

        if floats:
            values = np.array(caps, dtype=float)
        elif all(type(c) is int for c in caps) and sum(caps) < 2**53:
            values = np.array(caps, dtype=np.int64)
        else:
            values = np.array(caps, dtype=object)
        size = CUT_BLOCK
        for start in range(0, len(masks), size):
            block = masks[start : start + size]
            if every is None:
                cross = crossing_matrix(g, block)
            else:
                cross = every[1][start : start + size]
            if values.dtype == object:
                sums = np.fromiter(
                    (reduce(add, values[row].tolist(), 0) for row in cross), object, len(cross)
                )
            else:
                sums = np.cumsum(np.where(cross, values, 0), axis=1)[:, -1]
            keep = np.flatnonzero(sums < cutoff)
            if len(keep):
                yield [block[i] for i in keep.tolist()], sums[keep].tolist(), cross[keep]


def _table_shortlist(g, caps, cutoff) -> list[int]:
    """Canonical masks whose float table capacity is within a rounding
    margin of ``cutoff``: a superset of those strictly below it."""
    try:
        weights = np.array([float(c) for c in caps])
        # Covers float rounding of the capacities, the cutoff and the table.
        # Table intermediates are at most 2*sum(w). An entry takes at most
        # n-1 doubling steps; each adds two roundings and carries those of
        # d(k) and w(k, S), sums of at most m edge weights. So its error is
        # below n*(3m+4)*eps*sum(w): under 1e-11*sum(w) at n = 20, m = 1000.
        bound = float(cutoff) + 1e-9 * (float(weights.sum()) + 1.0)
    except OverflowError:  # int or Fraction values beyond float range: shortlist all
        weights, bound = np.zeros(g.m), 1.0
    shortlist = np.flatnonzero(_cut_capacity_table(g, weights) < bound) + 1
    return (shortlist << 1).tolist()


def _contraction_shortlist(g, caps, cutoff, threshold, delta, seed) -> list[int]:
    _, lam = min_cut(g, caps)
    if lam <= 0:
        raise ValueError("contraction mode requires a positive minimum cut")
    if lam >= cutoff:
        return []
    alpha = float(threshold) / float(lam)
    if alpha > DEFAULT_ALPHA_MAX:
        raise ValueError(
            f"threshold is {alpha:.3g}x the minimum cut, above alpha_max={DEFAULT_ALPHA_MAX}"
        )
    runs = math.ceil(DEFAULT_REPETITION_CONSTANT * g.n ** (2 * alpha) * math.log(g.n / delta))
    target = max(2, math.ceil(2 * alpha))
    rng = random.Random(seed)
    weights = [float(c) for c in caps]
    live = [e for e, w in enumerate(weights) if w > 0.0]
    ends = [g.edges[e] for e in live]
    rates = [weights[e] for e in live]
    quotients = {_contraction_run(g.n, ends, rates, target, rng) for _ in range(runs)}
    masks = set()
    for parts in quotients:
        # every bipartition of the quotient, as the side without vertex 0
        sides = [0]
        for part in parts:
            if not part & 1:
                sides += [side | part for side in sides]
        masks.update(sides[1:])
    return sorted(masks)


def _contraction_run(n, ends, rates, target, rng):
    """One capacity-weighted contraction of an n-vertex graph down to
    ``target`` supervertices; returns the vertex masks of the quotient's
    supervertices.

    Contracting a random crossing edge, drawn in proportion to its weight,
    until ``target`` supervertices remain is the same as union-find over
    the edges in ascending order of exponential keys with rate w_e
    (Karger & Stein, J. ACM 1996), so a run is one sort.  ``ends`` and
    ``rates`` hold the endpoints and weights of the positive-weight edges.
    """
    rand = rng.random
    # rng.expovariate(w), inlined; nothing to contract when n <= target
    keys = [-math.log(1.0 - rand()) / w for w in rates] if n > target else []
    label = list(range(n))
    comp_mask = [1 << v for v in range(n)]
    alive = n
    for i in sorted(range(len(keys)), key=keys.__getitem__):
        if alive <= target:
            break
        u, v = ends[i]
        lu, lv = label[u], label[v]
        if lu != lv:
            for x in range(n):
                if label[x] == lv:
                    label[x] = lu
            comp_mask[lu] |= comp_mask[lv]
            alive -= 1
    return frozenset(comp_mask[lab] for lab in label)
