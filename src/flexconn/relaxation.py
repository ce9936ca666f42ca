"""Knapsack-cover LP relaxation of flexible connectivity.

The LP minimizes total cost over x in [0,1]^E subject to, for every
nontrivial cut R and every J inside delta(R),

    (p-|J&S|)+ . x(K) + (q-|J&U|)+ . x(K&S)  >=  (p-|J&S|)+ . (p+q-|J|)+

with K = delta(R) minus J.  Separation works on the capacitated view
u_x(e) = (p + q.[e safe]) . x_e: only cuts of capacity below p(p+2q) can
carry a violated row, and each is checked against the J_{a,b} candidate
family (top-a safe and top-b unsafe edges by x value), which is enough
to certify all J; its J-empty corner, violated exactly when the cut is
below p(p+q), is the basic LP's row.  A cutting-plane loop drives the LP
to optimality.

The bound: let J hold a safe and b unsafe edges, with a < p (else the row
is trivial), alpha1 = p - a and alpha2 = (q - b)+; the row is violated
when (alpha1 + alpha2).x(K&S) + alpha1.x(K&U) < alpha1.(p+q-a-b)+.  With
x <= 1 on J, u_x(delta(R)) <= (p+q)a + pb + (p+q).x(K&S) + p.x(K&U), and
the last two terms are at most c = max((p+q)/(alpha1+alpha2), p/alpha1)
times that left-hand side.  So a violated cut has u_x(delta(R)) <
(p+q)a + pb + c.alpha1.(p+q-a-b)+, which is p(p+q) + max(pb, qa) when
b <= q, and (p+q)(p+q-b) + pb = (p+q)^2 - qb when b > q (the row is
trivial once p+q-a-b <= 0).  Both are at most p(p+2q), reached at b = q:
the paper's 2p(p+q) less pq.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from types import ModuleType
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
import scipy

from .errors import IterationLimitError, LpSolveError, check_size
from .graph import DEFAULT_EXHAUSTIVE_LIMIT, Cut, CutScan, check_number, cut_edges

# Kept only for perfbench/tracing.py, which wraps these bindings by name;
# their spans read 0 now that separation scores every cut through graph.CutScan.
from .graph import enumerate_cuts_below, min_cut  # noqa: F401
from .model import FgcInstance, capacities, check_selection, infeasible_edges_error, is_feasible

_HIGHS_CORE = "scipy.optimize._highspy._core"


def _load_highs_core(roots: Iterable[str]) -> ModuleType:
    """scipy's HiGHS bindings, loaded from the extension file under a scipy
    package directory in ``roots``.

    Importing them by name runs scipy.optimize's __init__, which pulls in
    scipy.linalg, scipy.sparse, scipy.special and linprog: about 0.5 s and
    44 MB per process that the solver never uses.  The module is registered
    under its own name, so a later ``import scipy.optimize`` shares it, and
    one already imported is reused.  The file's place is private to scipy;
    the pinned scipy>=1.17,<1.18 has it there.
    """
    module = sys.modules.get(_HIGHS_CORE)
    if module is not None:
        return module
    stems = [os.path.join(root, "optimize", "_highspy", "_core") for root in roots]
    for stem in stems:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            if os.path.isfile(stem + suffix):
                spec = importlib.util.spec_from_file_location(_HIGHS_CORE, stem + suffix)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                sys.modules[_HIGHS_CORE] = module
                return module
    suffixes = ", ".join(importlib.machinery.EXTENSION_SUFFIXES)
    raise ImportError(
        f"scipy's HiGHS bindings are not at {' or '.join(stems)} (suffixes {suffixes}); "
        "flexconn needs scipy>=1.17,<1.18",
        name=_HIGHS_CORE,
    )


_highs = _load_highs_core(scipy.__path__)

# Absolute tolerance on row violations at which the cutting-plane loop
# separates: HiGHS holds rows only to its 1e-7 primal feasibility tolerance.
DEFAULT_EPS = 1e-7

# x vectors may carry solver noise this far outside the box before we reject.
BOX_SLACK = 1e-6

# Cutting-plane iterations allowed per edge and vertex: the cap is 10.m.n.
ITERATIONS_PER_EDGE_VERTEX = 10


@dataclass(frozen=True)
class ConstraintRow:
    """One linearized covering inequality for a (cut, J) pair.

    ``k`` holds the edges of K = delta(R) minus J by ascending id and
    ``coef`` their coefficients: alpha1+alpha2 on safe edges, alpha1 on
    unsafe ones; every other edge has 0.  rhs = alpha1 . (p+q-a-b)+.  All
    quantities are integers.  A row with rhs 0 is trivial and never
    enters the LP.
    """

    cut: Cut
    j_edges: frozenset[int]
    a: int
    b: int
    alpha1: int
    alpha2: int
    rhs: int
    k: tuple[int, ...]
    coef: tuple[int, ...]

    @property
    def trivial(self) -> bool:
        return self.rhs == 0

    def lhs(self, x: Sequence):
        """The running total along K in edge order (sum() compensates
        floats on Python 3.12+)."""
        total = 0
        for e, c in zip(self.k, self.coef):
            total += c * x[e]
        return total

    def key(self) -> tuple:
        return (self.cut.n, self.cut.side_mask, self.j_edges)


def constraint_row(inst: FgcInstance, r: Cut, j_edges: Iterable[int]) -> ConstraintRow:
    """Build the covering row for cut ``r`` and partial selection ``j_edges``.

    With J empty this is the plain covering inequality
    p.x(delta(R)) + q.x(delta(R)&S) >= p(p+q) after regrouping.
    """
    delta = cut_edges(inst.graph, r)
    j = check_selection(inst, j_edges)
    if not j <= delta:
        raise ValueError("j_edges must lie inside the cut's edge set")
    return _row(inst, r, sorted(delta), j)


def _row(inst: FgcInstance, r: Cut, delta: Sequence[int], j: frozenset[int]) -> ConstraintRow:
    """The covering row of cut ``r`` with edges ``delta`` in ascending
    order for J = j, a subset of delta."""
    a = sum(1 for e in j if inst.safe[e])
    b = len(j) - a
    p, q = inst.p, inst.q
    alpha1 = max(p - a, 0)
    alpha2 = max(q - b, 0)
    rhs = alpha1 * max(p + q - a - b, 0)
    k = tuple(e for e in delta if e not in j)
    return ConstraintRow(
        cut=r,
        j_edges=j,
        a=a,
        b=b,
        alpha1=alpha1,
        alpha2=alpha2,
        rhs=rhs,
        k=k,
        coef=tuple(alpha1 + alpha2 if inst.safe[e] else alpha1 for e in k),
    )


def violation(row: ConstraintRow, x: Sequence):
    """rhs minus the row's left-hand side at x; positive means violated."""
    return row.rhs - row.lhs(x)


def candidate_j_sets(
    inst: FgcInstance, r: Cut, x: Sequence
) -> list[tuple[int, int, frozenset[int]]]:
    """The J_{a,b} candidate family for a cut.

    Safe and unsafe edges of delta(r) are ordered by nonincreasing x value
    (ties by ascending edge id); J_{a,b} takes the first a safe and first b
    unsafe, for a in 0..min(p-1, #safe) and b in 0..min(p+q-1, #unsafe).
    If some J is violated, one of these is.
    """
    delta = cut_edges(inst.graph, r)
    ls = sorted((e for e in delta if inst.safe[e]), key=lambda e: (-x[e], e))
    lu = sorted((e for e in delta if not inst.safe[e]), key=lambda e: (-x[e], e))
    out = []
    for a in range(min(inst.p - 1, len(ls)) + 1):
        for b in range(min(inst.p + inst.q - 1, len(lu)) + 1):
            out.append((a, b, frozenset(ls[:a] + lu[:b])))
    return out


def _check_box(x: Sequence) -> tuple:
    cleaned = []
    for e, v in enumerate(x):
        if not -BOX_SLACK <= v <= 1 + BOX_SLACK:  # also rejects NaN
            raise ValueError(f"x[{e}] = {v} is outside [0, 1]")
        if isinstance(v, Fraction):
            cleaned.append(min(Fraction(1), max(Fraction(0), v)))
        else:
            cleaned.append(min(1.0, max(0.0, float(v))))
    return tuple(cleaned)


def separate(inst: FgcInstance, x: Sequence, eps: float = DEFAULT_EPS) -> ConstraintRow | None:
    """Most violated covering row at x, or None if all hold within eps.

    The first row of largest violation among _Separator.rows (one per
    violated cut, in cut order): since each of those is its cut's first
    row of largest violation in (a, b) order, this is the first row of
    largest violation in (cut, a, b) order, as building every candidate row
    gives.  Every cut that can carry a violation is scanned, so the
    violation matches a brute-force scan.  Only the best row so far and one
    block's rows are held at a time.
    """
    eps = check_number(eps, "eps")
    if eps > sys.float_info.max:  # above every violation, which is at most p(p+q)
        eps = np.inf
    blocks = _Separator(inst).violated_blocks(_check_box(x), eps)
    hits = (hit for block in blocks for hit in block)
    best = min(hits, key=lambda hit: (-hit[1], hit[0]), default=None)
    return None if best is None else best[2]


class _Separator:
    """Separation at one instance, split into what no x changes, built here
    once per solve or call, and the round run at each x by violated_blocks.

    Built once: the graph's prepared cut scan (graph.CutScan), the J_{a,b}
    grid (rhs, -inf where it is 0, and the coefficients of the safe and
    the unsafe tail sums) and the safe and unsafe edge columns.
    """

    def __init__(self, inst: FgcInstance):
        p, q = inst.p, inst.q
        # The (a, b) grid and the LP's rows are floats: rhs up to p(p+q) and
        # coefficients up to p+q.  The scan takes any threshold and hands
        # sums that overflow the float cut table to the flow search, and a
        # cut that carries a violation has x(S) < p on its safe edges, so
        # u_x below p(p+q) + pm: in float range, up to rounding, where p(p+q) is.
        if p * (p + q) > sys.float_info.max:
            raise LpSolveError("p.(p+q) is beyond float range, so separation cannot score its cuts")
        # past the table, while the min cut is below p(p+q), Karger's bound
        # does not hold for the cuts below p(p+2q): at p = 1 they blow up
        check_size("the exhaustive cut scan", inst.n, DEFAULT_EXHAUSTIVE_LIMIT)
        self.inst = inst
        self.scan = CutScan(inst.graph)
        # No cut has more than m edges, so a and b stop at m.  They are
        # floats: in int64 the products wrap once p.q passes 2^63.
        a = np.arange(min(p, inst.m + 1), dtype=float)[:, None]
        b = np.arange(min(p + q, inst.m + 1), dtype=float)
        rhs = (p - a) * np.maximum(p + q - a - b, 0)
        # -inf where rhs = 0: those rows are trivial and never scored
        self.rhs = np.where(rhs > 0, rhs, -np.inf)
        self.safe_coef = p - a + np.maximum(q - b, 0)
        self.unsafe_coef = p - a
        self.is_safe = np.array(inst.safe, dtype=bool)
        self.safe = _Family(np.flatnonzero(self.is_safe), len(a))
        self.unsafe = _Family(np.flatnonzero(~self.is_safe), len(b))

    def rows(self, x: Sequence, eps) -> list[ConstraintRow]:
        """The most violated row of every cut that carries a violation beyond
        eps, in cut order (capacity, then side mask); each is its cut's first
        row of largest violation in (a, b) order."""
        hits = [hit for block in self.violated_blocks(x, eps) for hit in block]
        hits.sort(key=lambda hit: hit[0])
        return [row for _, _, row in hits]

    def violated_blocks(
        self, x: Sequence, eps
    ) -> Iterator[list[tuple[tuple, float, ConstraintRow]]]:
        """Per block of cuts, ``((capacity, side mask), violation, row)`` for
        each cut whose most violated row beats eps; the row is the cut's
        first row of largest violation in (a, b) order.

        Every cut of u_x capacity below p(p+2q) is scanned, since no other
        cut can carry a violation (module docstring; float and Fraction x
        meet that threshold exactly, in their own sums).  The J_{a,b}
        candidates of each block of the cut scan are scored in closed form
        in one numpy pass over the block's crossing rows, and only the
        candidates within a float error slack of their cut's best score are
        built as rows and re-checked with violation().  x must lie in the
        box and eps be finite and nonnegative.
        """
        inst = self.inst
        p, q = inst.p, inst.q
        ux = capacities(inst, x)

        # J_{a,b} violates by rhs - [(p-a+(q-b)+).TS[a] + (p-a).TU[b]],
        # rhs = (p-a).(p+q-a-b)+, where TS[a] is x summed over the cut's
        # safe edges after the a largest (ties broken by edge id, as in
        # candidate_j_sets), so the same sum for every tie-break, and TU[b]
        # the same over its unsafe edges.
        #
        # With x in [0, 1], coefficients <= p+q and at most m terms per sum, a
        # score (numpy sums of the sorted x values in any order, up to four
        # roundings in rhs, none while p(p+q) < 2^53, plus one rounding per
        # term when a Fraction x goes to float) is within 9u.(p+q).(m+p)^2
        # of the exact violation, u = 2^-53, and violation()'s sequential
        # float sum is within 3u.(p+q).(m+p)^2.  So they differ by under
        # 12u.(p+q).(m+p)^2; the slack, about 90u.(p+q).(m+p)^2, is over
        # seven times that.  Let V be a cut's largest violation() and M its
        # largest score: every candidate reaching V scores above
        # V - slack > M - 2.slack, so it is built.
        slack = 1e-14 * (p + q) * (inst.m + p) ** 2
        xf = np.array(x, dtype=float)
        x_safe, x_unsafe = xf[self.safe.cols], xf[self.unsafe.cols]
        by_x = None  # the safe and unsafe edges in candidate_j_sets' order
        for masks, cut_caps, cross in self.scan.blocks(ux, p * (p + 2 * q)):
            tail_s = self.safe.tail_sums(cross, x_safe)
            tail_u = self.unsafe.tail_sums(cross, x_unsafe)
            # an infinite tail (a J with too few edges) or rhs gives -inf
            score = self.rhs - (
                self.safe_coef * tail_s[:, :, None] + self.unsafe_coef * tail_u[:, None, :]
            )
            top = score.max(axis=(1, 2), keepdims=True)
            keep = (score > eps - slack) & (score >= top - 2 * slack)
            best = {}  # block index -> (violation, row), in ascending index order
            for i, ai, bi in zip(*(axis.tolist() for axis in np.nonzero(keep))):
                if by_x is None:
                    # candidate_j_sets' (-x[e], e) order: a reverse sort
                    # is stable too, so ties keep ascending ids
                    order = np.array(sorted(range(inst.m), key=x.__getitem__, reverse=True))
                    by_x = order[self.is_safe[order]], order[~self.is_safe[order]]
                safe_order, unsafe_order = by_x
                j = (
                    safe_order[cross[i, safe_order]][:ai].tolist()
                    + unsafe_order[cross[i, unsafe_order]][:bi].tolist()
                )
                r = Cut(inst.n, masks[i], capacity=cut_caps[i])
                row = _row(inst, r, cross[i].nonzero()[0].tolist(), frozenset(j))
                v = violation(row, x)
                if v > best.get(i, (eps,))[0]:
                    best[i] = (v, row)
            yield [((cut_caps[i], masks[i]), v, row) for i, (v, row) in best.items()]


class _Family:
    """One edge family (safe or unsafe) of the J_{a,b} grid, for a < k."""

    def __init__(self, cols: np.ndarray, k: int):
        self.cols = cols
        self.k = k
        self.ranks = np.arange(k)

    def tail_sums(self, cross: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Per cut (row of ``cross``), x summed over the family's crossing
        edges after the a largest, for a < k; inf where the cut has fewer
        than a of them.  ``xs`` is x over the family's columns.

        The head sums, over the a largest, add up the top of each cut's x
        values sorted along the row, 0 where an edge does not cross.
        """
        cross = cross[:, self.cols]
        values = np.where(cross, xs, 0.0)
        values.sort(axis=1)
        top = values[:, : -self.k : -1]  # the k - 1 largest, in descending order
        heads = np.zeros((len(cross), self.k))
        np.cumsum(top, axis=1, out=heads[:, 1 : 1 + top.shape[1]])
        tails = values.sum(axis=1)[:, None] - heads
        return np.where(self.ranks > cross.sum(axis=1)[:, None], np.inf, tails)


class _HighsLp:
    """min objective . x over the box [0,1]^m as one HiGHS model.

    Covering rows are added sparsely, each with its K edges only, and every
    solve after the first warm-starts dual simplex from the last basis.
    Rows hold only to within HiGHS's default primal feasibility tolerance,
    1e-7; x is clipped to the box afterwards and nothing here re-checks
    the rows.  HiGHS sees the objective divided by its largest coefficient:
    its absolute tolerances would otherwise swamp costs near 1e-6 and
    return values above the optimum.  Returned values use the unscaled
    objective.
    """

    def __init__(self, objective: Sequence[float], m: int):
        c = np.asarray(objective, dtype=float)
        if c.shape != (m,):
            raise ValueError(f"expected {m} objective coefficients")
        if not np.isfinite(c).all():  # NaN and +-inf
            raise ValueError("objective coefficients must be finite")
        if any(c < 0):
            raise ValueError("objective coefficients must be nonnegative")
        self.cost = c
        self.rows: list[ConstraintRow] = []
        top = c.max(initial=0.0)
        self.highs = _highs._Highs()
        self.highs.setOptionValue("output_flag", False)
        # Every model is a box LP with a few dozen covering rows, re-solved
        # warm from the last basis: presolve only slows its cold first solve.
        self.highs.setOptionValue("presolve", "off")
        none = np.zeros(0, dtype=np.int32)
        self.highs.addCols(
            m, c / top if top > 0 else c, np.zeros(m), np.ones(m), 0, none, none, np.zeros(0)
        )

    def add(self, rows: Iterable[ConstraintRow]) -> None:
        new = [row for row in rows if not row.trivial]
        if not new:
            return
        starts, index, value = [], [], []
        for row in new:
            starts.append(len(index))
            index.extend(row.k)
            value.extend(row.coef)
        status = self.highs.addRows(
            len(new),
            np.array([row.rhs for row in new], dtype=float),
            np.full(len(new), _highs.kHighsInf),
            len(index),
            np.array(starts, dtype=np.int32),
            np.array(index, dtype=np.int32),
            np.array(value, dtype=float),
        )
        self.rows.extend(new)
        if status == _highs.HighsStatus.kError:
            raise LpSolveError("LP subsolver rejected the rows", self.rows)

    def solve(self) -> tuple[tuple[float, ...], float]:
        """Optimal x and its cost; zeros while every row added was trivial.

        x = 1 satisfies every covering row when the instance's full edge
        set is feasible, so on a valid instance failures are numerical;
        otherwise HiGHS can report the rows infeasible.  Either way the
        error carries the rows.
        """
        if not self.rows:
            return (0.0,) * len(self.cost), 0.0
        self.highs.run()
        status = self.highs.getModelStatus()
        if status != _highs.HighsModelStatus.kOptimal:
            message = self.highs.modelStatusToString(status)
            raise LpSolveError(f"LP subsolver failed: {message}", self.rows)
        # + 0.0 also turns -0.0 into 0.0
        x = np.clip(self.highs.getSolution().col_value, 0.0, 1.0) + 0.0
        return tuple(x.tolist()), float(self.cost @ x)


def lp_solve(
    rows: Sequence[ConstraintRow], objective: Sequence[float], m: int
) -> tuple[tuple[float, ...], float]:
    """Minimize objective . x over the box [0,1]^m subject to the rows.

    Deterministic; one fresh model of the kind solve_relaxation keeps for
    its whole loop, so the same tolerances and objective scaling apply.
    """
    lp = _HighsLp(objective, m)
    lp.add(rows)
    return lp.solve()


@dataclass(frozen=True)
class RelaxationResult:
    """Optimal fractional solution, the final row pool and the iteration count."""

    x: tuple
    value: float
    active_rows: tuple[ConstraintRow, ...]
    iterations: int


def solve_relaxation(
    inst: FgcInstance,
    *,
    on_iterate: Callable[[int, tuple, float], None] | None = None,
) -> RelaxationResult:
    """Cutting-plane solve of the covering LP.

    Seeds the pool with the J-empty rows of all singleton cuts, then
    alternates LP solves with separation, adding the most violated row of
    every violated cut, until separation certifies no violation beyond
    DEFAULT_EPS, the LP's own row tolerance.  One HiGHS model holds the
    pool for the whole loop and gets only the new rows, so each solve
    warm-starts from the last basis; separation's x-independent state is
    built once for the loop.
    The value is a lower bound on the optimal integral cost.  When the
    subsolver fails on an instance whose full edge set is infeasible, the
    error is InvalidInstanceError("infeasible-edges") naming the cut.
    """
    # the separator refuses n > DEFAULT_EXHAUSTIVE_LIMIT before any LP
    separator = _Separator(inst)
    lp = _HighsLp(inst.cost, inst.m)
    cap = ITERATIONS_PER_EDGE_VERTEX * inst.m * inst.n

    # each vertex's edges, ascending: the edges of its singleton cut
    incident = [[] for _ in range(inst.n)]
    for e, (u, v) in enumerate(inst.graph.edges):
        incident[u].append(e)
        incident[v].append(e)

    # seed and separated rows are never trivial, so lp.rows is the pool
    seen = set()
    new = []
    for v in range(inst.n):
        row = _row(inst, Cut.from_vertices(inst.n, {v}), incident[v], frozenset())
        if row.key() not in seen:
            seen.add(row.key())
            new.append(row)

    iterations = 0
    while True:
        if iterations >= cap:
            raise IterationLimitError(
                f"cutting-plane loop exceeded {cap} iterations", iterations, None
            )
        iterations += 1
        try:
            lp.add(new)
            x, value = lp.solve()
        except LpSolveError:
            # x = 1 meets every row unless the full edge set is infeasible
            verdict = is_feasible(inst, inst.all_edges)
            if not verdict:
                raise infeasible_edges_error(inst, verdict.witness) from None
            raise
        if on_iterate is not None:
            on_iterate(iterations, x, value)
        violated = separator.rows(x, DEFAULT_EPS)
        if not violated:
            return RelaxationResult(
                x=x, value=value, active_rows=tuple(lp.rows), iterations=iterations
            )
        # A pool row can read as violated by just over DEFAULT_EPS: the LP
        # holds rows only to its tolerance and x is clipped afterwards.
        new = [row for row in violated if row.key() not in seen]
        if not new:
            raise IterationLimitError(
                "separation returned only rows already in the pool; "
                "LP and separation tolerances are inconsistent",
                iterations,
                float(value),
            )
        seen.update(row.key() for row in new)
