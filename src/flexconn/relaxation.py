"""Knapsack-cover LP relaxation of flexible connectivity.

The LP minimizes total cost over x in [0,1]^E subject to, for every
nontrivial cut R and every J inside delta(R),

    (p-|J&S|)+ . x(K) + (q-|J&U|)+ . x(K&S)  >=  (p-|J&S|)+ . (p+q-|J|)+

with K = delta(R) minus J.  Separation works on the capacitated view
u_x(e) = (p + q.[e safe]) . x_e: only cuts of capacity below 2p(p+q) can
carry a violated row, and each is checked against the J_{a,b} candidate
family (top-a safe and top-b unsafe edges by x value), which is enough
to certify all J; its J-empty corner, violated exactly when the cut is
below p(p+q), is the basic LP's row.  A cutting-plane loop drives the LP
to optimality.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from types import ModuleType
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
import scipy

from .errors import IterationLimitError, LpSolveError
from .graph import Cut, _cut_blocks, cut_edges

# Kept only for perfbench/tracing.py, which wraps these bindings by name;
# their spans read 0 now that separation scores every cut through _cut_blocks.
from .graph import enumerate_cuts_below, min_cut  # noqa: F401
from .model import FgcInstance, capacities

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

# Absolute tolerance on row violations; rhs values are small integers.
DEFAULT_EPS = 1e-7

# x vectors may carry solver noise this far outside the box before we reject.
BOX_SLACK = 1e-6

# Cutting-plane iterations allowed per edge and vertex: the cap is 10.m.n.
ITERATIONS_PER_EDGE_VERTEX = 10


@dataclass(frozen=True)
class ConstraintRow:
    """One linearized covering inequality for a (cut, J) pair.

    Coefficients: safe edges of K get alpha1+alpha2, unsafe edges of K get
    alpha1, everything else 0.  rhs = alpha1 . (p+q-a-b)+.  All quantities
    are integers.  A row with rhs 0 is trivial and never enters the LP.
    """

    cut: Cut
    j_edges: frozenset[int]
    a: int
    b: int
    alpha1: int
    alpha2: int
    rhs: int
    k_safe: frozenset[int]
    k_unsafe: frozenset[int]

    @property
    def trivial(self) -> bool:
        return self.rhs == 0

    def coefficient(self, e: int):
        if e in self.k_safe:
            return self.alpha1 + self.alpha2
        if e in self.k_unsafe:
            return self.alpha1
        return 0

    def lhs(self, x: Sequence):
        total = 0
        for e in self.k_safe:
            total += (self.alpha1 + self.alpha2) * x[e]
        for e in self.k_unsafe:
            total += self.alpha1 * x[e]
        return total

    def key(self) -> tuple:
        return (self.cut.n, self.cut.side_mask, self.j_edges)


def constraint_row(inst: FgcInstance, r: Cut, j_edges: Iterable[int]) -> ConstraintRow:
    """Build the covering row for cut ``r`` and partial selection ``j_edges``.

    With J empty this is the plain covering inequality
    p.x(delta(R)) + q.x(delta(R)&S) >= p(p+q) after regrouping.
    """
    delta = cut_edges(inst.graph, r)
    j = frozenset(int(e) for e in j_edges)
    if not j <= delta:
        raise ValueError("j_edges must lie inside the cut's edge set")
    return _row(inst, r, delta, j)


def _row(inst: FgcInstance, r: Cut, delta: frozenset[int], j: frozenset[int]) -> ConstraintRow:
    """The covering row of cut ``r`` with edge set ``delta`` for J = j, a
    subset of delta."""
    a = sum(1 for e in j if inst.safe[e])
    b = len(j) - a
    p, q = inst.p, inst.q
    alpha1 = max(p - a, 0)
    alpha2 = max(q - b, 0)
    rhs = alpha1 * max(p + q - a - b, 0)
    k = delta - j
    k_safe = frozenset(e for e in k if inst.safe[e])
    return ConstraintRow(
        cut=r,
        j_edges=j,
        a=a,
        b=b,
        alpha1=alpha1,
        alpha2=alpha2,
        rhs=rhs,
        k_safe=k_safe,
        k_unsafe=frozenset(k - k_safe),
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


def separate(
    inst: FgcInstance,
    x: Sequence,
    eps: float = DEFAULT_EPS,
    *,
    j_family: str = "full",
) -> ConstraintRow | None:
    """Most violated covering row at x, or None if all hold within eps.

    The first row of largest violation among _separate_per_cut's rows (one
    per violated cut, in cut order): since each of those is its cut's first
    row of largest violation in (a, b) order, this is the first row of
    largest violation in (cut, a, b) order, as building every candidate row
    gives.  Every cut that can carry a violation is scanned, so the
    violation matches a brute-force scan.  Only the best row so far and one
    block's rows are held at a time.
    """
    blocks = _violated_blocks(inst, _check_box(x), eps, j_family)
    hits = (hit for block in blocks for hit in block)
    best = min(hits, key=lambda hit: (-hit[1], hit[0]), default=None)
    return None if best is None else best[2]


def _separate_per_cut(
    inst: FgcInstance,
    x: Sequence,
    eps: float = DEFAULT_EPS,
    j_family: str = "full",
) -> list[ConstraintRow]:
    """The most violated row of every cut that carries a violation beyond
    eps, in cut order (capacity, then side mask); each is its cut's first
    row of largest violation in (a, b) order.  x must lie in the box."""
    hits = [hit for block in _violated_blocks(inst, x, eps, j_family) for hit in block]
    hits.sort(key=lambda hit: hit[0])
    return [row for _, _, row in hits]


def _violated_blocks(
    inst: FgcInstance, x: Sequence, eps, j_family: str
) -> Iterator[list[tuple[tuple, float, ConstraintRow]]]:
    """Per block of cuts, ``((capacity, side mask), violation, row)`` for
    each cut whose most violated row beats eps; the row is the cut's first
    row of largest violation in (a, b) order.

    Every cut of u_x capacity below 2p(p+q) is scanned, since no other
    cut can carry a violation (float x meets that threshold with
    graph's float slop, Fraction x exactly).  The J_{a,b} candidates of
    each block of graph._cut_blocks are scored in closed form in one numpy
    pass over the block's crossing rows, and only the candidates within a
    float error slack of their cut's best score are built as rows and
    re-checked with violation().  j_family="basic" scores only J empty.
    """
    if not 0 <= eps < math.inf:  # also rejects NaN
        raise ValueError(f"eps must be finite and nonnegative, got {eps}")
    ux = capacities(inst, x)
    p, q = inst.p, inst.q
    need = p * (p + q)
    if j_family not in ("full", "basic"):
        raise ValueError(f"unknown j_family {j_family!r}")

    # J_{a,b} violates by rhs - [(p-a+(q-b)+).(XS-PS[a]) + (p-a).(XU-PU[b])],
    # rhs = (p-a).(p+q-a-b)+, where PS and PU are prefix sums of x over the
    # cut's safe and unsafe edges in candidate_j_sets' order and XS, XU
    # their totals.  No cut has more than m edges, so a and b stop at m.
    # They are floats: in int64 the products wrap once p.q passes 2^63.
    #
    # With x in [0, 1], coefficients <= p+q and at most m terms per sum, a
    # score (numpy sums in any order, up to four roundings in rhs, none
    # while p(p+q) < 2^53, plus one rounding per term when a Fraction x
    # goes to float) is within 9u.(p+q).(m+p)^2 of the exact violation,
    # u = 2^-53, and violation()'s sequential float sum is within
    # 3u.(p+q).(m+p)^2.  So they differ by under 12u.(p+q).(m+p)^2; the
    # slack, about 90u.(p+q).(m+p)^2, is over seven times that.  Let V be a
    # cut's largest violation() and M its largest score: every candidate
    # reaching V scores above V - slack > M - 2.slack, so it is built.
    slack = 1e-14 * (p + q) * (inst.m + p) ** 2
    order = sorted(range(inst.m), key=lambda e: (-x[e], e))
    safe_order = np.array([e for e in order if inst.safe[e]], dtype=np.intp)
    unsafe_order = np.array([e for e in order if not inst.safe[e]], dtype=np.intp)
    xf = np.array([float(v) for v in x])
    full = j_family == "full"
    a = np.arange(min(p, inst.m + 1) if full else 1, dtype=float)[:, None]
    b = np.arange(min(p + q, inst.m + 1) if full else 1, dtype=float)
    rhs = (p - a) * np.maximum(p + q - a - b, 0)
    safe_coef = p - a + np.maximum(q - b, 0)
    for masks, cut_caps, cross in _cut_blocks(inst.graph, ux, 2 * need):
        cross_s, cross_u = cross[:, safe_order], cross[:, unsafe_order]
        tail_s, count_s = _tail_sums(cross_s, xf[safe_order], len(a))
        tail_u, count_u = _tail_sums(cross_u, xf[unsafe_order], len(b))
        score = rhs - (safe_coef * tail_s[:, :, None] + (p - a) * tail_u[:, None, :])
        valid = (rhs > 0) & (a <= count_s[:, None, None]) & (b <= count_u[:, None, None])
        score = np.where(valid, score, -np.inf)
        top = score.max(axis=(1, 2), keepdims=True)
        keep = (score > eps - slack) & (score >= top - 2 * slack)
        best = {}  # block index -> (violation, row), in ascending index order
        for i, ai, bi in zip(*np.nonzero(keep)):
            j = safe_order[cross_s[i]][:ai].tolist() + unsafe_order[cross_u[i]][:bi].tolist()
            r = Cut(inst.n, masks[i], capacity=cut_caps[i])
            row = _row(inst, r, frozenset(np.flatnonzero(cross[i]).tolist()), frozenset(j))
            v = violation(row, x)
            if v > best.get(i, (eps,))[0]:
                best[i] = (v, row)
        yield [((cut_caps[i], masks[i]), v, row) for i, (v, row) in best.items()]


def _tail_sums(cross: np.ndarray, xs: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per cut, x summed over its crossing edges after the first a, for a < k,
    and its number of crossing edges; the columns of ``cross`` are in order."""
    rank = np.cumsum(cross, axis=1)
    head = np.zeros((len(cross), k))
    rows, cols = np.nonzero(cross & (rank < k))
    head[rows, rank[rows, cols]] = xs[cols]
    total = np.where(cross, xs, 0.0).sum(axis=1)
    return total[:, None] - np.cumsum(head, axis=1), cross.sum(axis=1)


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
        if any(c < 0):
            raise ValueError("objective coefficients must be nonnegative")
        self.cost = c
        self.rows: list[ConstraintRow] = []
        top = c.max(initial=0.0)
        self.highs = _highs._Highs()
        self.highs.setOptionValue("output_flag", False)
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
            # by edge id: a frozenset's iteration order depends on how it was built
            k = sorted(row.k_safe | row.k_unsafe)
            starts.append(len(index))
            index.extend(k)
            value.extend(row.coefficient(e) for e in k)
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

        The row system is always satisfiable (x = 1 satisfies every covering
        row), so failures are numerical and reported with the rows attached.
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
        return tuple(float(v) for v in x), float(self.cost @ x)


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


# ---------------------------------------------------------------------------
# Exact rational LP, used in tests to cross-check the floating-point route.


def _simplex_min(tableau, basis, cost, limit):
    """Bland-rule primal simplex on an equality tableau; minimizes cost.

    Only columns below ``limit`` may enter the basis, which locks
    artificials out during phase 2.
    """
    n_rows = len(tableau)
    while True:
        # reduced costs against the current basis
        entering = -1
        for j in range(limit):
            if j in basis:
                continue
            red = cost[j]
            for i in range(n_rows):
                coef = tableau[i][j]
                if coef:
                    red -= cost[basis[i]] * coef
            if red < 0:
                entering = j
                break
        if entering < 0:
            return
        leaving = -1
        best_ratio = None
        for i in range(n_rows):
            coef = tableau[i][entering]
            if coef > 0:
                ratio = tableau[i][-1] / coef
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            raise LpSolveError("exact LP is unbounded, which the box forbids")
        _pivot(tableau, basis, leaving, entering)


def _pivot(tableau, basis, row, col):
    piv = tableau[row][col]
    tableau[row] = [v / piv for v in tableau[row]]
    for i, line in enumerate(tableau):
        if i != row and line[col]:
            factor = line[col]
            tableau[i] = [v - factor * w for v, w in zip(line, tableau[row])]
    basis[row] = col


def lp_solve_exact(
    rows: Sequence[ConstraintRow], objective: Sequence, m: int
) -> tuple[tuple[Fraction, ...], Fraction]:
    """Exact rational optimum of the same LP as lp_solve.

    Two-phase simplex over Fractions with Bland's rule; intended for small
    test instances where it certifies the floating-point route.
    """
    active = [row for row in rows if not row.trivial]
    if not active:
        return (Fraction(0),) * m, Fraction(0)
    n_ge = len(active)
    # columns: x_0..x_{m-1}, surplus s_i per covering row, box slack t_j,
    # then one artificial per covering row
    n_real = m + n_ge + m
    n_cols = n_real + n_ge
    tableau = []
    basis = []
    for i, row in enumerate(active):
        line = [Fraction(0)] * (n_cols + 1)
        for e in range(m):
            line[e] = Fraction(row.coefficient(e))
        line[m + i] = Fraction(-1)
        line[n_real + i] = Fraction(1)
        line[-1] = Fraction(row.rhs)
        tableau.append(line)
        basis.append(n_real + i)
    for j in range(m):
        line = [Fraction(0)] * (n_cols + 1)
        line[j] = Fraction(1)
        line[m + n_ge + j] = Fraction(1)
        line[-1] = Fraction(1)
        tableau.append(line)
        basis.append(m + n_ge + j)

    phase1 = [Fraction(0)] * n_cols
    for i in range(n_ge):
        phase1[n_real + i] = Fraction(1)
    _simplex_min(tableau, basis, phase1, n_cols)
    total = sum(
        tableau[i][-1] for i in range(len(tableau)) if basis[i] >= n_real
    )
    if total != 0:
        raise LpSolveError("exact LP reported infeasible rows", active)
    # drive leftover (degenerate) artificials out of the basis
    for i in range(len(tableau)):
        if basis[i] >= n_real:
            for j in range(n_real):
                if tableau[i][j]:
                    _pivot(tableau, basis, i, j)
                    break

    cost = [Fraction(0)] * n_cols
    for j in range(m):
        cost[j] = Fraction(objective[j])
    _simplex_min(tableau, basis, cost, n_real)

    x = [Fraction(0)] * m
    for i, var in enumerate(basis):
        if var < m:
            x[var] = tableau[i][-1]
    value = sum(Fraction(objective[j]) * x[j] for j in range(m))
    return tuple(x), value


@dataclass(frozen=True)
class RelaxationResult:
    """Optimal fractional solution with the rows that were active at the end."""

    x: tuple
    value: float
    active_rows: tuple[ConstraintRow, ...]
    iterations: int


def solve_relaxation(
    inst: FgcInstance,
    eps: float = DEFAULT_EPS,
    *,
    j_family: str = "full",
    numeric: str = "float",
    on_iterate: Callable[[int, tuple, float], None] | None = None,
) -> RelaxationResult:
    """Cutting-plane solve of the covering LP.

    Seeds the pool with the J-empty rows of all singleton cuts, then
    alternates LP solves with separation, adding the most violated row of
    every violated cut, until separation certifies no violation beyond
    eps.  The float route keeps one HiGHS model for the whole loop and adds
    only the new rows to it, so each solve warm-starts from the last basis.
    The value is a lower bound on the optimal integral cost.
    numeric="exact" runs the rational subsolver over the pool (small
    instances only); pass eps=0 with it for the exact LP optimum.
    """
    if numeric not in ("float", "exact"):
        raise ValueError(f"unknown numeric mode {numeric!r}")
    lp = _HighsLp(inst.cost, inst.m) if numeric == "float" else None
    cap = ITERATIONS_PER_EDGE_VERTEX * inst.m * inst.n

    rows: list[ConstraintRow] = []
    seen = set()
    for v in range(inst.n):
        row = constraint_row(inst, Cut.from_vertices(inst.n, {v}), frozenset())
        if row.key() not in seen:
            seen.add(row.key())
            rows.append(row)

    new = rows
    iterations = 0
    while True:
        if iterations >= cap:
            raise IterationLimitError(
                f"cutting-plane loop exceeded {cap} iterations", iterations, None
            )
        iterations += 1
        if lp is None:
            x, value = lp_solve_exact(rows, inst.cost, inst.m)
        else:
            lp.add(new)
            x, value = lp.solve()
        if on_iterate is not None:
            on_iterate(iterations, x, value)
        violated = _separate_per_cut(inst, x, eps, j_family)
        if not violated:
            return RelaxationResult(
                x=x, value=value, active_rows=tuple(rows), iterations=iterations
            )
        # A pool row can read as violated by just over eps: the LP holds rows
        # only to its feasibility tolerance and x is clipped afterwards.
        new = [row for row in violated if row.key() not in seen]
        if not new:
            raise IterationLimitError(
                "separation returned only rows already in the pool; "
                "LP and separation tolerances are inconsistent",
                iterations,
                float(value),
            )
        seen.update(row.key() for row in new)
        rows.extend(new)
