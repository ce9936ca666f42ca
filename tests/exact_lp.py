"""Exact rational LP over the cutting-plane pool, the tests' certificate
for the floating-point route.

lp_solve_exact minimizes the same LP as flexconn.relaxation.lp_solve, in
Fractions by two-phase simplex with Bland's rule, so a float optimum can
be checked exactly on small instances.  No solver path calls it.
"""

from fractions import Fraction
from typing import Sequence

from flexconn import ConstraintRow, LpSolveError


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
        for e, c in zip(row.k, row.coef):
            line[e] = Fraction(c)
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
