"""Revised primal simplex for the control LP of ``optimize_general``.

``linprog`` maximizes the worst row of ``coeffs @ q`` over distributions q
on a grid under an energy budget: a few hundred rows at most (hypothesis
pairs plus two) and a few thousand columns, with the origin's column
giving a feasible start.  It keeps the basis inverse dense, prices every
column with one matrix-vector product and breaks ties by the lowest index,
so its result is the same on every run and for any number of BLAS threads.
The final weights get one step of iterative refinement, so they reach the
optimum the basis attains even where the basis is ill-conditioned.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

#: Revised simplex of ``linprog``: pivots between refactorizations of the
#: basis inverse, smallest pivot element, smallest reduced cost that enters,
#: most negative basic value left at the optimum, run of degenerate pivots
#: before Bland's rule, and pivot cap.
REFACTOR_EVERY = 64
PIVOT_TOL = 1e-9
PRICE_TOL = 1e-13
FEASIBILITY_TOL = 1e-12
DEGENERATE_STREAK = 16
MAX_PIVOTS = 20000

#: A pivot that raises the objective by at most this fraction of it is
#: degenerate; a solve stops once it gains no more between two restarts.
STALL_RTOL = 1e-14


class SimplexResult(NamedTuple):
    """Outcome of ``linprog``: grid weights ``x`` (their objective is
    ``min(coeffs @ x)``), pivots ``nit``, refactorizations of the basis
    inverse and the status."""

    x: np.ndarray
    nit: int
    refactorizations: int
    success: bool
    message: str


def _gauss_jordan_inverse(matrix: np.ndarray) -> np.ndarray:
    """Inverse by Gauss-Jordan elimination with partial pivoting, in
    elementwise numpy steps: unlike LAPACK's, the result does not depend on
    how many threads BLAS runs."""
    k = len(matrix)
    work = np.hstack([matrix, np.eye(k)])
    for i in range(k):
        p = i + int(np.argmax(np.abs(work[i:, i])))
        work[[i, p]] = work[[p, i]]
        work[i] /= work[i, i]
        column = work[:, i].copy()
        column[i] = 0.0
        work -= np.outer(column, work[i])
    return work[:, k:]


def _basis_inverse(a: np.ndarray, basis: np.ndarray, first_slack: int) -> np.ndarray:
    """Inverse of the basis matrix ``a[:, basis]`` whose columns from
    ``first_slack`` on are unit vectors (slack j on row j - first_slack).

    Ordering the basic slacks' rows S first and the other basic columns K
    last makes the basis block triangular, [[I, P], [0, Q]] with Q the rows
    R without a basic slack; its inverse is [[I, -P Q^-1], [0, Q^-1]], so
    only Q, usually far smaller than the basis, is inverted.
    """
    m = len(basis)
    is_slack = basis >= first_slack
    slacks = np.flatnonzero(is_slack)
    others = np.flatnonzero(~is_slack)
    rows_s = basis[slacks] - first_slack
    rows_r = np.setdiff1d(np.arange(m), rows_s)
    q_inverse = _gauss_jordan_inverse(a[np.ix_(rows_r, basis[others])])
    p = a[np.ix_(rows_s, basis[others])]
    inverse = np.zeros((m, m))
    inverse[slacks, rows_s] = 1.0
    inverse[np.ix_(slacks, rows_r)] = -(p[:, :, None] * q_inverse).sum(axis=1)
    inverse[np.ix_(others, rows_r)] = q_inverse
    return inverse


def linprog(coeffs: np.ndarray, energy: np.ndarray, budget: float) -> SimplexResult:
    """Maximize t over grid weights q >= 0 with ``coeffs @ q >= t`` row by
    row, ``energy @ q <= budget`` and ``sum(q) = 1``, by revised primal
    simplex.

    Column 0 must be the origin: zero energy and coefficients ~0 (its rates
    agree), so the basis {column 0, every slack} is feasible at t = 0.  The
    basis inverse is kept dense, updated by one rank-1 step per pivot and
    recomputed (``_basis_inverse``) every ``REFACTOR_EVERY`` pivots and
    before optimality is declared.  Each pass prices every column with one
    product by the dual vector; the largest reduced cost enters (Dantzig's
    rule, ties to the lowest column index), and among the rows that tie in
    the ratio test,
    over pivot elements above ``PIVOT_TOL``, the largest pivot element
    leaves.  After ``DEGENERATE_STREAK`` pivots in a row that raise the
    objective by at most ``STALL_RTOL`` of it, Bland's rule (lowest entering
    column, lowest leaving variable) is used until one does better.  A basic
    weight that the skipped small pivot elements left below
    ``-FEASIBILITY_TOL`` at the optimum leaves by a dual simplex pivot.
    Rounding can keep two nearly collinear columns swapping forever, each
    priced in by ~1e-10 on a fresh inverse; so the solve stops, as
    converged, when a refactorization interval of Bland pivots or the
    pivots between two restarts on a fresh inverse gain no more than
    ``STALL_RTOL``.  The final basic weights get one step of iterative
    refinement against the residual ``b - B @ xb`` (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, ch. 12): on an ill-conditioned
    basis the explicit inverse alone leaves them short of the objective the
    basis attains.  Then negative dust is clipped and the weights rescaled
    to sum to 1.
    """
    rows, n = coeffs.shape
    m = rows + 2
    # Equality form over z = (q, t, a slack per pair row and the energy row).
    a = np.zeros((m, n + 2 + rows))
    a[:rows, :n] = -coeffs
    a[:rows, n] = 1.0
    a[rows, :n] = energy
    a[-1, :n] = 1.0
    a[:-1, n + 1 :] = np.eye(rows + 1)
    b = np.zeros(m)
    b[rows] = budget
    b[-1] = 1.0
    cost = np.zeros(a.shape[1])
    cost[n] = 1.0
    basis = np.concatenate([np.arange(n + 1, n + 2 + rows), [0]])

    def refactor():
        inverse = _basis_inverse(a, basis, n + 1)
        return inverse, inverse @ b

    binv, xb = refactor()
    refactors = 1
    pivots = fresh = streak = 0
    mark = restart = -np.inf
    status = "optimal"
    while True:
        reduced = cost - (cost[basis] @ binv) @ a
        reduced[basis] = 0.0
        if streak >= DEGENERATE_STREAK:
            entering = np.flatnonzero(reduced > PRICE_TOL)
            j = int(entering[0]) if entering.size else -1
        else:
            j = int(np.argmax(reduced))
            j = j if reduced[j] > PRICE_TOL else -1
        if j < 0 and fresh:
            # Optimal on an updated inverse: recompute it and price again.
            binv, xb = refactor()
            refactors += 1
            fresh = 0
            objective = cost[basis] @ xb
            if objective - restart <= STALL_RTOL * abs(objective):
                status = "stalled: no gain between restarts"
                break
            restart = objective
            continue
        if pivots == MAX_PIVOTS:
            status = f"pivot cap {MAX_PIVOTS} reached"
            break
        if j >= 0:
            u = binv @ a[:, j]
            eligible = u > PIVOT_TOL
            if not eligible.any():
                status = "unbounded"
                break
            ratios = np.full(m, np.inf)
            ratios[eligible] = np.maximum(xb[eligible], 0.0) / u[eligible]
            ties = np.flatnonzero(ratios == ratios.min())
            if streak >= DEGENERATE_STREAK:
                r = int(ties[np.argmin(basis[ties])])
            else:
                r = int(ties[np.argmax(u[ties])])
            theta = ratios[r]
        else:
            r = int(np.argmin(xb))
            if xb[r] >= -FEASIBILITY_TOL:
                break
            # Dual simplex pivot: the negative basic weight leaves, and the
            # column that keeps every reduced cost <= 0 enters.
            row = binv[r] @ a
            row[basis] = 0.0
            eligible = row < -PIVOT_TOL
            if not eligible.any():
                status = "infeasible"
                break
            ratios = np.full(len(row), np.inf)
            ratios[eligible] = np.minimum(reduced[eligible], 0.0) / row[eligible]
            j = int(np.argmin(ratios))
            u = binv @ a[:, j]
            theta = xb[r] / u[r]
            restart = -np.inf
        xb -= theta * u
        xb[r] = theta
        pivot_row = binv[r] / u[r]
        binv -= np.outer(u, pivot_row)
        binv[r] = pivot_row
        basis[r] = j
        pivots += 1
        fresh += 1
        objective = cost[basis] @ xb
        gain = theta * reduced[j]
        streak = streak + 1 if gain <= STALL_RTOL * abs(objective) else 0
        if fresh == REFACTOR_EVERY:
            binv, xb = refactor()
            refactors += 1
            fresh = 0
            objective = cost[basis] @ xb
            if streak >= DEGENERATE_STREAK + REFACTOR_EVERY and (
                objective - mark <= STALL_RTOL * abs(objective)
            ):
                status = "stalled: a refactorization interval gained nothing"
                break
            mark = objective
    xb += binv @ (b - a[:, basis] @ xb)
    x = np.zeros(n)
    in_grid = basis < n
    x[basis[in_grid]] = np.maximum(xb[in_grid], 0.0)
    x /= x.sum()
    return SimplexResult(
        x=x,
        nit=pivots,
        refactorizations=refactors,
        success=status == "optimal" or status.startswith("stalled"),
        message=status,
    )
