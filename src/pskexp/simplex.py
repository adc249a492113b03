"""Revised primal simplex for the control LP of ``optimize_general``.

``linprog`` maximizes the worst row of ``coeffs @ q`` over distributions q
on a grid under an energy budget, with the origin's column giving a
feasible start.  ``optimize_general`` passes it only the pair rows that
bind, about M of the M(M-1)/2 hypothesis pairs, so an LP has about M + 2
rows and up to a few thousand columns.  It keeps the basis inverse
dense, inverts the whole basis on each refactorization, prices every
column with one matrix-vector product and breaks ties by the lowest index,
so its result is the same on every run and for any number of BLAS threads.
It ends on a basis that is optimal on a freshly computed inverse, or, where
rounding keeps pricing columns in, when a restart returns to an earlier
basis.  The final weights get one step of iterative refinement, so they
reach the optimum the basis attains even where the basis is ill-conditioned.
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
#: degenerate; ``DEGENERATE_STREAK`` of them in a row switch to Bland's rule.
DEGENERATE_RTOL = 1e-14

#: The one stall exit: a restart returned to the basis of an earlier one.
STALLED = "stalled: a restart repeated a basis"


class SimplexResult(NamedTuple):
    """Outcome of ``linprog``: grid weights ``x`` (their objective is
    ``min(coeffs @ x)``), pivots ``nit``, refactorizations of the basis
    inverse and the status."""

    x: np.ndarray
    nit: int
    refactorizations: int
    success: bool
    message: str


def _basis_inverse(a: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Inverse of the basis matrix ``a[:, basis]`` by Gauss-Jordan
    elimination with partial pivoting, in elementwise numpy steps: unlike
    LAPACK's, the result does not depend on how many threads BLAS runs."""
    k = len(basis)
    work = np.hstack([a[:, basis], np.eye(k)])
    for i in range(k):
        p = i + int(np.argmax(np.abs(work[i:, i])))
        work[[i, p]] = work[[p, i]]
        work[i] /= work[i, i]
        column = work[:, i].copy()
        column[i] = 0.0
        work -= np.outer(column, work[i])
    return work[:, k:]


def linprog(coeffs: np.ndarray, energy: np.ndarray, budget: float) -> SimplexResult:
    """Maximize t over grid weights q >= 0 with ``coeffs @ q >= t`` row by
    row, ``energy @ q <= budget`` and ``sum(q) = 1``, by revised primal
    simplex.

    Column 0 must be the origin: zero energy and coefficients ~0 (its rates
    agree), so the basis {column 0, every slack} is feasible at t = 0.  The
    pair rows, and the energy row with its budget, are first scaled by
    powers of two (exactly, with ``np.ldexp``) that bring each block's
    largest entry into [1, 2), so the absolute tolerances below mean the
    same at every scale of the control disk; the weights are unchanged.  The
    basis inverse is kept dense, (rows + 2)**2, and updated by one rank-1
    step per pivot, so the solve is meant for few rows.
    Each pass prices every column with one product by the dual vector; the
    largest reduced cost enters (Dantzig's rule, ties to the lowest column
    index), and among the rows that tie in the ratio test, over pivot
    elements above ``PIVOT_TOL``, the largest pivot element leaves.  After
    ``DEGENERATE_STREAK`` pivots in a row that raise the objective by at
    most ``DEGENERATE_RTOL`` of it, Bland's rule (lowest entering column,
    lowest leaving variable) is used until one does better.  The inverse is
    recomputed whole (``_basis_inverse``) in one place, before the columns are
    priced: once the updated inverse has taken ``REFACTOR_EVERY`` pivots,
    or when it has priced nothing in, which is a restart.  A basic weight
    that the skipped small pivot elements left below ``-FEASIBILITY_TOL``
    on a fresh inverse leaves by a dual simplex pivot, and a fresh inverse
    that prices nothing in and has no such weight is optimal.  Rounding can
    keep the solve from getting there: a primal pivot that leaves a weight
    at ~-1e-11 and the dual pivot that removes it can alternate forever.
    So the solve stops, as converged, when a restart returns to the basis of
    an earlier one.  The final basic weights get one step of iterative
    refinement against the residual ``b - B @ xb`` (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, ch. 12): on an ill-conditioned
    basis the explicit inverse alone leaves them short of the objective the
    basis attains.  Then negative dust is clipped and the weights rescaled
    to sum to 1.
    """
    rows, n = coeffs.shape
    m = rows + 2
    # Equality form over z = (q, t, a slack per pair row and the energy row).
    pair_shift = 1 - np.frexp(np.max(np.abs(coeffs)))[1]
    energy_shift = 1 - np.frexp(np.max(energy))[1]
    a = np.zeros((m, n + 2 + rows))
    np.ldexp(-coeffs, pair_shift, out=a[:rows, :n])
    a[:rows, n] = 1.0
    a[rows, :n] = np.ldexp(energy, energy_shift)
    a[-1, :n] = 1.0
    a[:-1, n + 1 :] = np.eye(rows + 1)
    b = np.zeros(m)
    b[rows] = np.ldexp(budget, energy_shift)
    b[-1] = 1.0
    cost = np.zeros(a.shape[1])
    cost[n] = 1.0
    basis = np.concatenate([np.arange(n + 1, n + 2 + rows), [0]])

    def refactor():
        inverse = _basis_inverse(a, basis)
        return inverse, inverse @ b

    binv, xb = refactor()
    refactors = 1
    pivots = fresh = streak = 0
    restarted = set()
    priced_out = False
    status = "optimal"
    while True:
        if priced_out or fresh == REFACTOR_EVERY:
            # Recompute the updated inverse before pricing; one that priced
            # nothing in makes this a restart.
            binv, xb = refactor()
            refactors += 1
            fresh = 0
            if priced_out:
                key = np.sort(basis).tobytes()
                if key in restarted:
                    status = STALLED
                    break
                restarted.add(key)
        reduced = cost - (cost[basis] @ binv) @ a
        reduced[basis] = 0.0
        if streak >= DEGENERATE_STREAK:
            entering = np.flatnonzero(reduced > PRICE_TOL)
            j = int(entering[0]) if entering.size else -1
        else:
            j = int(np.argmax(reduced))
            j = j if reduced[j] > PRICE_TOL else -1
        priced_out = fresh > 0 and j < 0
        if priced_out:
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
        xb -= theta * u
        xb[r] = theta
        pivot_row = binv[r] / u[r]
        binv -= np.outer(u, pivot_row)
        binv[r] = pivot_row
        basis[r] = j
        pivots += 1
        fresh += 1
        gain = theta * reduced[j]
        streak = streak + 1 if gain <= DEGENERATE_RTOL * abs(cost[basis] @ xb) else 0
    xb += binv @ (b - a[:, basis] @ xb)
    x = np.zeros(n)
    in_grid = basis < n
    x[basis[in_grid]] = np.maximum(xb[in_grid], 0.0)
    x /= x.sum()
    return SimplexResult(
        x=x,
        nit=pivots,
        refactorizations=refactors,
        success=status in ("optimal", STALLED),
        message=status,
    )
