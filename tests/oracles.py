"""Independent oracles for the Chernoff closed form and the control LP
(not a test module).

``RatePair`` holds the two rates of a binary test, validated finite and
positive, as the divergence oracles take them: the textbook closed form of
the divergence, series summation of the tilted Poisson product, the Poisson
log-pmf it sums, the Poisson KL divergence and the geometric tilted rate.
None of them is on a path the CLI runs; the
divergence and acceptance tests check the cancellation-free form and the
tilt solver in ``pskexp.divergence`` against them.  ``zero_dark_margin``
is ``pskexp.exponent.convexity_margin`` at r = 0 in its own closed form,
and ``mp_point_exponent`` the BPSK point-mass exponent in mpmath.
``total_variation`` compares two control distributions, matching atoms
within a tolerance, for the tests of the optimizers' and the realized
policies' supports.
``highs_control_lp`` solves ``pskexp.exponent.linprog``'s LP with scipy's
HiGHS, and ``certified_control_lp`` finds its exact optimum in mpmath, for
the tests of the in-package simplex.  ``peak_traced_bytes`` measures a call's peak
allocation, for the tests that bound a kernel's working set.
"""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import dataclass
from decimal import Decimal, localcontext

import mpmath as mp
import numpy as np


@dataclass(frozen=True)
class RatePair:
    """Mean photon counts under the two hypotheses of a binary test."""

    lambda0: float
    lambda1: float

    def __post_init__(self) -> None:
        for name in ("lambda0", "lambda1"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be finite and positive, got {value!r}")


def poisson_log_pmf(rate: float, count: int) -> float:
    """Log-probability of observing ``count`` photons at mean ``rate``.

    Args:
        rate: Poisson mean, must be positive.
        count: nonnegative integer observation.

    Returns:
        ``count*log(rate) - rate - log(count!)``.
    """
    if rate <= 0.0 or not math.isfinite(rate):
        raise ValueError(f"rate must be finite and positive, got {rate!r}")
    if count < 0 or count != int(count):
        raise ValueError(f"count must be a nonnegative integer, got {count!r}")
    return count * math.log(rate) - rate - math.lgamma(count + 1)


def chernoff_s(pair: RatePair, s: float) -> float:
    """Chernoff divergence ``C_s`` in its textbook closed form.

    Args:
        pair: the two hypothesis rates.
        s: tilt parameter in [0, 1].

    Returns:
        ``s*lambda0 + (1-s)*lambda1 - lambda0**s * lambda1**(1-s)``, which is
        nonnegative and zero iff the rates coincide or s is an endpoint.  It
        cancels between terms of the size of the rates, so it loses relative
        accuracy as the rates merge; ``chernoff_values`` does not.
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must lie in [0, 1], got {s!r}")
    l0, l1 = pair.lambda0, pair.lambda1
    mixed = math.exp(s * math.log(l0) + (1.0 - s) * math.log(l1))
    return s * l0 + (1.0 - s) * l1 - mixed


def chernoff_s_decimal(pair: RatePair, s: float) -> float:
    """The textbook closed form in 50-digit decimal arithmetic.

    The binary rates and tilt convert to decimals exactly, so the result is
    ``C_s`` of exactly these inputs, correctly rounded, however close the
    rates are.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        l0, l1, t = Decimal(pair.lambda0), Decimal(pair.lambda1), Decimal(s)
        mixed = (t * l0.ln() + (1 - t) * l1.ln()).exp()
        return float(t * l0 + (1 - t) * l1 - mixed)


def chernoff_s_series(pair: RatePair, s: float, tail_tol: float = 1e-16) -> float:
    """Series evaluation of ``-log sum_y p0(y)**s * p1(y)**(1-s)``.

    Independent of the closed form: sums the tilted product of the two pmfs
    term by term.  Summation stops once the current term has stayed below
    ``tail_tol`` times the accumulated sum for 5 consecutive counts, which
    can only happen past the mode because earlier terms grow.

    Intended as an oracle; the closed form is the production path.
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must lie in [0, 1], got {s!r}")
    total = 0.0
    consecutive_small = 0
    y = 0
    while consecutive_small < 5:
        term = math.exp(
            s * poisson_log_pmf(pair.lambda0, y)
            + (1.0 - s) * poisson_log_pmf(pair.lambda1, y)
        )
        total += term
        if total > 0.0 and term < tail_tol * total:
            consecutive_small += 1
        else:
            consecutive_small = 0
        y += 1
        if y > 100_000:
            raise RuntimeError("series failed to converge within 100000 terms")
    return -math.log(total)


def kl_poisson(rate_a: float, rate_b: float) -> float:
    """KL divergence ``D(Poisson(rate_a) || Poisson(rate_b))``.

    Equals ``rate_a*log(rate_a/rate_b) + rate_b - rate_a``; nonnegative and
    zero iff the rates coincide.
    """
    if rate_a <= 0.0 or rate_b <= 0.0:
        raise ValueError("rates must be positive")
    return rate_a * math.log(rate_a / rate_b) + rate_b - rate_a


def tilted_rate(pair: RatePair, s: float) -> float:
    """Geometric interpolation ``lambda0**s * lambda1**(1-s)`` of the rates.

    At the maximizing tilt this is the rate of the Poisson law sitting
    KL-equidistant between the two hypotheses; see ``max_chernoff``.
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must lie in [0, 1], got {s!r}")
    return math.exp(s * math.log(pair.lambda0) + (1.0 - s) * math.log(pair.lambda1))


def zero_dark_margin(s, v):
    """The energy-convexity margin at zero dark counts in closed form,
    ``4s(1-2s)v + (1-v)**(2(1-s)) * [(1+v)**(2s) - (1-v)**(2s)]``, for floats
    or arrays of s and v that broadcast against each other.  It is
    ``convexity_margin(s, 0, v)`` with the rates (1 -+ v)**2 put in, not
    through ``chernoff_values``."""
    return 4.0 * s * (1.0 - 2.0 * s) * v + (1.0 - v) ** (2.0 * (1.0 - s)) * (
        (1.0 + v) ** (2.0 * s) - (1.0 - v) ** (2.0 * s)
    )


def mp_point_exponent(v, r):
    """P(v) = max_s C_s((1 - v)**2 + r, (1 + v)**2 + r), the BPSK point-mass
    exponent, at the closed-form tilt and mpmath's working precision."""
    lam0, lam1 = (1 - v) ** 2 + r, (1 + v) ** 2 + r
    x = mp.log(lam0 / lam1)
    s = mp.log(mp.expm1(x) / x) / x
    return s * lam0 + (1 - s) * lam1 - lam0**s * lam1 ** (1 - s)


def total_variation(p, q, match_tol=1e-4) -> float:
    """Total variation distance between two ``ControlDistribution``s,
    identifying atoms within ``match_tol``.

    Exact TV between finitely supported measures is discontinuous in
    atom locations (nearby but distinct atoms count as disjoint), which
    makes it useless for comparing numerically optimized supports.
    Atoms closer than ``match_tol`` (on the unit-normalized control
    scale) are therefore treated as one location.  The default absorbs
    float- and polish-level jitter while still separating genuinely
    distinct support points such as 0.949 vs 1.0.
    """
    entries = [(point, w, 0.0) for point, w in p.atoms]
    entries += [(point, 0.0, w) for point, w in q.atoms]
    entries.sort(key=lambda e: (e[0].real, e[0].imag))
    tv = 0.0
    group_p = group_q = 0.0
    anchor = entries[0][0]
    for point, w_p, w_q in entries:
        if abs(point - anchor) > match_tol:
            tv += abs(group_p - group_q)
            group_p = group_q = 0.0
            anchor = point
        group_p += w_p
        group_q += w_q
    tv += abs(group_p - group_q)
    return 0.5 * tv


def highs_control_lp(coeffs, energy, budget: float) -> float:
    """HiGHS's optimum of max t over q >= 0 with ``coeffs @ q >= t`` row by
    row, ``energy @ q <= budget`` and ``sum(q) = 1``.

    The interior-point solver with crossover, at feasibility tolerances of
    1e-10, overstates some control LPs' optima by up to ~2e-12 relative
    (``certified_control_lp`` gives the exact ones); HiGHS's simplex at its
    default 1e-7 tolerances was seen 3e-10 off.  Where the interior-point
    solver ends with an unknown status (some 16-PSK LPs), its dual simplex
    at the same tolerances is used.
    """
    from scipy.optimize import linprog

    rows, n = coeffs.shape
    cost = np.zeros(n + 1)
    cost[-1] = -1.0
    tolerances = {
        "primal_feasibility_tolerance": 1e-10,
        "dual_feasibility_tolerance": 1e-10,
    }
    for method, options in (
        ("highs-ipm", {**tolerances, "ipm_optimality_tolerance": 1e-12}),
        ("highs-ds", tolerances),
    ):
        result = linprog(
            cost,
            A_ub=np.vstack(
                [np.hstack([-coeffs, np.ones((rows, 1))]), np.append(energy, 0.0)]
            ),
            b_ub=np.append(np.zeros(rows), budget),
            A_eq=np.append(np.ones(n), 0.0)[None, :],
            b_eq=[1.0],
            bounds=[(0.0, None)] * n + [(None, None)],
            method=method,
            options=options,
        )
        if result.status == 0:
            return -result.fun
    raise RuntimeError(f"HiGHS failed: {result.message}")


#: A float product ``w @ a[:, j]`` is trusted for its sign only when it is
#: farther than ``SCREEN * (1 + |w| @ |a[:, j]|)`` from zero (its rounding
#: error is below ~1e-14 times that sum); nearer, it is re-evaluated in
#: mpmath.
SCREEN = 1e-11

#: Working precision of ``certified_control_lp``; values within 1e-25 of
#: zero count as zero.  Its bases have condition numbers up to ~1e17.
EXACT_DIGITS = 40

#: Pivots ``certified_control_lp`` may take from its start (at most 48 on
#: the control LPs of the tests).
MAX_EXACT_PIVOTS = 500


class _ExactBasis:
    """A basis of ``certified_control_lp``'s equality form, LU-factorized in
    mpmath.  Slack columns are unit vectors, so only the block of the other
    basic columns on the rows without a basic slack is factorized."""

    def __init__(self, basis, first_slack, exact):
        m = len(basis)
        self.basis, self.exact = basis, exact
        self.slack = {p: j - first_slack for p, j in enumerate(basis) if j >= first_slack}
        self.others = [p for p in range(m) if p not in self.slack]
        self.rows = sorted(set(range(m)) - set(self.slack.values()))
        lu = [[exact(i, basis[p]) for p in self.others] for i in self.rows]
        k = len(lu)
        perm = list(range(k))
        for c in range(k):
            p = max(range(c, k), key=lambda i: abs(lu[i][c]))
            lu[c], lu[p] = lu[p], lu[c]
            perm[c], perm[p] = perm[p], perm[c]
            for i in range(c + 1, k):
                f = lu[i][c] = lu[i][c] / lu[c][c]
                if f:
                    for j in range(c + 1, k):
                        lu[i][j] -= f * lu[c][j]
        self.lu, self.perm = lu, perm

    def solve(self, rhs: dict) -> dict:
        """B u = rhs, given by row as a dict; u by basis position."""
        lu, k = self.lu, len(self.lu)
        x = [rhs.get(self.rows[p], 0) for p in self.perm]
        for i in range(k):
            x[i] -= mp.fdot(lu[i][:i], x[:i])
        for i in reversed(range(k)):
            x[i] = (x[i] - mp.fdot(lu[i][i + 1 :], x[i + 1 :])) / lu[i][i]
        u = dict(zip(self.others, x))
        for p, i in self.slack.items():
            u[p] = rhs.get(i, 0) - mp.fdot(
                [self.exact(i, self.basis[q]) for q in self.others], x
            )
        return u

    def solve_t(self, rhs: list) -> dict:
        """B^T w = rhs, given by basis position; w by row as a dict."""
        lu, k = self.lu, len(self.lu)
        w = {i: rhs[p] for p, i in self.slack.items() if rhs[p]}
        v = [
            rhs[q] - mp.fsum(self.exact(i, self.basis[q]) * wi for i, wi in w.items())
            for q in self.others
        ]
        for i in range(k):
            v[i] = (v[i] - mp.fdot([lu[j][i] for j in range(i)], v[:i])) / lu[i][i]
        for i in reversed(range(k)):
            v[i] -= mp.fdot([lu[j][i] for j in range(i + 1, k)], v[i + 1 :])
        w.update((self.rows[p], v[i]) for i, p in enumerate(self.perm) if v[i])
        return w


def certified_control_lp(coeffs, energy, budget: float, basis) -> float:
    """Exact optimum of ``highs_control_lp``'s LP on its float data, with a
    basis that is primal and dual feasible in ``EXACT_DIGITS``-digit
    arithmetic.

    The LP is put in ``pskexp.simplex.linprog``'s equality form (grid
    weights, then t, then a slack per pair row and the energy row), and
    ``basis`` (indices into it, normally the basis a solve ended on) is the
    start.  Each step re-solves the basis in mpmath: a basic variable below
    zero leaves by a dual simplex pivot, else the lowest-index column with a
    positive reduced cost enters by a primal one (Bland's rule), until there
    is neither; the t of that basis is the optimum, to far below float
    precision.  A start the float solve left a little infeasible (basic
    weights near -1e-12) or not dual feasible (a stalled solve) only costs
    pivots; one that needs more than ``MAX_EXACT_PIVOTS`` raises.  Signs are
    read from a float pass and re-evaluated exactly where it is within its
    rounding margin (``SCREEN``) of zero.
    """
    rows, n = coeffs.shape
    m = rows + 2
    a = np.zeros((m, n + 2 + rows))
    a[:rows, :n] = -coeffs
    a[:rows, n] = 1.0
    a[rows, :n] = energy
    a[-1, :n] = 1.0
    a[:-1, n + 1 :] = np.eye(rows + 1)
    cost = np.zeros(a.shape[1])
    cost[n] = 1.0
    basis = [int(j) for j in basis]
    cache: dict = {}

    def exact(i, j):
        if (i, j) not in cache:
            cache[i, j] = mp.mpf(float(a[i, j]))
        return cache[i, j]

    def dot(w, j):
        return mp.fsum(wi * exact(i, j) for i, wi in w.items())

    magnitudes = np.abs(a)

    def screened(w):
        """Float ``w @ a`` and the margin within which its signs are not
        trusted."""
        f = np.zeros(m)
        f[list(w)] = [float(v) for v in w.values()]
        return f @ a, SCREEN * (1.0 + np.abs(f) @ magnitudes)

    with mp.workdps(EXACT_DIGITS):
        tol = mp.mpf(10) ** (15 - EXACT_DIGITS)
        b = {rows: mp.mpf(float(budget)), rows + 1: mp.mpf(1)}
        for _ in range(MAX_EXACT_PIVOTS + 1):
            factor = _ExactBasis(basis, n + 1, exact)
            z = factor.solve(b)
            y = factor.solve_t([mp.mpf(cost[j]) for j in basis])
            nonbasic = np.ones(a.shape[1], bool)
            nonbasic[basis] = False
            priced, margin = screened(y)
            reduced = cost - priced
            negative = [p for p in range(m) if z[p] < -tol]
            if negative:
                p = min(negative, key=lambda p: basis[p])
                w = factor.solve_t([mp.mpf(q == p) for q in range(m)])
                alpha, alpha_margin = screened(w)
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = np.where(alpha < -alpha_margin, reduced / alpha, np.inf)
                # The float ratios only shortlist; the exact ones choose.
                near = nonbasic & (
                    (ratio <= ratio[nonbasic].min() + SCREEN)
                    | (np.abs(alpha) <= alpha_margin)
                )
                best = None
                for j in np.flatnonzero(near):
                    alpha_j = dot(w, j)
                    if alpha_j < -tol:
                        r = (cost[j] - dot(y, j)) / alpha_j
                        if best is None or r < best[0]:
                            best = (r, int(j))
                if best is None:
                    raise RuntimeError("infeasible LP")
                basis[p] = best[1]
                continue
            entering = next(
                (
                    int(j)
                    for j in np.flatnonzero(nonbasic & (reduced > -margin))
                    if reduced[j] > margin[j] or cost[j] - dot(y, j) > tol
                ),
                None,
            )
            if entering is None:
                return float(z[basis.index(n)]) if n in basis else 0.0
            u = factor.solve(
                {i: exact(i, entering) for i in np.flatnonzero(a[:, entering]).tolist()}
            )
            leaving = [p for p in range(m) if u[p] > tol]
            if not leaving:
                raise RuntimeError("unbounded LP")
            p = min(leaving, key=lambda p: (z[p] / u[p], basis[p]))
            basis[p] = entering
    raise RuntimeError(f"no certified basis within {MAX_EXACT_PIVOTS} pivots")


def peak_traced_bytes(call) -> int:
    """Peak bytes allocated through Python and numpy while ``call()`` runs,
    above what was allocated when it started (``tracemalloc``)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
