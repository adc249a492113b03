"""Independent oracles for the Chernoff closed form and the control LP
(not a test module).

The textbook closed form of the divergence, series summation of the tilted
Poisson product, the Poisson log-pmf it sums, the Poisson KL divergence and
the geometric tilted rate.  None of them is on a path the CLI runs; the
divergence and acceptance tests check the cancellation-free form and the
tilt solver in ``pskexp.divergence`` against them.  ``highs_control_lp``
solves ``pskexp.exponent.linprog``'s LP with scipy's HiGHS, for the tests
of the in-package simplex.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np

from pskexp.divergence import RatePair


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


def highs_control_lp(coeffs, energy, budget: float) -> float:
    """HiGHS's optimum of max t over q >= 0 with ``coeffs @ q >= t`` row by
    row, ``energy @ q <= budget`` and ``sum(q) = 1``.

    The interior-point solver with crossover, at feasibility tolerances of
    1e-10, agrees with exact optima to about 1e-14 relative on the control
    LPs; HiGHS's simplex at its default 1e-7 tolerances was seen 3e-10 off.
    Where the interior-point solver ends with an unknown status (some 16-PSK
    LPs), its dual simplex at the same tolerances is used.
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
