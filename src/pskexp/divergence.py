"""Chernoff information between Poisson observation laws.

A photon counter observing a weak optical mode sees a Poisson-distributed
count whose mean depends on the hypothesis.  Discriminating two hypotheses
with per-slice means ``lambda0`` and ``lambda1`` is governed by the Chernoff
divergence

    C_s(lambda0, lambda1) = s*lambda0 + (1-s)*lambda1
                            - lambda0**s * lambda1**(1-s),   s in [0, 1],

which is the closed form of ``-log sum_y p0(y)**s * p1(y)**(1-s)`` for
Poisson laws.  The rates are finite and positive: every mean the package
forms comes from ``normalized_rates`` with the dark ratio ``r_sn > 0``.
``chernoff_values`` is the package's one evaluator of ``C_s``, without
cancellation between the rates (the optimizers and ``convexity_margin``
call it).  This module also maximizes mixtures of it over ``s`` with one
safeguarded Newton solver (``max_chernoff_mixtures``; ``max_chernoff`` is
its case of two rates); ``s_star_log`` gives a single pair's maximizer in
closed form.  ``max_chernoff_mixtures`` takes a table of rates and the
indices of each pair's two rows, and walks the pairs in row blocks of at
most ``BLOCK_ELEMENTS`` elements, so its working set does not grow with the
number of pairs.
``max_chernoff_slopes`` gives a pair's closed-form maximum with its
logarithmic derivative along a path of rates, by the envelope theorem, and
``polish_max`` maximizes a piecewise smooth function from such slopes with
``brent_root``, a bracketed root finder: they are the binary optimizer's
polish.  ``golden_section_max``, the scalar search they replaced, is no
longer called by the package; it stays importable here and from
``pskexp.exponent`` because ``bench/tracing.py`` binds it under both names.
The textbook closed form and the independent series, KL and
tilted-rate oracles the tests check this module against live in
``tests/oracles.py``.

Facts relied on elsewhere and tested:

* ``C_s`` is strictly concave in ``s`` on [0, 1] when the rates differ and
  vanishes at both endpoints.
* The maximizing ``s*`` solves the stationarity condition
  ``lambda0**s * lambda1**(1-s) = (lambda1 - lambda0) / log(lambda1/lambda0)``
  and depends on the rates only through their ratio:
  ``s* = S(R) = log((R - 1)/log R) / log R`` with ``R = lambda0/lambda1``.
* ``S`` maps (0, 1) strictly increasingly into (0, 1/2), approaching 1/2 as
  the rates merge.
* The Poisson law with the tilted rate ``lambda0**s* * lambda1**(1-s*)`` is
  KL-equidistant from both hypotheses, and that common distance equals the
  maximal Chernoff value.
* Scaling both rates by ``c > 0`` scales ``C_s`` by ``c``; this is what turns
  a per-slice divergence into an exponent in the total photon number.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

#: Relative tolerance below which two rates are treated as equal, making the
#: divergence identically zero and the maximizer conventionally 1/2.
EQUAL_RATE_RTOL = 1e-14

#: ``golden_section_max`` (no longer called by the package) stops once its
#: bracket is this narrow, or after this many steps.
GOLDEN_TOL = 1e-10
GOLDEN_MAX_ITER = 200

#: ``brent_root`` stops once its bracket is this narrow relative to its
#: best end: a few ulps.
BRENT_RTOL = 2.0 * np.finfo(float).eps

#: Evaluations ``polish_max`` allows its root searches, past its cuts.
POLISH_EVALUATIONS = 24

#: Largest argument ``max_chernoff_slopes`` passes to ``expm1``, so that
#: its factors stay finite.
EXP_CAP = 700.0

#: Smallest normal float: a rate ratio below it is not taken as a quotient.
TINY = np.finfo(float).tiny

#: A row of ``max_chernoff_mixtures`` stops once its tilt moves by at most
#: this much, or after this many steps.
NEWTON_TOL = 1e-14
NEWTON_MAX_ITER = 100

#: Elements of a (pairs, n) rate array ``max_chernoff_mixtures`` holds at
#: once: longer tables are walked in blocks of ``BLOCK_ELEMENTS // n`` pair
#: rows (at least one).  Every row is computed on its own, so the block size
#: changes no result, only the size of the temporaries.
BLOCK_ELEMENTS = 1 << 15


class ChernoffOptimum(NamedTuple):
    """Maximizing tilt and value of a Chernoff divergence or of a mixture."""

    s_star: float
    value: float


def _oriented(lambda0: np.ndarray, lambda1: np.ndarray):
    """``(small, big, x, flip)``: the smaller and larger rate, ``x =
    log(small/big) <= 0`` and whether ``lambda0`` is the larger.
    ``C_s(lambda0, lambda1)`` equals ``C_t(small, big)`` with ``t = 1 - s``
    where ``flip`` and ``t = s`` elsewhere, so no exponential of a positive
    ``x`` can overflow.

    Where the rates are within a factor 2, ``x`` is
    ``log1p((small - big)/big)``: the difference is exact there, so ``x``
    keeps its relative accuracy as the rates merge, where ``log(small/big)``
    would carry an absolute error of about eps.  Elsewhere ``x`` is
    ``log(small/big)``, whose relative error is already below 2 eps there,
    and ``log(small) - log(big)`` where the ratio leaves the normal range."""
    flip = lambda0 > lambda1
    small = np.where(flip, lambda1, lambda0)
    big = np.where(flip, lambda0, lambda1)
    # Positive finite rates raise only divide-by-zero here: log1p(-1) in the
    # branch not taken, and log(0) of an underflowed ratio, replaced below.
    with np.errstate(divide="ignore"):
        ratio = small / big
        x = np.where(ratio > 0.5, np.log1p((small - big) / big), np.log(ratio))
        # Below the normal range the ratio loses digits or underflows.
        if ratio.min() < TINY:
            x = np.where(ratio < TINY, np.log(small) - np.log(big), x)
    return small, big, x, flip


def chernoff_values(
    lambda0: np.ndarray, lambda1: np.ndarray, s: float | np.ndarray
) -> np.ndarray:
    """Vectorized ``C_s`` over arrays of rate pairs.

    Computed as ``big*(t*expm1(x) - expm1(t*x))`` on the oriented rates of
    ``_oriented``, with ``big*expm1(x)`` taken as ``small - big``.  The
    textbook form subtracts terms of the size of the rates, so its relative
    error grows like eps/x**2 as the rates merge.  Here terms of order
    ``x`` cancel, and with ``x`` accurate to a few eps relative (see
    ``_oriented``) the error grows like eps/|x|: under 2e-7 relative at
    BPSK v = 1e-9 on the given rates, where ``x = log(small/big)``, off by
    eps absolute, gave the wrong sign.  Values are never negative.
    ``s`` is a tilt or an array of tilts broadcasting against the
    rates, such as a ``(rows, 1)`` column giving each row of ``(rows, n)``
    rate arrays its own tilt.  It may instead be a function of the oriented
    log-ratio ``x`` that gives the tilt ``t`` of ``C_t(small, big)``
    directly: ``chernoff_values(lambda0, lambda1, s_star_log)`` is each
    pair's maximum over the tilt, with the rates oriented once.

    Rates must be finite and positive, as every Poisson mean of the package
    is (the dark ratio ``r_sn`` is).  A single zero rate against a positive
    one still gives the limit ``C_s(0, lambda1) = (1-s)*lambda1`` for s in
    (0, 1]; ``C_0(0, lambda1)`` and ``C_s(0, 0)`` are NaN, with numpy's
    invalid-value warning.
    """
    small, big, x, flip = _oriented(
        np.asarray(lambda0, dtype=float), np.asarray(lambda1, dtype=float)
    )
    t = s(x) if callable(s) else np.where(flip, 1.0 - s, s)
    return np.maximum(t * (small - big) - big * np.expm1(t * x), 0.0)


def _row_blocks(rows: int, width: int) -> list[slice]:
    """Consecutive slices covering ``rows`` rows of ``width`` elements, each
    of at most ``BLOCK_ELEMENTS`` elements (at least one row)."""
    step = max(1, BLOCK_ELEMENTS // max(width, 1))
    return [slice(start, start + step) for start in range(0, rows, step)]


def _expm1_minus_x(x: np.ndarray) -> np.ndarray:
    """``exp(x) - 1 - x`` to full relative accuracy, by its Taylor series
    where ``expm1(x) - x`` would cancel (``|x| < 0.1``; the first omitted
    term is below 1e-18 of the sum there)."""
    series = 1.0
    for k in range(11, 2, -1):
        series = 1.0 + x / k * series
    return np.where(np.abs(x) < 0.1, 0.5 * x * x * series, np.expm1(x) - x)


def max_chernoff_mixtures(
    table: np.ndarray,
    lefts: Sequence[int],
    rights: Sequence[int],
    weights: np.ndarray,
) -> list[ChernoffOptimum]:
    """Maximize ``F_p(s) = sum_a weights[a] * C_s(table[lefts[p], a],
    table[rights[p], a])`` over s in [0, 1] for every pair p of rows of a
    ``(states, atoms)`` rate table, such as ``normalized_rates`` gives.

    ``F_p`` is a weighted sum of functions strictly concave in ``s`` (unless
    every atom of the pair has equal rates), so its maximizer is the root of
    ``F_p'(s) = sum_a w*lambda1*(expm1(x) - x*exp(s*x))``, ``x =
    log(lambda0/lambda1)`` with ``lambda0``, ``lambda1`` the pair's two rows,
    at which ``F_p'' = -sum_a w*lambda1*x**2*exp(s*x) < 0``; both are taken
    on the oriented rates of ``_oriented``, and ``expm1(x) - x`` by
    ``_expm1_minus_x``, so ``F_p'`` keeps its relative accuracy as the rates
    merge.  ``F_p'(0) > 0 > F_p'(1)``, and ``F_p'(1/2) <= 0`` when every atom
    has ``lambda0 <= lambda1`` (``>= 0`` when every atom has ``lambda0 >=
    lambda1``), so each pair starts at 1/2 with that bracket; a Newton step
    that leaves the bracket, which every step shrinks on the sign of
    ``F_p'``, is replaced by bisection.  Each pair stops on its own step
    (``NEWTON_TOL``), so its result does not depend on the other pairs: the
    pairs are solved in row blocks of at most ``BLOCK_ELEMENTS`` elements,
    and inputs that fit one block are solved in one pass.  A pair whose
    rates agree atom by atom to within ``EQUAL_RATE_RTOL`` has ``F_p = 0``
    and returns (1/2, 0) by convention.  Rates must be positive.  Values are
    ``weights``-dot-products of ``chernoff_values`` rows at the tilts.
    """
    table = np.asarray(table, dtype=float)
    lefts = np.asarray(lefts, dtype=int)
    rights = np.asarray(rights, dtype=int)
    w = np.asarray(weights, dtype=float)
    return [
        optimum
        for rows in _row_blocks(len(lefts), table.shape[1])
        for optimum in _max_mixture_rows(table[lefts[rows]], table[rights[rows]], w)
    ]


def _max_mixture_rows(
    l0: np.ndarray, l1: np.ndarray, w: np.ndarray
) -> list[ChernoffOptimum]:
    """``max_chernoff_mixtures`` on ``(rows, atoms)`` arrays of the pairs'
    left and right rates, all rows at once."""
    _, big, x, flip = _oriented(l0, l1)
    live = ~np.all(np.abs(l0 - l1) <= EQUAL_RATE_RTOL * big, axis=1)
    # Per row: F' = fixed - sum(slope * expm1(t*x)), F'' = -sum(curve * exp(t*x)).
    scale = np.where(flip, -w, w) * big
    fixed = np.sum(scale * _expm1_minus_x(x), axis=1)
    slope = scale * x
    curve = np.abs(scale) * x * x
    lo = np.where(np.all(flip, axis=1), 0.5, 0.0)
    hi = np.where(np.any(flip, axis=1), 1.0, 0.5)
    s = np.full(len(l0), 0.5)
    active = live.copy()
    for _ in range(NEWTON_MAX_ITER):
        if not active.any():
            break
        grow = np.expm1(np.where(flip, 1.0 - s[:, None], s[:, None]) * x)
        d1 = fixed - np.sum(slope * grow, axis=1)
        d2 = -np.sum(curve * (grow + 1.0), axis=1)
        lo = np.where(d1 > 0.0, s, lo)
        hi = np.where(d1 < 0.0, s, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = np.where(d1 == 0.0, s, s - d1 / d2)
        done = np.abs(newton - s) <= NEWTON_TOL
        inside = (newton > lo) & (newton < hi)
        step = np.where(inside | done, np.clip(newton, lo, hi), 0.5 * (lo + hi))
        # A row that has stopped keeps its tilt while the others go on.
        s = np.where(active, step, s)
        active &= ~done
    values = np.sum(w * chernoff_values(l0, l1, s[:, None]), axis=1)
    return [
        ChernoffOptimum(s_star=float(t), value=float(v) if ok else 0.0)
        for t, v, ok in zip(s, values, live)
    ]


def max_chernoff(lambda0: float, lambda1: float) -> ChernoffOptimum:
    """Maximize ``C_s(lambda0, lambda1)`` of two rates over the tilt ``s``:
    ``max_chernoff_mixtures`` on one pair of one-atom rows.  For equal rates
    it is identically zero and ``s_star = 1/2`` by convention."""
    (optimum,) = max_chernoff_mixtures([[lambda0], [lambda1]], [0], [1], [1.0])
    return optimum


def golden_section_max(
    f: Callable[[float], float], lo: float, hi: float
) -> tuple[float, float]:
    """Maximize a unimodal function of one float on [lo, hi] by golden-section
    search, to ``GOLDEN_TOL`` in the argument or ``GOLDEN_MAX_ITER`` steps;
    returns ``(x, f(x))`` at the located maximum.  Kept for the benchmark's
    tracer: no package code calls it."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(GOLDEN_MAX_ITER):
        if b - a <= GOLDEN_TOL:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def max_chernoff_slopes(
    lambda0: np.ndarray,
    lambda1: np.ndarray,
    dlambda0: np.ndarray,
    dlambda1: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Each rate pair's maximum over the tilt, ``P = max_s C_s(lambda0,
    lambda1)``, computed as ``chernoff_values(lambda0, lambda1, s_star_log)``
    computes it, and its logarithmic derivative ``P'/P`` along the rates'
    derivatives ``(dlambda0, dlambda1)`` (``inf`` where ``P`` is 0).

    By the envelope theorem ``P'`` is the derivative of ``C_t(small, big)``
    at the maximizing tilt held fixed: ``dC/dsmall * dsmall + dC/dbig *
    dbig`` on the oriented rates of ``_oriented``, with ``dC/dsmall =
    -t*expm1((t - 1)*x)`` and ``dC/dbig = -(1 - t)*expm1(t*x)``, each
    without cancellation as the rates merge.  ``(t - 1)*x >= 0`` is capped
    at ``EXP_CAP``, which it passes only where ``small/big <
    exp(-EXP_CAP)``: BPSK rates reach that only at ``v = 1`` with a dark
    ratio below about 1e-305, where ``dsmall = 0``.
    """
    small, big, x, flip = _oriented(
        np.asarray(lambda0, dtype=float), np.asarray(lambda1, dtype=float)
    )
    t = s_star_log(x)
    shrink = np.expm1(t * x)
    value = np.maximum(t * (small - big) - big * shrink, 0.0)
    grow = np.expm1(np.minimum((t - 1.0) * x, EXP_CAP))
    slope = -t * grow * np.where(flip, dlambda1, dlambda0) - (
        1.0 - t
    ) * shrink * np.where(flip, dlambda0, dlambda1)
    return value, np.divide(slope, value, out=np.full_like(value, np.inf), where=value > 0.0)


def brent_root(
    g: Callable[[float], float],
    a: float,
    b: float,
    ga: float,
    gb: float,
    max_evaluations: int,
) -> float:
    """A root of ``g`` between ``a`` and ``b``, where ``g`` takes the values
    ``ga`` and ``gb`` of opposite signs, by Brent's method (inverse quadratic
    or secant steps, bisection where they stall), to ``BRENT_RTOL`` relative
    or after ``max_evaluations`` calls of ``g``.  An infinite end value is
    taken as its sign: the step is then a bisection.  Returns the end of the
    last bracket where ``|g|`` is smaller."""
    c, gc = a, ga
    step = prev = b - a
    evaluations = 0
    while True:
        if (gb > 0.0) == (gc > 0.0):
            c, gc = a, ga
            step = prev = b - a
        if abs(gc) < abs(gb):
            a, b, c = b, c, b
            ga, gb, gc = gb, gc, gb
        tol = 0.5 * BRENT_RTOL * abs(b)
        half = 0.5 * (c - b)
        if gb == 0.0 or abs(half) <= tol or evaluations == max_evaluations:
            return b
        if abs(prev) >= tol and abs(gb) < abs(ga) and math.isfinite(ga + gc):
            s = gb / ga
            if a == c:
                p, q = 2.0 * half * s, 1.0 - s
            else:
                q, r = ga / gc, gb / gc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * half * q - abs(tol * q), abs(prev * q)):
                prev, step = step, p / q
            else:
                prev = step = half
        else:
            prev = step = half
        a, ga = b, gb
        b += step if abs(step) > tol else math.copysign(tol, half)
        gb = g(b)
        evaluations += 1


def polish_max(
    slopes: Callable[[list[float]], list[tuple[float, float, float]]],
    cuts: list[float],
) -> tuple[list[tuple[float, float]], int]:
    """Candidates for the maximum of a function ``f >= 0`` on the span of the
    sorted ``cuts``, smooth between consecutive cuts.

    ``slopes(points)`` gives ``(f, below, above)`` at each point: ``f`` and
    its log-derivative just below and just above it (``inf`` where ``f`` is
    0).  On each piece where the log-derivative falls from positive to
    negative, ``brent_root`` finds its root.  Returns each cut and each root
    with its ``f``, and the number of points evaluated: the cuts, and at
    most ``POLISH_EVALUATIONS`` more.
    """
    seen: dict[float, float] = {}
    count = len(cuts)

    def above(x: float) -> float:
        nonlocal count
        count += 1
        ((seen[x], _, slope),) = slopes([x])
        return slope

    sides = slopes(cuts)
    seen.update((x, side[0]) for x, side in zip(cuts, sides))
    roots = []
    for a, b, (_, _, ga), (_, gb, _) in zip(cuts, cuts[1:], sides, sides[1:]):
        if ga > 0.0 > gb:
            budget = POLISH_EVALUATIONS + len(cuts) - count
            roots.append(brent_root(above, a, b, ga, gb, budget))
    return [(x, seen[x]) for x in cuts + roots], count


def s_star_log(x: float | np.ndarray) -> float | np.ndarray:
    """Maximizing tilt as a function of ``x = log R <= 0``, with
    ``R = lambda0/lambda1``; ``x`` is a float or an array.

    Closed form ``S(R) = log((R - 1)/log R) / log R``, here
    ``log(expm1(x)/x) / x``, strictly increasing in R on (0, 1) with range
    (0, 1/2).  Near ``x = 0`` the direct expression loses precision, so the
    expansion ``1/2 + x/24 - x**3/2880 + O(x**5)`` is used (x = 0, equal
    rates, gives 1/2).  It takes ``x`` as ``_oriented`` gives it, as
    ``log(small) - log(big)`` where ``R`` itself would leave the normal
    range."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = np.log(np.expm1(x) / x) / x
    s = np.where(np.abs(x) < 1e-4, 0.5 + x / 24.0 - x**3 / 2880.0, exact)
    return float(s) if s.ndim == 0 else s
