"""Chernoff information between Poisson observation laws.

A photon counter observing a weak optical mode sees a Poisson-distributed
count whose mean depends on the hypothesis.  Discriminating two hypotheses
with per-slice means ``lambda0`` and ``lambda1`` is governed by the Chernoff
divergence

    C_s(lambda0, lambda1) = s*lambda0 + (1-s)*lambda1
                            - lambda0**s * lambda1**(1-s),   s in [0, 1],

which is the closed form of ``-log sum_y p0(y)**s * p1(y)**(1-s)`` for
Poisson laws.  This module provides the closed form, its vectorized
evaluation and the maximization over ``s``.  The independent series, KL and
tilted-rate oracles the tests check it against live in ``tests/oracles.py``.

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
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Relative tolerance below which two rates are treated as equal, making the
#: divergence identically zero and the maximizer conventionally 1/2.
EQUAL_RATE_RTOL = 1e-14

#: Golden-section parameters for the concave search over s.
GOLDEN_TOL = 1e-10
GOLDEN_MAX_ITER = 200


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

    @property
    def degenerate(self) -> bool:
        """True when the rates agree to within EQUAL_RATE_RTOL (relatively)."""
        return abs(self.lambda0 - self.lambda1) <= EQUAL_RATE_RTOL * max(
            self.lambda0, self.lambda1
        )


@dataclass(frozen=True)
class ChernoffOptimum:
    """Maximizing tilt and value of the Chernoff divergence."""

    s_star: float
    value: float


def chernoff_s(pair: RatePair, s: float) -> float:
    """Chernoff divergence ``C_s`` between Poisson(lambda0) and Poisson(lambda1).

    Args:
        pair: the two hypothesis rates.
        s: tilt parameter in [0, 1].

    Returns:
        ``s*lambda0 + (1-s)*lambda1 - lambda0**s * lambda1**(1-s)``, which is
        nonnegative and zero iff the rates coincide or s is an endpoint.
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must lie in [0, 1], got {s!r}")
    l0, l1 = pair.lambda0, pair.lambda1
    mixed = math.exp(s * math.log(l0) + (1.0 - s) * math.log(l1))
    return s * l0 + (1.0 - s) * l1 - mixed


def chernoff_values(
    lambda0: np.ndarray, lambda1: np.ndarray, s: float | np.ndarray
) -> np.ndarray:
    """Vectorized ``C_s`` over arrays of rate pairs.

    ``s`` is a tilt or an array of tilts broadcasting against the rates,
    such as a ``(rows, 1)`` column giving each row of ``(rows, n)`` rate
    arrays its own tilt; every element is computed as with a scalar tilt.
    Zero rates are admitted with the continuous convention
    ``C_s(0, lambda1) = s*0 + (1-s)*lambda1`` for s in (0, 1].
    """
    l0 = np.asarray(lambda0, dtype=float)
    l1 = np.asarray(lambda1, dtype=float)
    # The logs are temporaries, so large (rows, n) calls hold fewer arrays.
    with np.errstate(divide="ignore"):
        exponent = s * np.log(l0) + (1.0 - s) * np.log(l1)
    # s*(-inf) is nan for s == 0; the convention 0**0 = 1 restores lambda1.
    mixed = np.where(np.isnan(exponent), np.where(l0 == 0, l1, l0), np.exp(exponent))
    return s * l0 + (1.0 - s) * l1 - mixed


def _golden_search(lo: float, hi: float, tol: float, max_iter: int):
    """One golden-section search as a generator: it yields each argument to
    evaluate, is sent the function's value there, and returns ``(x, f(x))``.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = yield c
    fd = yield d
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = yield c
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = yield d
    x = 0.5 * (a + b)
    return x, (yield x)


def golden_section_max(
    f: Callable,
    lo: float,
    hi: float,
    tol: float = GOLDEN_TOL,
    max_iter: int = GOLDEN_MAX_ITER,
    lanes: int | None = None,
):
    """Maximize a unimodal function on [lo, hi] by golden-section search.

    With ``lanes=None``, ``f`` maps a float to a float and the result is
    ``(x, f(x))``.  With ``lanes=n``, ``n`` searches over the same bracket
    run in lockstep: ``f`` maps a list of ``n`` arguments, one per lane, to
    ``n`` values, and the result is the lists ``(xs, f(xs))``.  Every lane
    is one search of its own (``_golden_search``, its bracket in Python
    floats), making exactly the comparisons and updates of the scalar form;
    a lane whose bracket is within ``tol`` finishes, keeping its last
    argument in the list while the others go on, and its values are ignored
    from then.  So when ``f``'s i-th value depends on the i-th argument
    alone, lane i returns bit for bit what the scalar search of that
    function returns, and ``f`` is called once per step for all lanes.
    The scalar form drives a single such search.

    Args:
        f: unimodal (e.g. strictly concave) function, per lane.
        lo, hi: bracket endpoints, lo < hi, shared by all lanes.
        tol: absolute tolerance on the argument.
        max_iter: iteration cap per lane.
        lanes: number of lockstep searches, or None for the scalar form.

    Returns:
        ``(x, f(x))`` at the located maximum, or per lane ``(xs, values)``.
    """
    if lanes is None:
        search = _golden_search(lo, hi, tol, max_iter)
        x = next(search)
        try:
            while True:
                x = search.send(f(x))
        except StopIteration as done:
            return done.value
    searches = [_golden_search(lo, hi, tol, max_iter) for _ in range(lanes)]
    probes = [next(search) for search in searches]
    xs, values = [0.0] * lanes, [0.0] * lanes
    running = range(lanes)
    while running:
        found = f(probes)
        still = []
        for i in running:
            try:
                probes[i] = searches[i].send(found[i])
                still.append(i)
            except StopIteration as done:
                xs[i], values[i] = done.value
        running = still
    return xs, values


def max_chernoff(pair: RatePair) -> ChernoffOptimum:
    """Maximize the Chernoff divergence over the tilt ``s``.

    Golden-section search on [0, 1] localizes the maximizer (``C_s`` is
    strictly concave in ``s`` for distinct rates, so the search is globally
    valid), then Newton steps on the stationarity equation
    ``lambda0 - lambda1 = t(s) log(lambda0/lambda1)`` sharpen it: when the
    rates are close the objective is nearly flat and bracket comparisons
    drown in rounding, while the derivative root stays well conditioned.
    For equal rates the divergence is identically zero and ``s_star = 1/2``
    by convention.
    """
    if pair.degenerate:
        return ChernoffOptimum(s_star=0.5, value=0.0)
    s, _ = golden_section_max(lambda s: chernoff_s(pair, s), 0.0, 1.0)
    log0, log1 = math.log(pair.lambda0), math.log(pair.lambda1)
    gap = pair.lambda0 - pair.lambda1
    x = log0 - log1
    for _ in range(4):
        tilted = math.exp(s * log0 + (1.0 - s) * log1)
        step = (gap - tilted * x) / (tilted * x * x)
        if not 0.0 < s + step < 1.0:
            break
        s += step
        if abs(step) < 1e-15:
            break
    return ChernoffOptimum(s_star=s, value=chernoff_s(pair, s))


def s_star_ratio(ratio: float) -> float:
    """Maximizing tilt as a function of the rate ratio ``R = lambda0/lambda1``.

    Closed form ``S(R) = log((R - 1)/log R) / log R`` for ``R`` in (0, 1),
    strictly increasing with range (0, 1/2).  Near ``R = 1`` the direct
    expression loses precision, so the expansion
    ``S(R) = 1/2 + x/24 - x**3/2880 + O(x**5)`` in ``x = log R`` is used.
    """
    if not 0.0 < ratio < 1.0 or not math.isfinite(ratio):
        raise ValueError(f"ratio must lie strictly inside (0, 1), got {ratio!r}")
    x = math.log(ratio)
    if abs(x) < 1e-4:
        return 0.5 + x / 24.0 - x**3 / 2880.0
    return math.log((ratio - 1.0) / x) / x
