"""Optimization of the open-loop error exponent over control distributions.

The achievable exponent of an open-loop displacement policy with type
(empirical distribution) Q is

    beta(Q) = min over hypothesis pairs (l, m) of
              max_{s in [0,1]}  E_{V~Q}[ C_s(Lambda_l(V), Lambda_m(V)) ],

and the best open-loop exponent is the supremum of beta(Q) over all
distributions Q supported on the control disk of radius ``r_ca`` with second
moment at most ``r_ce``.  This module optimizes that objective:

* ``optimize_binary`` solves the BPSK case exactly: by the phase symmetry
  and the concave envelope of the point-mass exponent, one atom mixed with
  the origin is optimal, so one 1-D search over that atom solves it.

* ``optimize_general`` handles any PSK constellation by coordinate ascent on
  a discretized control grid, held as the grid's rate table and a weight
  vector over the grid: per-pair tilt maximization (all pairs at once, one
  ``max_chernoff_mixtures`` call) alternates with a linear program over the
  weights, solved by the package's revised simplex (``linprog``) on the
  pair rows that bind.  Every iterate is feasible, so the result is always
  a certified achievability lower bound, but for more than two hypotheses
  no global optimality is claimed.

* ``convexity_margin`` and ``verify_claims`` check the structural facts
  behind the optimizer: convexity of the pairwise divergence in the control
  energy in the vanishing-dark-count regime (which makes time-sharing
  between 0 and the nulling displacement optimal), the (0, 1/2] range of the
  optimal tilt, and the failure of time-sharing at finite dark counts where
  an interior point mass is strictly better.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .constellation import (
    OperatingRatios,
    PskConstellation,
    bpsk,
    control_grid,
    normalized_rates,
)
from .divergence import (
    ChernoffOptimum,
    chernoff_values,
    golden_section_max,  # unused here; bench/tracing.py spans this binding
    max_chernoff_mixtures,
    max_chernoff_slopes,
    polish_max,
    s_star_log,
)
from .simplex import linprog

#: Cell width of the v-grid ``optimize_binary`` searches before its polish,
#: and its cell count cap, which widens the cells only on edges past 65.5.
V_GRID_STEP = 1e-3
V_GRID_CELLS = 2**16

#: Coordinate-ascent cap and stopping gain of ``optimize_general``.
MAX_ITERATIONS = 50
IMPROVEMENT_TOL = 1e-9

#: Reference points of ``verify_claims``: vanishing dark counts, where
#: time-sharing is optimal to 1e-4 relative, and finite dark counts, where an
#: interior point mass beats it.
VERIFY_RATIOS_HIGH = OperatingRatios(r_sn=1e-6, r_ca=1.0, r_ce=0.9)
VERIFY_RATIOS_LOW = OperatingRatios(r_sn=1e-2, r_ca=1.0, r_ce=0.9)

#: Optimizer and time-sharing values expected at ``VERIFY_RATIOS_LOW`` (each
#: to 2e-3), and the least margin by which the optimizer must win there.
EXPECTED_COUNTEREXAMPLE = 1.9822
EXPECTED_TIME_SHARING = 1.9314
MIN_MARGIN = 0.04


def minimize(*args, **kwargs):  # unused here; bench/tracing.py spans this binding
    """``scipy.optimize.minimize``, imported on first call.  Nothing in
    pskexp calls it: ``optimize_binary`` polishes without it."""
    from scipy.optimize import minimize as solve

    return solve(*args, **kwargs)


class ControlLPError(RuntimeError):
    """A control LP of ``optimize_general`` ended without a solution."""


@dataclass(frozen=True)
class ControlDistribution:
    """Finitely supported distribution of displacement ratios.

    Atoms are (point, weight) pairs with positive weights summing to one.
    Feasibility against a specific operating point (disk radius, energy
    budget) is checked by ``validate_feasible``.
    """

    atoms: tuple[tuple[complex, float], ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("a distribution needs at least one atom")
        total = 0.0
        for point, weight in self.atoms:
            if not cmath.isfinite(point):
                raise ValueError(f"atom points must be finite, got {point!r}")
            if not weight > 0.0:
                raise ValueError(f"atom weights must be positive, got {weight!r}")
            total += weight
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"atom weights sum to {total!r}, expected 1")

    @classmethod
    def from_arrays(
        cls, points: Sequence[complex], weights: Sequence[float]
    ) -> "ControlDistribution":
        """Build from parallel arrays, merging duplicates and renormalizing.

        The only builder of distributions.  Zero weights are discarded, and
        every positive one is kept, however small; the remainder is
        renormalized to sum exactly to 1.  Arrays of different lengths, a
        negative or non-finite weight, or weights that are all zero raise.
        """
        merged: dict[complex, float] = {}
        for point, weight in zip(points, weights, strict=True):
            if not math.isfinite(weight) or weight < 0.0:
                raise ValueError(
                    f"atom weights must be finite and nonnegative, got {weight!r}"
                )
            if weight > 0.0:
                key = complex(point)
                merged[key] = merged.get(key, 0.0) + float(weight)
        if not merged:
            raise ValueError("all weights vanished; distribution is empty")
        total = sum(merged.values())
        ordered = sorted(merged.items(), key=lambda kv: (kv[0].real, kv[0].imag))
        return cls(atoms=tuple((p, w / total) for p, w in ordered))

    @classmethod
    def point_mass(cls, v: complex) -> "ControlDistribution":
        return cls.from_arrays([v], [1.0])

    @classmethod
    def time_sharing(cls, r_ce: float) -> "ControlDistribution":
        """Budget-saturating mixture of the nulling point 1 and the origin."""
        if not 0.0 <= r_ce <= 1.0:
            raise ValueError(f"r_ce must lie in [0, 1], got {r_ce!r}")
        return cls.from_arrays([0.0, 1.0], [1.0 - r_ce, r_ce])

    @property
    def points(self) -> np.ndarray:
        return np.array([p for p, _ in self.atoms], dtype=complex)

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.atoms], dtype=float)

    def records(self) -> list[dict]:
        """The atoms as JSON records ``{"re", "im", "weight"}``."""
        return [{"re": p.real, "im": p.imag, "weight": w} for p, w in self.atoms]

    def second_moment(self) -> float:
        return float(np.dot(self.weights, np.abs(self.points) ** 2))

    def validate_feasible(self, ratios: OperatingRatios) -> None:
        """Raise unless every atom is in the disk and the energy budget holds."""
        if not np.all(ratios.in_disk(self.points)):
            raise ValueError("an atom lies outside the control disk")
        if not ratios.within_budget(self.second_moment()):
            raise ValueError(
                f"second moment {self.second_moment()!r} exceeds budget {ratios.r_ce!r}"
            )


@dataclass(frozen=True)
class ExponentSolution:
    """Result of an exponent optimization.

    ``beta`` always equals the minimum of the per-pair values and is a
    certified achievability lower bound whenever ``certified`` is set (the
    reported ``q_star`` is feasible and attains it).
    """

    beta: float
    q_star: ControlDistribution
    per_pair: tuple[tuple[tuple[int, int], float, float], ...]
    method: str
    certified: bool
    diagnostics: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        values = [value for _, _, value in self.per_pair]
        if abs(self.beta - min(values)) > 1e-10:
            raise ValueError("beta must equal the minimum per-pair value")
        if self.beta < 0.0:
            raise ValueError("beta must be nonnegative")


def pair_exponents(
    q: ControlDistribution,
    pairs: Sequence[tuple[int, int]],
    constellation: PskConstellation,
    ratios: OperatingRatios,
) -> list[ChernoffOptimum]:
    """Maximize s -> E_Q[C_s(Lambda_l(V), Lambda_m(V))] over s in [0, 1]
    for every hypothesis pair (l, m) in ``pairs``.

    One ``max_chernoff_mixtures`` call on the ``(states, atoms)`` rate table
    of ``q``'s atoms solves all pairs; each pair's result is the one it gets
    alone, and a pair whose rates agree at every atom returns (1/2, 0).
    ``q`` is validated and each state's rates are computed once for all
    pairs.
    """
    q.validate_feasible(ratios)
    table = normalized_rates(q.points, constellation, ratios.r_sn)
    return max_chernoff_mixtures(
        table, [l for l, _ in pairs], [m for _, m in pairs], q.weights
    )


def pair_exponent(
    q: ControlDistribution,
    pair: tuple[int, int],
    constellation: PskConstellation,
    ratios: OperatingRatios,
) -> ChernoffOptimum:
    """One pair's mixture exponent: ``pair_exponents`` for a single pair."""
    return pair_exponents(q, [pair], constellation, ratios)[0]


def exponent_of(
    q: ControlDistribution,
    constellation: PskConstellation,
    ratios: OperatingRatios,
) -> float:
    """Worst hypothesis pair's exponent: min over pairs of the pair values."""
    return min(
        pv.value
        for pv in pair_exponents(q, constellation.pairs(), constellation, ratios)
    )


def optimize_binary(ratios: OperatingRatios) -> ExponentSolution:
    """Exact BPSK exponent optimization by one 1-D search.

    Real displacements v in [0, r_ca] suffice (the binary phase symmetry
    makes this lossless).  Let P(v) = max_s C_s((v-1)**2 + r_sn, (v+1)**2 +
    r_sn) be the point-mass exponent, at its closed-form tilt
    (``s_star_log``).  Since max_s E_Q[C_s] <= E_Q[P(V)] for every Q, the
    optimum is at most the upper concave envelope of e -> P(sqrt(e)) at
    ``r_ce``.  The origin's two rates agree, so it adds 0 to every C_s, and a
    Q of weight w = min(1, r_ce/v**2) on v and the rest on the origin attains
    w*P(v) exactly.  The envelope is carried by the origin and at most one
    other point, so the optimum is the maximum over v of

        f(v) = min(1, r_ce/v**2) * P(v).

    Past v = max(2, 8*sqrt(r_ce/f(kink))) nothing beats the kink
    min(sqrt(r_ce), r_ca), so the search ends there or at ``r_ca``,
    whichever is smaller: its edge.  f is evaluated on a v-grid of cells
    ``V_GRID_STEP`` wide (at most ``V_GRID_CELLS``, wider on longer spans),
    at v = 1 and at the kink; ``polish_max`` searches the cells beside the
    best grid point, cut at the kink and at v = 1, where (log f)' = P'/P -
    2/v (2/v above sqrt(r_ce) only) jumps or nearly does.  The best
    candidate wins, the kink and then the edge on ties; ``diagnostics`` name
    it (``interior``, ``end-point`` or ``disk-edge``) and count the
    evaluations of f off the grid (``point_evaluations``).
    """
    constellation = bpsk()
    pair = (0, 1)
    r, ca, ce = ratios.r_sn, ratios.r_ca, ratios.r_ce

    def finish(q: ControlDistribution, diagnostics: dict) -> ExponentSolution:
        pv = pair_exponent(q, pair, constellation, ratios)
        return ExponentSolution(
            beta=pv.value,
            q_star=q,
            per_pair=((pair, pv.s_star, pv.value),),
            method="binary-exact-grid",
            certified=True,
            diagnostics=diagnostics,
        )

    if ce <= 0.0:
        return finish(ControlDistribution.point_mass(0.0), {"budget": "zero"})

    sqrt_ce = math.sqrt(ce)

    def slopes(vs: list[float]) -> list[tuple[float, float, float]]:
        """f and (log f)' = P'/P, less 2/v above sqrt(r_ce), just below and
        just above each v of ``vs``."""
        v = np.array(vs)
        rates0, rates1 = normalized_rates(v, constellation, r)
        ps, logs = max_chernoff_slopes(rates0, rates1, 2.0 * (v - 1.0), 2.0 * (v + 1.0))
        return [
            (ce / max(x * x, ce) * p, d - (2.0 / x if x > sqrt_ce else 0.0),
             d - (2.0 / x if x >= sqrt_ce else 0.0))
            for x, p, d in zip(vs, ps.tolist(), logs.tolist())
        ]

    kink = min(sqrt_ce, ca)
    # For v >= 2, P(v) <= KL(Lambda1||Lambda0) <= (4v)**2/(v-1)**2 <= 64
    # (KL below chi-square), so f(v) <= 64*r_ce/v**2: below f(kink) past
    # 8*sqrt(r_ce/f(kink)).  Up to r_ca = 2 the edge is r_ca whatever f(kink).
    edge, evaluations = ca, 0
    if ca > 2.0:
        evaluations, ((kink_value, _, _),) = 1, slopes([kink])
        if kink_value > 0.0:
            edge = min(ca, max(2.0, 8.0 * math.sqrt(ce / kink_value)))
    cells = min(V_GRID_CELLS, max(2, int(round(edge / V_GRID_STEP))))
    # The grid, then v = 1 and the kink, each at its closed-form tilt.
    points = np.append(np.linspace(0.0, edge, cells + 1), [min(1.0, edge), kink])
    rates0, rates1 = normalized_rates(points, constellation, r)
    values = ce / np.maximum(points * points, ce) * chernoff_values(rates0, rates1, s_star_log)
    k = int(np.argmax(values[: cells + 1]))
    grid, values = points.tolist(), values.tolist()
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, cells)]
    cuts = sorted({lo, hi, *(c for c in (kink, 1.0) if lo < c < hi)})
    found, count = polish_max(slopes, cuts)
    v, value = grid[k], values[k]
    for end, end_value in (
        (grid[-2], values[-2]),
        *found,
        (kink, values[-1]),
        (edge, values[cells]),
    ):
        if end_value >= value:
            v, value = end, end_value
    winner = "disk-edge" if v == edge else "end-point" if v == kink else "interior"
    w = min(1.0, ce / (v * v)) if v > sqrt_ce else 1.0
    q = ControlDistribution.from_arrays([0.0, v], [1.0 - w, w])
    return finish(q, {"winner": winner, "point_evaluations": evaluations + count})


def optimize_general(
    constellation: PskConstellation,
    ratios: OperatingRatios,
    grid_k: int = 20,
) -> ExponentSolution:
    """Coordinate-ascent lower bound for any PSK constellation.

    Runs on the control grid's (M, grid) rate table and a weight vector x
    over the grid, starting uniform on the grid points within the energy
    budget.  Alternates (a) fixing each pair's tilt at its current
    maximizer, found for all pairs in one ``max_chernoff_mixtures`` call on
    the table's columns with positive weight, with (b) a linear
    program maximizing the worst pair's fixed-tilt objective over grid
    weights under the energy constraint.  The LP is solved by row
    generation (Hettich & Kortanek, "Semi-infinite programming", SIAM
    Review 35(3), 1993): ``linprog`` (looked up on this module at call time,
    so a wrapper put there sees every LP) solves it on the M pair rows
    lowest at the current weights (the tilt step's own pair values), then
    again with every row its solution puts below the solved rows' minimum,
    until there is none; a relaxation whose optimum meets every row is the
    full LP's optimum.  Only the solved rows are built over the whole grid;
    the other pairs are priced on the LP solution's support alone, so no
    (pairs, grid) array is ever formed.  An LP solution
    over the budget (by rounding, a few 1e-15 on the benchmark's points) is
    mixed with the origin, grid point 0, just enough to meet it, the one
    change made to LP output: every positive weight, however small, stays.
    The simplex breaks ties by the lowest grid index, so among
    symmetry-equivalent optima ``q_star`` is the one that rule reaches, the
    same on every run and for any number of BLAS threads.
    Every iterate is feasible and the true objective is non-decreasing along
    the iteration; the best iterate's weights become ``q_star``, and its
    ``pair_exponents`` give ``per_pair`` and ``beta``, a certified
    achievability bound.
    Not guaranteed globally optimal for more than two hypotheses.  An LP
    that ends without a solution raises ``ControlLPError``.
    ``diagnostics`` holds the iteration count, the convergence flag and, per
    LP, its rounds of row generation (``lp_rounds``), the pair rows active
    at its end (``lp_rows``), and its pivots (``lp_pivots``) and basis
    refactorizations (``lp_refactorizations``) summed over the rounds.
    """
    grid = control_grid(grid_k, ratios)
    pairs = constellation.pairs()
    lefts = np.array([l for l, _ in pairs])
    rights = np.array([m for _, m in pairs])
    grid_energy = np.abs(grid) ** 2
    rate_table = normalized_rates(grid, constellation, ratios.r_sn)

    def tilt_step(x: np.ndarray) -> tuple[list[ChernoffOptimum], float]:
        support = x > 0.0
        per_pair = max_chernoff_mixtures(
            rate_table[:, support], lefts, rights, x[support]
        )
        return per_pair, min(pv.value for pv in per_pair)

    feasible = ratios.within_budget(grid_energy)
    x = feasible / np.count_nonzero(feasible)
    per_pair, beta = tilt_step(x)
    best_x, best_beta = x, beta
    beta_prev = beta
    converged = False
    iterations = 0
    pivots, refactorizations, rounds, rows = [], [], [], []

    for iterations in range(1, MAX_ITERATIONS + 1):
        # LP over (Q, t): maximize t with E_Q[C_{s_pair}] >= t per pair,
        # on the pair rows that bind, from the M lowest at x (the tilt
        # step's values, E_x[C_{s_pair}]).
        tilts = np.array([pv.s_star for pv in per_pair])
        values = np.array([pv.value for pv in per_pair])
        violated = np.zeros(len(pairs), dtype=bool)
        violated[np.argsort(values, kind="stable")[: constellation.num_states]] = True
        active = np.zeros_like(violated)
        solves = []
        while violated.any():
            active |= violated
            lp = linprog(
                chernoff_values(
                    rate_table[lefts[active]],
                    rate_table[rights[active]],
                    tilts[active, None],
                ),
                grid_energy,
                ratios.r_ce,
            )
            if not lp.success:
                raise ControlLPError(f"control LP failed: {lp.message}")
            solves.append(lp)
            # Every pair row on the solution's support, columns taken first.
            on = lp.x > 0.0
            support_rates = rate_table[:, on]
            values = (
                chernoff_values(
                    support_rates[lefts], support_rates[rights], tilts[:, None]
                )
                @ lp.x[on]
            )
            violated = ~active & (values < values[active].min())
        rounds.append(len(solves))
        rows.append(int(np.count_nonzero(active)))
        pivots.append(sum(sub.nit for sub in solves))
        refactorizations.append(sum(sub.refactorizations for sub in solves))
        x = solves[-1].x
        energy = grid_energy @ x
        if energy > ratios.r_ce:
            w0 = (energy - ratios.r_ce) / energy
            x = (1.0 - w0) * x
            x[0] += w0
        per_pair, beta = tilt_step(x)
        if beta > best_beta:
            best_x, best_beta = x, beta
        if beta - beta_prev < IMPROVEMENT_TOL:
            converged = True
            break
        beta_prev = beta

    q_star = ControlDistribution.from_arrays(grid, best_x)
    per_pair = pair_exponents(q_star, pairs, constellation, ratios)
    return ExponentSolution(
        beta=min(pv.value for pv in per_pair),
        q_star=q_star,
        per_pair=tuple(
            (pair, pv.s_star, pv.value) for pair, pv in zip(pairs, per_pair)
        ),
        method="general-coordinate-ascent",
        certified=True,
        diagnostics={
            "iterations": iterations,
            "converged": converged,
            "lp_pivots": pivots,
            "lp_refactorizations": refactorizations,
            "lp_rounds": rounds,
            "lp_rows": rows,
        },
    )


def convexity_margin(
    s: float | np.ndarray, r: float, v: float | np.ndarray
) -> float | np.ndarray:
    """Margin whose sign certifies convexity of the pair divergence in energy.

    For BPSK with real displacement v and dark ratio r, let ``normalized_rates``
    give Lambda0 = (1-v)**2 + r and Lambda1 = (1+v)**2 + r, and consider
    C_s as a function of the control energy E = E0*v**2.  The margin

        g_{s,r}(v) = 8s(1-s)v * (1 - r/Lambda0 * 4v**2/Lambda1)
                     - C_{1-s}(Lambda0, Lambda1)

    tracks the sign of d^2 C_s / dE^2 for s strictly inside (0, 1/2); on the
    s = 1/2 boundary with r > 0 the margin can stay positive while the true
    curvature turns negative, so boundary conclusions must not rely on it.
    ``s`` and ``v`` are floats or arrays broadcasting against each other, and
    the divergence term is ``chernoff_values``.  At r = 0 the margin is the
    closed form 4s(1-2s)v + (1-v)**(2(1-s)) * [(1+v)**(2s) - (1-v)**(2s)]
    (``zero_dark_margin`` in the tests' oracles), which is strictly positive
    for s in (0, 1/2] and v in (0, 1): with vanishing dark counts the
    divergence is convex in the energy, making time-sharing between 0 and
    full displacement exponent-optimal.
    """
    if not np.all((0.0 < s) & (s <= 0.5)):
        raise ValueError(f"s must lie in (0, 1/2], got {s!r}")
    if r < 0.0:
        raise ValueError(f"r must be nonnegative, got {r!r}")
    if not np.all((0.0 < v) & (v < 1.0)):
        raise ValueError(f"v must lie in (0, 1), got {v!r}")
    lam0, lam1 = normalized_rates(v, bpsk(), r)
    curvature_term = 8.0 * s * (1.0 - s) * v * (
        1.0 - (r / lam0) * (4.0 * v**2 / lam1)
    )
    return curvature_term - chernoff_values(lam0, lam1, 1.0 - s)


def verify_claims() -> dict:
    """Run the structural checks behind the optimizer design.

    (1) the zero-dark convexity margin is positive on an (s, v) grid;
    (2) the optimal tilt always lies in (0, 1/2] — via the ratio closed form
        and via pair maximization for non-degenerate distributions;
    (3) at ``VERIFY_RATIOS_LOW`` the optimizer strictly beats time-sharing
        by at least ``MIN_MARGIN`` and lands near
        ``EXPECTED_COUNTEREXAMPLE``;
    (4) at ``VERIFY_RATIOS_HIGH`` (vanishing dark counts) time-sharing is
        exponent-optimal to 1e-4: for every budget on a 0.1-step grid the
        optimizer beats it by at most that relative gap, and never loses to
        it by more than rounding (1e-12 relative).

    The reference points and thresholds are the module constants, read at
    call time.  Failed checks are reported, never raised.  Returns the
    JSON-ready report ``{"all_passed", "checks": [{"name", "passed",
    "details"}], "notes"}``.
    """
    # Looked up at call time, so a wrapper put on pskexp.divergence sees it.
    from .divergence import max_chernoff

    ratios_low = VERIFY_RATIOS_LOW
    checks: list[dict] = []
    notes: list[str] = []

    # (1) zero-dark convexity margin positive on the standard grid.
    s_values = np.arange(0.05, 0.501, 0.05)
    v_values = np.arange(0.05, 0.951, 0.05)
    margins = convexity_margin(s_values[:, None], 0.0, v_values)
    checks.append(
        dict(
            name="energy-convexity-margin-positive",
            passed=bool(np.all(margins > 0.0)),
            details={
                "min_margin": float(margins.min()),
                "s_grid": [float(s) for s in s_values],
                "v_grid_span": [float(v_values[0]), float(v_values[-1])],
            },
        )
    )

    # (2) optimal tilt range (0, 1/2]; degenerate distributions excluded.
    ratio_grid = np.linspace(1e-6, 1.0 - 1e-6, 2001)
    tilt_values = s_star_log(np.log(ratio_grid))
    constellation = bpsk()
    # 20 point masses, each one pair of rows (2i, 2i + 1) of a one-atom table.
    points = np.minimum(np.linspace(0.05, 1.0, 20), math.sqrt(ratios_low.r_ce))
    table = normalized_rates(points, constellation, ratios_low.r_sn).T.reshape(-1, 1)
    tilts = max_chernoff_mixtures(table, range(0, 40, 2), range(1, 40, 2), [1.0])
    pair_tilts = [pv.s_star for pv in tilts]
    tilt_ok = (
        bool(np.all((tilt_values > 0.0) & (tilt_values < 0.5)))
        and bool(np.all(np.diff(tilt_values) > 0.0))
        and all(0.0 < s <= 0.5 for s in pair_tilts)
    )
    checks.append(
        dict(
            name="optimal-tilt-in-left-half",
            passed=tilt_ok,
            details={
                "ratio_tilt_range": [float(tilt_values.min()), float(tilt_values.max())],
                "pair_tilt_range": [float(min(pair_tilts)), float(max(pair_tilts))],
            },
        )
    )

    # (3) finite-dark counterexample: interior mass beats time-sharing.
    solution = optimize_binary(ratios_low)
    ts = ControlDistribution.time_sharing(ratios_low.r_ce)
    ts_value = pair_exponent(ts, (0, 1), constellation, ratios_low).value
    margin = solution.beta - ts_value
    kennedy = max_chernoff(*normalized_rates(1.0, constellation, ratios_low.r_sn))
    notes.append(
        "full-budget point exponent at r_sn="
        f"{ratios_low.r_sn:g} is {kennedy.value:.4f} by the stationarity "
        f"identity (the value 2.1359 sometimes quoted for r_sn=0.01 is "
        f"inconsistent: {ratios_low.r_ce:g} x {kennedy.value:.4f} = "
        f"{ratios_low.r_ce * kennedy.value:.4f} matches the time-sharing "
        "reference, 2.1359 does not)"
    )
    checks.append(
        dict(
            name="interior-mass-beats-time-sharing",
            passed=(
                solution.beta >= EXPECTED_COUNTEREXAMPLE - 2e-3
                and abs(ts_value - EXPECTED_TIME_SHARING) <= 2e-3
                and margin >= MIN_MARGIN
            ),
            details={
                "beta": solution.beta,
                "time_sharing_value": ts_value,
                "margin": margin,
                "expected_counterexample": EXPECTED_COUNTEREXAMPLE,
                "expected_time_sharing": EXPECTED_TIME_SHARING,
                "q_star": solution.q_star.records(),
            },
        )
    )

    # (4) vanishing dark counts: time-sharing is exponent-optimal to 1e-4.
    gaps = []
    for r_ce in np.arange(0.1, 1.001, 0.1):
        budget_ratios = replace(VERIFY_RATIOS_HIGH, r_ce=float(r_ce))
        beta = optimize_binary(budget_ratios).beta
        ts = ControlDistribution.time_sharing(budget_ratios.r_ce)
        ts_value = pair_exponent(ts, (0, 1), constellation, budget_ratios).value
        gaps.append((beta - ts_value) / beta)
    checks.append(
        dict(
            name="vanishing-dark-time-sharing",
            passed=max(gaps) <= 1e-4 and min(gaps) >= -1e-12,
            details={"worst_relative_gap": max(gaps)},
        )
    )

    return {
        "all_passed": all(check["passed"] for check in checks),
        "checks": checks,
        "notes": notes,
    }
