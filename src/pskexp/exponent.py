"""Optimization of the open-loop error exponent over control distributions.

The achievable exponent of an open-loop displacement policy with type
(empirical distribution) Q is

    beta(Q) = min over hypothesis pairs (l, m) of
              max_{s in [0,1]}  E_{V~Q}[ C_s(Lambda_l(V), Lambda_m(V)) ],

and the best open-loop exponent is the supremum of beta(Q) over all
distributions Q supported on the control disk of radius ``r_ca`` with second
moment at most ``r_ce``.  This module optimizes that objective:

* ``optimize_binary`` solves the BPSK case essentially exactly.  By the
  phase symmetry of the binary constellation the support can be restricted
  to real displacements in [0, r_ca].  For each fixed tilt ``s`` the
  objective is linear in Q under a single moment constraint, so an optimal Q
  has at most two atoms; that inner problem is the upper concave envelope of
  the curve ``v**2 -> C_s(rates(v))`` evaluated at the energy budget, which
  is computed exactly on a grid through its Lagrangian dual (no hull is
  built) and then polished off the grid with the package's own parts:
  zoomed envelopes for two atoms, a golden-section search of the closed-form
  point-mass exponent for one.  It imports no scipy.

* ``optimize_general`` handles any PSK constellation by coordinate ascent on
  a discretized control grid, alternating per-pair tilt maximization (all
  pairs at once, ``pair_exponents``) with a linear program over the
  distribution.  Every iterate is feasible, so the result is always a
  certified achievability lower bound, but for more than two hypotheses no
  global optimality is claimed.

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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .constellation import (
    DISK_TOL,
    OperatingRatios,
    PskConstellation,
    bpsk,
    control_grid,
    normalized_rates,
)
from .divergence import (
    TINY,
    ChernoffOptimum,
    chernoff_values,
    golden_section_max,
    max_chernoff_mixtures,
    s_star_log,
)

#: Moment-constraint slack allowed on a ControlDistribution.
ENERGY_TOL = 1e-9

#: Two candidate distributions within this beta gap are considered tied and
#: resolved toward the smaller second moment.
TIE_TOL = 1e-10

#: Weights at or below this are dropped by ``from_arrays`` (LP solutions
#: carry that much dust).
DROP_TOL = 1e-12

#: The two-atom polish of ``optimize_binary`` zooms onto ``2 * ZOOM_POINTS``
#: cells around each atom, widening a window by ``ZOOM_WIDEN`` when an atom
#: lands on its edge, until cells of at most ``ZOOM_TOL`` move neither atoms
#: nor tilt by more than that, or after ``MAX_ZOOMS`` zooms.
ZOOM_POINTS = 100
ZOOM_WIDEN = 10.0
ZOOM_TOL = 1e-12
MAX_ZOOMS = 40

#: Coordinate-ascent cap and stopping gain of ``optimize_general``.
MAX_ITERATIONS = 50
IMPROVEMENT_TOL = 1e-9


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first call.

    Importing ``scipy.optimize`` takes most of a CLI process's start-up, and
    only M-ary solves (``optimize_general``) need it: binary solves, Monte
    Carlo and the exact oracle never import it.
    """
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)


def minimize(*args, **kwargs):  # unused here; bench/tracing.py spans this binding
    """``scipy.optimize.minimize``, imported on first call (see ``linprog``).
    Nothing in pskexp calls it: ``optimize_binary`` polishes without it."""
    from scipy.optimize import minimize as solve

    return solve(*args, **kwargs)


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

        Weights at or below ``DROP_TOL`` are discarded; the remainder is
        renormalized to sum exactly to 1.  Arrays of different lengths, or a
        negative or non-finite weight, raise.
        """
        merged: dict[complex, float] = {}
        for point, weight in zip(points, weights, strict=True):
            if not math.isfinite(weight) or weight < 0.0:
                raise ValueError(
                    f"atom weights must be finite and nonnegative, got {weight!r}"
                )
            if weight > DROP_TOL:
                key = complex(point)
                merged[key] = merged.get(key, 0.0) + float(weight)
        if not merged:
            raise ValueError("all weights vanished; distribution is empty")
        total = sum(merged.values())
        ordered = sorted(merged.items(), key=lambda kv: (kv[0].real, kv[0].imag))
        return cls(atoms=tuple((p, w / total) for p, w in ordered))

    @classmethod
    def point_mass(cls, v: complex) -> "ControlDistribution":
        return cls(atoms=((complex(v), 1.0),))

    @classmethod
    def time_sharing(cls, r_ce: float) -> "ControlDistribution":
        """Budget-saturating mixture of the nulling point 1 and the origin."""
        if not 0.0 <= r_ce <= 1.0:
            raise ValueError(f"r_ce must lie in [0, 1], got {r_ce!r}")
        if r_ce == 0.0:
            return cls.point_mass(0.0)
        if r_ce == 1.0:
            return cls.point_mass(1.0)
        return cls(atoms=((0.0 + 0.0j, 1.0 - r_ce), (1.0 + 0.0j, r_ce)))

    @property
    def points(self) -> np.ndarray:
        return np.array([p for p, _ in self.atoms], dtype=complex)

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.atoms], dtype=float)

    def second_moment(self) -> float:
        return float(np.dot(self.weights, np.abs(self.points) ** 2))

    def validate_feasible(self, ratios: OperatingRatios) -> None:
        """Raise unless every atom is in the disk and the energy budget holds."""
        if np.any(np.abs(self.points) > ratios.r_ca + DISK_TOL):
            raise ValueError("an atom lies outside the control disk")
        if self.second_moment() > ratios.r_ce + ENERGY_TOL:
            raise ValueError(
                f"second moment {self.second_moment()!r} exceeds budget {ratios.r_ce!r}"
            )

    def total_variation(
        self, other: "ControlDistribution", match_tol: float = 1e-4
    ) -> float:
        """Total variation distance, identifying atoms within ``match_tol``.

        Exact TV between finitely supported measures is discontinuous in
        atom locations (nearby but distinct atoms count as disjoint), which
        makes it useless for comparing numerically optimized supports.
        Atoms closer than ``match_tol`` (on the unit-normalized control
        scale) are therefore treated as one location.  The default absorbs
        float- and polish-level jitter while still separating genuinely
        distinct support points such as 0.949 vs 1.0.
        """
        entries = [(p, w, 0.0) for p, w in self.atoms]
        entries += [(p, 0.0, w) for p, w in other.atoms]
        entries.sort(key=lambda e: (e[0].real, e[0].imag))
        tv = 0.0
        group_self = group_other = 0.0
        anchor = entries[0][0]
        for point, w_self, w_other in entries:
            if abs(point - anchor) > match_tol:
                tv += abs(group_self - group_other)
                group_self = group_other = 0.0
                anchor = point
            group_self += w_self
            group_other += w_other
        tv += abs(group_self - group_other)
        return 0.5 * tv


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

    One ``max_chernoff_mixtures`` call on the ``(pairs, atoms)`` rate arrays
    solves all pairs; each pair's result is the one it gets alone, and a
    pair whose rates agree at every atom returns (1/2, 0).  ``q`` is
    validated and each state's rates are computed once for all pairs.
    """
    q.validate_feasible(ratios)
    table = np.array(
        [
            normalized_rates(q.points, m, constellation, ratios)
            for m in range(constellation.num_states)
        ]
    )
    return max_chernoff_mixtures(
        table[[l for l, _ in pairs]], table[[m for _, m in pairs]], q.weights
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


def _upper_hull_value(
    energies: np.ndarray, values: np.ndarray, budget: float
) -> tuple[float, list[tuple[int, float]]]:
    """Maximum of E_Q[values] over distributions on the grid with
    E_Q[energies] <= budget.

    ``energies`` must be strictly increasing and start at or below the
    budget.  The optimum is the upper concave envelope of the point set at
    the budget (or at the first maximizer when the budget does not bind).
    It is evaluated through the Lagrangian dual
    ``min_{lam >= 0} max_i [values_i - lam * (energies_i - budget)]``
    without building the envelope: a chord between a left atom (energy at
    most the budget) and a right atom (energy above it) fixes ``lam``, and
    the point highest above that chord replaces the atom on its side.  Each
    replacement raises the chord at the budget, so the loop ends within
    ``len(energies)`` steps, at the envelope edge over the budget.  Heights
    along a line are monotone in the energy and ties go to the lowest
    index, so a point of a collinear run is only ever picked at the run's
    end: the atoms are the edge's extreme points, as in a hull that drops
    collinear points.  Returns the value and the supporting atoms as
    (grid index, weight) pairs.
    """
    peak = int(np.argmax(values))
    if energies[peak] <= budget:
        return float(values[peak]), [(peak, 1.0)]
    # Heights in a power-of-two unit near the largest: exact, so normal
    # heights compare bit for bit as before, while subnormal ones (tilts
    # near 0) no longer underflow in the products.
    heights = np.ldexp(values, -np.frexp(np.max(np.abs(values)))[1])
    lo, hi = 0, peak
    for _ in range(len(energies)):
        # Height above the lo-hi line, scaled by energies[hi] - energies[lo].
        cross = (energies[hi] - energies[lo]) * (heights - heights[lo]) - (
            heights[hi] - heights[lo]
        ) * (energies - energies[lo])
        k = int(np.argmax(cross))
        if cross[k] <= 0.0:
            break
        if energies[k] <= budget:
            lo = k
        else:
            hi = k
    else:
        raise RuntimeError("concave envelope search did not converge")
    if energies[lo] == budget:
        return float(values[lo]), [(lo, 1.0)]
    frac = (budget - energies[lo]) / (energies[hi] - energies[lo])
    value = float(values[lo] + frac * (values[hi] - values[lo]))
    return value, [(lo, 1.0 - frac), (hi, float(frac))]


def optimize_binary(
    ratios: OperatingRatios, resolution: float = 1e-3
) -> ExponentSolution:
    """Essentially exact BPSK exponent optimization.

    Searches real displacements v in [0, r_ca] (the binary phase symmetry
    makes this lossless).  Outer loop: grid over the tilt ``s`` with
    iterative refinement around the best value.  Inner problem at fixed
    ``s``: exact two-atom optimum from the upper concave envelope of
    ``v**2 -> C_s(rates(v))`` at the budget, evaluated through the dual of
    the one-constraint linear program (``_upper_hull_value``), which finds
    the envelope edge over the budget in a few vectorized passes instead of
    a full hull pass.  The grid solution at the best tilt is then polished
    off the grid with the package's own parts, no general-purpose optimizer:

    * one atom: golden-section search (``golden_section_max``) of the
      point-mass exponent, at its closed-form tilt (``s_star_log``), over
      the grid cell around the best feasible grid point at the best tilt;
      the budget's end point ``min(sqrt(r_ce), r_ca)`` is taken exactly
      instead when it is at least as good;
    * two atoms: the envelope is rerun on zoomed v-grids of
      ``2 * ZOOM_POINTS`` cells spanning one cell of the previous grid on
      either side of each atom, each zoom followed by the new atoms' exact
      tilt, until atoms and tilt stop moving (``ZOOM_TOL``).  An atom at
      the origin stays there, and atoms in neighbouring grid cells are
      left to the end point they bracket.

    The grid, single-atom and two-atom candidates are compared by their
    exact exponent; a later one must win by more than ``TIE_TOL`` or tie
    with a smaller second moment.  ``diagnostics`` names the winner
    (``grid``, ``single-atom``, ``end-point`` or ``two-atom``) and counts
    the zooms and the point-mass evaluations of the polish.
    """
    constellation = bpsk()
    pair = (0, 1)
    r, ca, ce = ratios.r_sn, ratios.r_ca, ratios.r_ce

    def finish(
        q: ControlDistribution, pv: ChernoffOptimum, diagnostics: dict
    ) -> ExponentSolution:
        return ExponentSolution(
            beta=pv.value,
            q_star=q,
            per_pair=((pair, pv.s_star, pv.value),),
            method="binary-exact-grid",
            certified=True,
            diagnostics=diagnostics,
        )

    if ce <= 0.0:
        q = ControlDistribution.point_mass(0.0)
        pv = pair_exponent(q, pair, constellation, ratios)
        return finish(q, pv, {"budget": "zero"})

    num_cells = max(2, int(round(ca / resolution)))
    vgrid = np.linspace(0.0, ca, num_cells + 1)
    cell = float(vgrid[1] - vgrid[0])
    rates0 = (vgrid - 1.0) ** 2 + r
    rates1 = (vgrid + 1.0) ** 2 + r
    energies = vgrid**2

    def hull_at(s: float) -> tuple[float, list[tuple[int, float]]]:
        return _upper_hull_value(energies, chernoff_values(rates0, rates1, s), ce)

    # Outer tilt search: coarse grid, then shrinking windows around the best.
    s_grid = np.linspace(0.0, 1.0, 65)
    best_s = max(s_grid, key=lambda s: hull_at(s)[0])
    window = s_grid[1] - s_grid[0]
    while window > 1e-8:
        lo = max(0.0, best_s - window)
        hi = min(1.0, best_s + window)
        local = np.linspace(lo, hi, 17)
        best_s = max(local, key=lambda s: hull_at(s)[0])
        window = (hi - lo) / 8.0
    _, support = hull_at(best_s)

    # Exact grid candidate from the hull support at the best tilt.
    candidates = [
        (
            "grid",
            ControlDistribution.from_arrays(
                [float(vgrid[i]) for i, _ in support], [w for _, w in support]
            ),
        )
    ]

    # Point masses: max_s C_s(rates(v)) at the closed-form tilt.  For v >= 0
    # the rates are ordered, small <= big; at v = 0 the tilt is 1/2 and the
    # value 0.
    def point_tilt(v: float) -> tuple[float, float, float, float]:
        """(tilt, small, big, log(small/big)) of a point mass at v."""
        small, big = (v - 1.0) ** 2 + r, (v + 1.0) ** 2 + r
        if small >= TINY * big:
            x = math.log(small / big)
        else:
            x = math.log(small) - math.log(big)
        return s_star_log(x), small, big, x

    evaluations = 0

    def point_value(v: float) -> float:
        nonlocal evaluations
        evaluations += 1
        t, small, big, x = point_tilt(v)
        return t * (small - big) - big * math.expm1(t * x)

    # Single-atom candidate: the point mass searched in the grid cell around
    # the best feasible grid point at the best tilt, against the budget's end
    # point.
    sqrt_ce = math.sqrt(ce)
    v_end = min(sqrt_ce, ca)
    feasible = energies <= ce * (1.0 + 1e-15)
    h_best = chernoff_values(rates0[feasible], rates1[feasible], best_s)
    v_grid = float(vgrid[feasible][int(np.argmax(h_best))])
    v_golden, value_golden = golden_section_max(
        point_value, max(0.0, v_grid - cell), min(v_end, v_grid + cell)
    )
    if point_value(v_end) >= value_golden:
        candidates.append(("end-point", ControlDistribution.point_mass(v_end)))
    else:
        candidates.append(("single-atom", ControlDistribution.point_mass(v_golden)))

    # Two-atom candidate: zoomed envelopes alternating with the exact tilt.
    # Atoms in neighbouring grid cells bracket sqrt(r_ce), whose point mass
    # is the end-point candidate.  ``from_arrays`` drops an atom of weight
    # at most 1e-12, so a dust atom leaves a point mass.
    zooms = 0
    spread = support[-1][0] - support[0][0]
    if spread > 1 and sqrt_ce < ca - 1e-12:
        offsets = np.arange(-ZOOM_POINTS, ZOOM_POINTS + 1) / ZOOM_POINTS
        atoms = [float(vgrid[i]) for i, _ in support]
        s, half = float(best_s), cell
        while zooms < MAX_ZOOMS:
            zooms += 1
            # C_s grows like v**2 off the origin, so the envelope there is
            # lost in rounding long before the zoom ends: 0 stays at 0.
            windows = [v + half * offsets if v > 0.0 else [0.0] for v in atoms]
            zgrid = np.unique(np.clip(np.concatenate(windows), 0.0, ca))
            _, zsupport = _upper_hull_value(
                zgrid**2,
                chernoff_values((zgrid - 1.0) ** 2 + r, (zgrid + 1.0) ** 2 + r, s),
                ce,
            )
            moved = [float(zgrid[i]) for i, _ in zsupport]
            q = ControlDistribution.from_arrays(moved, [w for _, w in zsupport])
            live = [v for v in moved if v > 0.0]
            if len(live) == 1:
                # The origin's rates agree, so it adds nothing to any C_s.
                s_moved = point_tilt(live[0])[0]
            else:
                s_moved = pair_exponent(q, pair, constellation, ratios).s_star
            step = (
                max(abs(v - u) for v, u in zip(moved, atoms))
                if len(moved) == len(atoms)
                else math.inf
            )
            # Settled: this zoom's cells resolve ZOOM_TOL and nothing moved.
            settled = max(half / ZOOM_POINTS, step, abs(s_moved - s)) <= ZOOM_TOL
            # An atom left on its window's edge was cut short: widen the next
            # window instead of narrowing it.
            if step < half * (1.0 - 1e-9):
                half /= ZOOM_POINTS
            else:
                half = min(cell, half * ZOOM_WIDEN)
            atoms, s = moved, s_moved
            if settled:
                break
        candidates.append(("two-atom", q))

    best_q, best_pv, winner, best_beta = None, None, "", -math.inf
    for name, q in candidates:
        pv = pair_exponent(q, pair, constellation, ratios)
        if pv.value > best_beta + TIE_TOL or (
            pv.value > best_beta - TIE_TOL
            and q.second_moment() < best_q.second_moment() - 1e-12
        ):
            best_q, best_pv, winner = q, pv, name
            best_beta = max(pv.value, best_beta)
    return finish(
        best_q,
        best_pv,
        {
            "tilt_grid_best": float(best_s),
            "candidates": len(candidates),
            "winner": winner,
            "zooms": zooms,
            "point_evaluations": evaluations,
        },
    )


def _within_budget(q: ControlDistribution, budget: float) -> ControlDistribution:
    """Mix ``q`` with the origin atom just enough to meet the energy budget.

    LP solutions can exceed the budget by more than ``ENERGY_TOL`` (HiGHS
    iterates were seen ~3e-8 over); weight ``(m - budget) / m`` on the
    origin brings a second moment ``m`` down to the budget, up to rounding.
    """
    m = q.second_moment()
    if m <= budget:
        return q
    w0 = (m - budget) / m
    return ControlDistribution.from_arrays(
        np.concatenate([[0.0], q.points]),
        np.concatenate([[w0], (1.0 - w0) * q.weights]),
    )


def optimize_general(
    constellation: PskConstellation,
    ratios: OperatingRatios,
    grid_k: int = 20,
) -> ExponentSolution:
    """Coordinate-ascent lower bound for any PSK constellation.

    Alternates (a) fixing each pair's tilt at its current maximizer, found
    for all pairs in one ``pair_exponents`` call, with (b) a linear program
    maximizing the worst pair's fixed-tilt objective over distributions on
    the control grid under the energy constraint.  The LP goes to HiGHS
    with presolve off: on the benchmark's M-ary points it returned the same
    solutions as with presolve, in less time.
    Every iterate is feasible (an LP solution over the budget is mixed with
    the origin, see ``_within_budget``) and the true objective is
    non-decreasing along the iteration, so the best iterate is a certified
    achievability bound.
    Not guaranteed globally optimal for more than two hypotheses.
    """
    grid = control_grid(grid_k, ratios)
    pairs = constellation.pairs()
    n = len(grid)
    grid_energy = np.abs(grid) ** 2
    rate_table = [
        normalized_rates(grid, m, constellation, ratios)
        for m in range(constellation.num_states)
    ]

    feasible = grid_energy <= ratios.r_ce + DISK_TOL
    q = ControlDistribution.from_arrays(
        grid[feasible], np.full(int(np.count_nonzero(feasible)), 1.0)
    )

    per_pair = pair_exponents(q, pairs, constellation, ratios)
    best_q, best_per_pair = q, per_pair
    best_beta = min(pv.value for pv in per_pair)
    beta_prev = best_beta
    converged = False
    iterations = 0

    for iterations in range(1, MAX_ITERATIONS + 1):
        # LP over (Q, t): maximize t with E_Q[C_{s_pair}] >= t per pair.
        rows = []
        for (l, m), pv in zip(pairs, per_pair):
            coeffs = chernoff_values(rate_table[l], rate_table[m], pv.s_star)
            rows.append(np.concatenate([-coeffs, [1.0]]))
        rows.append(np.concatenate([grid_energy, [0.0]]))
        a_ub = np.vstack(rows)
        b_ub = np.concatenate([np.zeros(len(pairs)), [ratios.r_ce]])
        a_eq = np.concatenate([np.ones(n), [0.0]]).reshape(1, -1)
        cost = np.zeros(n + 1)
        cost[-1] = -1.0
        bounds = [(0.0, 1.0)] * n + [(0.0, ratios.rate_upper_bound())]
        lp = linprog(
            cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0], bounds=bounds,
            method="highs", options={"presolve": False},
        )
        if not lp.success:
            raise RuntimeError(f"control LP failed: {lp.message}")
        q = _within_budget(
            ControlDistribution.from_arrays(grid, np.maximum(lp.x[:n], 0.0)),
            ratios.r_ce,
        )
        per_pair = pair_exponents(q, pairs, constellation, ratios)
        beta = min(pv.value for pv in per_pair)
        if beta > best_beta:
            best_q, best_beta, best_per_pair = q, beta, per_pair
        if beta - beta_prev < IMPROVEMENT_TOL:
            converged = True
            break
        beta_prev = beta

    return ExponentSolution(
        beta=best_beta,
        q_star=best_q,
        per_pair=tuple(
            (pair, pv.s_star, pv.value) for pair, pv in zip(pairs, best_per_pair)
        ),
        method="general-coordinate-ascent",
        certified=True,
        diagnostics={"iterations": iterations, "converged": converged},
    )


def convexity_margin(s: float, r: float, v: float) -> float:
    """Margin whose sign certifies convexity of the pair divergence in energy.

    For BPSK with real displacement v and dark ratio r, let
    Lambda0 = (1-v)**2 + r and Lambda1 = (1+v)**2 + r and consider
    C_s as a function of the control energy E = E0*v**2.  The margin

        g_{s,r}(v) = 8s(1-s)v * (1 - r/Lambda0 * 4v**2/Lambda1)
                     - [(1-s)*Lambda0 + s*Lambda1 - Lambda0**(1-s)*Lambda1**s]

    tracks the sign of d^2 C_s / dE^2 for s strictly inside (0, 1/2); on the
    s = 1/2 boundary with r > 0 the margin can stay positive while the true
    curvature turns negative, so boundary conclusions must not rely on it.
    At r = 0 it reduces to the closed form
    4s(1-2s)v + (1-v)**(2(1-s)) * [(1+v)**(2s) - (1-v)**(2s)], which is
    strictly positive for s in (0, 1/2] and v in (0, 1): with vanishing dark
    counts the divergence is convex in the energy, making time-sharing
    between 0 and full displacement exponent-optimal.
    """
    if not 0.0 < s <= 0.5:
        raise ValueError(f"s must lie in (0, 1/2], got {s!r}")
    if r < 0.0:
        raise ValueError(f"r must be nonnegative, got {r!r}")
    if not 0.0 < v < 1.0:
        raise ValueError(f"v must lie in (0, 1), got {v!r}")
    if r == 0.0:
        return 4.0 * s * (1.0 - 2.0 * s) * v + (1.0 - v) ** (2.0 * (1.0 - s)) * (
            (1.0 + v) ** (2.0 * s) - (1.0 - v) ** (2.0 * s)
        )
    lam0 = (1.0 - v) ** 2 + r
    lam1 = (1.0 + v) ** 2 + r
    curvature_term = 8.0 * s * (1.0 - s) * v * (
        1.0 - (r / lam0) * (4.0 * v**2 / lam1)
    )
    divergence_term = (1.0 - s) * lam0 + s * lam1 - lam0 ** (1.0 - s) * lam1**s
    return curvature_term - divergence_term


@dataclass(frozen=True)
class ClaimCheck:
    """Outcome of one structural check, with numeric evidence."""

    name: str
    passed: bool
    details: dict

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "details": self.details}


@dataclass(frozen=True)
class ClaimReport:
    """Aggregate of the structural checks run by ``verify_claims``."""

    checks: tuple[ClaimCheck, ...]
    notes: tuple[str, ...]

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "checks": [check.to_dict() for check in self.checks],
            "notes": list(self.notes),
        }


def verify_claims(
    ratios_high: OperatingRatios,
    ratios_low: OperatingRatios,
    expected_counterexample: float = 1.9822,
    expected_time_sharing: float = 1.9314,
    min_margin: float = 0.04,
) -> ClaimReport:
    """Run the structural checks behind the optimizer design.

    (1) the zero-dark convexity margin is positive on an (s, v) grid;
    (2) the optimal tilt always lies in (0, 1/2] — via the ratio closed form
        and via pair maximization for non-degenerate distributions;
    (3) at ``ratios_low`` the optimizer strictly beats time-sharing by at
        least ``min_margin`` and lands near ``expected_counterexample``;
    (4) at ``ratios_high`` (vanishing dark counts) the optimizer returns
        time-sharing for every budget on a 0.1-step grid.

    Failed checks are reported, never raised.
    """
    from .divergence import RatePair, max_chernoff, s_star_ratio

    checks: list[ClaimCheck] = []
    notes: list[str] = []

    # (1) zero-dark convexity margin positive on the standard grid.
    s_values = np.arange(0.05, 0.501, 0.05)
    v_values = np.arange(0.05, 0.951, 0.05)
    margins = np.array(
        [[convexity_margin(s, 0.0, v) for v in v_values] for s in s_values]
    )
    checks.append(
        ClaimCheck(
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
    tilt_values = np.array([s_star_ratio(x) for x in ratio_grid])
    constellation = bpsk()
    pair_tilts = []
    for v in np.linspace(0.05, 1.0, 20):
        q = ControlDistribution.point_mass(complex(min(v, math.sqrt(ratios_low.r_ce))))
        pair_tilts.append(
            pair_exponent(q, (0, 1), constellation, ratios_low).s_star
        )
    tilt_ok = (
        bool(np.all((tilt_values > 0.0) & (tilt_values < 0.5)))
        and bool(np.all(np.diff(tilt_values) > 0.0))
        and all(0.0 < s <= 0.5 for s in pair_tilts)
    )
    checks.append(
        ClaimCheck(
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
    full_budget = RatePair(ratios_low.r_sn, (1.0 + 1.0) ** 2 + ratios_low.r_sn)
    kennedy = max_chernoff(full_budget)
    notes.append(
        "full-budget point exponent at r_sn="
        f"{ratios_low.r_sn:g} is {kennedy.value:.4f} by the stationarity "
        f"identity (the value 2.1359 sometimes quoted for r_sn=0.01 is "
        f"inconsistent: {ratios_low.r_ce:g} x {kennedy.value:.4f} = "
        f"{ratios_low.r_ce * kennedy.value:.4f} matches the time-sharing "
        "reference, 2.1359 does not)"
    )
    checks.append(
        ClaimCheck(
            name="interior-mass-beats-time-sharing",
            passed=(
                solution.beta >= expected_counterexample - 2e-3
                and abs(ts_value - expected_time_sharing) <= 2e-3
                and margin >= min_margin
            ),
            details={
                "beta": solution.beta,
                "time_sharing_value": ts_value,
                "margin": margin,
                "expected_counterexample": expected_counterexample,
                "expected_time_sharing": expected_time_sharing,
                "q_star": [
                    {"re": p.real, "im": p.imag, "weight": w}
                    for p, w in solution.q_star.atoms
                ],
            },
        )
    )

    # (4) vanishing dark counts: time-sharing is returned across budgets.
    worst_tv = 0.0
    for r_ce in np.arange(0.1, 1.001, 0.1):
        budget_ratios = OperatingRatios(
            r_sn=ratios_high.r_sn, r_ca=ratios_high.r_ca, r_ce=float(r_ce)
        )
        sol = optimize_binary(budget_ratios)
        tv = sol.q_star.total_variation(
            ControlDistribution.time_sharing(float(r_ce))
        )
        worst_tv = max(worst_tv, tv)
    checks.append(
        ClaimCheck(
            name="vanishing-dark-time-sharing",
            passed=worst_tv <= 1e-2,
            details={"worst_total_variation": worst_tv},
        )
    )

    return ClaimReport(checks=tuple(checks), notes=tuple(notes))
