"""End-to-end acceptance gate for the package.

Each test checks one numbered release criterion at its stated tolerance and
prints a single PASS/FAIL line with the measured quantities (visible under
``pytest -s`` or in failure output).  Two checks are expected failures with
the blocking analysis recorded in their reasons: the energy-curvature sign
oracle on the s = 1/2 boundary, and the low-SNR homodyne crossover window.
"""

import math
from time import perf_counter

import numpy as np
import pytest
from scipy.optimize import brentq

from oracles import (
    RatePair,
    chernoff_s,
    chernoff_s_series,
    kl_poisson,
    tilted_rate,
    total_variation,
)
from pskexp.baselines import homodyne_binary, theorem_bound
from pskexp.constellation import OperatingRatios, SignalScale, bpsk
from pskexp.divergence import chernoff_values, max_chernoff, s_star_log
from pskexp.exponent import (
    ControlDistribution,
    convexity_margin,
    exponent_of,
    optimize_binary,
    pair_exponent,
)
from pskexp.receiver import (
    OpenLoopPolicy,
    exact_error_small,
    monte_carlo,
    realize_policy,
)

S_GRID = [k / 20.0 for k in range(1, 11)]
V_GRID = [k / 20.0 for k in range(1, 20)]


def closed_form(pair: RatePair, s: float) -> float:
    """C_s of one rate pair as the package computes it."""
    return float(chernoff_values(pair.lambda0, pair.lambda1, s))


def emit(index: str, ok: bool, detail: str) -> bool:
    """Print the one-line verdict for a criterion and pass the flag through."""
    print(f"{'PASS' if ok else 'FAIL'} [{index}] {detail}")
    return ok


class TestAcceptance:
    """Release criteria, one test each, at the stated tolerances."""

    def test_c1_interior_optimum_beats_time_sharing(self):
        """Reference operating point: values, optimizer floor, margin, time."""
        start = perf_counter()
        ratios = OperatingRatios(r_sn=0.01, r_ca=1.0, r_ce=0.9)
        const = bpsk()
        point = exponent_of(
            ControlDistribution.point_mass(math.sqrt(0.9)), const, ratios
        )
        _, sharing = pair_exponent(
            ControlDistribution.time_sharing(0.9), (0, 1), const, ratios
        )
        beta = optimize_binary(ratios).beta
        elapsed = perf_counter() - start
        ok = (
            abs(point - 1.9822) <= 2e-3
            and abs(sharing - 1.9314) <= 2e-3
            and beta >= 1.9812
            and beta - sharing >= 0.04
            and elapsed < 10.0
        )
        assert emit(
            "1",
            ok,
            f"point={point:.6f} sharing={sharing:.6f} beta={beta:.6f} "
            f"margin={beta - sharing:.4f} t={elapsed:.1f}s",
        )

    def test_c2_tilt_recovery(self):
        """Published tilt at the reference rates; closed form vs search."""
        s_star, _ = max_chernoff(0.0126334, 3.8073666)
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(1000):
            lo, hi = np.sort(10.0 ** rng.uniform(-3.0, 1.0, size=2))
            if hi - lo <= 1e-12 * hi:
                continue
            closed = s_star_log(math.log(lo / hi))
            searched, _ = max_chernoff(lo, hi)
            worst = max(worst, abs(closed - searched))
        ok = abs(s_star - 0.31) <= 0.005 and worst <= 1e-6
        assert emit(
            "2", ok, f"s_star={s_star:.6f} worst_pair_gap={worst:.2e}"
        )

    def test_c3_high_snr_time_sharing(self):
        """Vanishing dark counts: optimizer collapses to time sharing."""
        start = perf_counter()
        budgets = [k / 10.0 for k in range(1, 11)]
        worst_tv = 0.0
        log_bounds = []
        for r_ce in budgets:
            solution = optimize_binary(OperatingRatios(1e-6, 1.0, r_ce))
            sharing = ControlDistribution.time_sharing(r_ce)
            worst_tv = max(worst_tv, total_variation(solution.q_star, sharing))
            log_bounds.append(
                math.log(theorem_bound(solution.beta, 2.0, 2))
            )
        fit = np.polyval(np.polyfit(budgets, log_bounds, 1), budgets)
        residual = float(np.max(np.abs(fit - log_bounds) / np.abs(log_bounds)))
        elapsed = perf_counter() - start
        ok = worst_tv <= 1e-2 and residual < 1e-3 and elapsed < 60.0
        assert emit(
            "3",
            ok,
            f"worst_tv={worst_tv:.2e} log_residual={residual:.2e} "
            f"t={elapsed:.1f}s",
        )

    def test_c4_low_snr_departure(self):
        """Visible dark counts: some budget strictly beats time sharing."""
        ratios = OperatingRatios(1e-2, 1.0, 0.9)
        beta = optimize_binary(ratios).beta
        slope = exponent_of(
            ControlDistribution.point_mass(1.0),
            bpsk(),
            OperatingRatios(1e-2, 1.0, 1.0),
        )
        margin = beta - 0.9 * slope
        ok = margin >= 0.03
        assert emit("4", ok, f"r_ce=0.9 margin={margin:.4f}")

    def test_c5_divergence_oracles(self):
        """Closed form vs series, tilted-KL identities, scaling, shape."""
        start = perf_counter()
        grid = [0.01, 0.1, 1.0, 4.0, 10.0]
        worst_series = 0.0
        for l0 in grid:
            for l1 in grid:
                if l0 == l1:
                    continue
                pair = RatePair(l0, l1)
                for k in range(1, 10):
                    s = k / 10.0
                    worst_series = max(
                        worst_series,
                        abs(closed_form(pair, s) - chernoff_s_series(pair, s)),
                    )
        rng = np.random.default_rng(5)
        worst_kl = 0.0
        worst_scale = 0.0
        for _ in range(100):
            hi = 10.0 ** rng.uniform(-1.0, 1.0)
            lo = hi * 10.0 ** rng.uniform(-2.0, -0.3)
            pair = RatePair(lo, hi)
            s = s_star_log(math.log(lo / hi))
            mid = tilted_rate(pair, s)
            d0, d1 = kl_poisson(mid, lo), kl_poisson(mid, hi)
            _, best = max_chernoff(lo, hi)
            worst_kl = max(worst_kl, abs(d0 - d1), abs(d0 - best))
            c = 10.0 ** rng.uniform(-2.0, 2.0)
            scaled = closed_form(RatePair(c * lo, c * hi), 0.37)
            base = c * closed_form(pair, 0.37)
            worst_scale = max(worst_scale, abs(scaled - base) / base)
        concave = all(
            closed_form(RatePair(0.3, 6.0), (k - 1) / 50.0)
            - 2.0 * closed_form(RatePair(0.3, 6.0), k / 50.0)
            + closed_form(RatePair(0.3, 6.0), (k + 1) / 50.0)
            < 0.0
            for k in range(1, 50)
        )
        ratios_axis = np.linspace(1e-6, 1.0 - 1e-6, 10000)
        tilts = np.array([s_star_log(math.log(r)) for r in ratios_axis])
        monotone = bool(np.all(np.diff(tilts) > 0.0))
        elapsed = perf_counter() - start
        ok = (
            worst_series <= 1e-10
            and worst_kl <= 1e-9
            and worst_scale <= 1e-12
            and concave
            and monotone
            and elapsed < 5.0
        )
        assert emit(
            "5",
            ok,
            f"series={worst_series:.1e} kl={worst_kl:.1e} "
            f"scaling={worst_scale:.1e} concave={concave} "
            f"monotone={monotone} t={elapsed:.1f}s",
        )

    def test_c6_zero_dark_margin_positive(self):
        """The zero-dark convexity margin is positive on the whole grid."""
        low = min(
            convexity_margin(s, 0.0, v) for s in S_GRID for v in V_GRID
        )
        ok = low > 0.0
        assert emit("6a", ok, f"min_margin={low:.6f}")

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "the closed-form margin tracks the energy curvature only for "
            "tilts strictly inside (0, 1/2): on the s = 1/2 row with r > 0 "
            "it stays positive while the true second difference turns "
            "negative, so the full-grid sign match cannot hold"
        ),
    )
    def test_c6_sign_matches_energy_curvature(self):
        """Margin sign vs a second-difference oracle at r = 1e-4."""
        r, h = 1e-4, 1e-4
        mismatches = 0
        for s in S_GRID:
            for v in V_GRID:
                margin = convexity_margin(s, r, v)

                def value(energy: float) -> float:
                    w = math.sqrt(energy)
                    pair = RatePair((1.0 - w) ** 2 + r, (1.0 + w) ** 2 + r)
                    return chernoff_s(pair, s)

                energy = v * v
                second = (
                    value(energy - h) - 2.0 * value(energy) + value(energy + h)
                )
                if margin * second <= 0.0:
                    mismatches += 1
        ok = mismatches == 0
        assert emit(
            "6b", ok, f"sign_mismatches={mismatches}/{len(S_GRID) * len(V_GRID)}"
        )

    def test_c7_simulator_matches_oracle(self):
        """Monte Carlo agrees with exact enumeration across a small matrix."""
        start = perf_counter()
        ratios = OperatingRatios(0.01, 1.0, 1.0)
        const = bpsk()
        failures = []
        worst_sigmas = 0.0
        for i, slices in enumerate([1, 2, 4]):
            for j, v in enumerate([0.0, 0.5, 1.0]):
                policy = OpenLoopPolicy(
                    (complex(v),) * slices,
                    SignalScale(2.0, slices, 1),
                    const,
                    ratios,
                )
                exact = exact_error_small(policy)
                report = monte_carlo(policy, 100000, seed=40 + 3 * i + j)
                gap = abs(report.p_e - exact.p_e)
                if v == 0.0 and exact.p_e != 0.5:
                    failures.append((slices, v))
                if gap > 4.0 * report.stderr:
                    failures.append((slices, v))
                if report.stderr > 0.0:
                    worst_sigmas = max(worst_sigmas, gap / report.stderr)
        elapsed = perf_counter() - start
        ok = not failures and elapsed < 60.0
        assert emit(
            "7",
            ok,
            f"failures={failures} worst_gap={worst_sigmas:.2f}sigma "
            f"t={elapsed:.1f}s",
        )

    def test_c8_bound_validation(self):
        """A realized 200-slice policy obeys its own exponent bound."""
        start = perf_counter()
        ratios = OperatingRatios(0.01, 1.0, 0.9)
        const = bpsk()
        solution = optimize_binary(ratios)
        policy = realize_policy(
            solution.q_star, SignalScale(2.0, 200, 1), const, ratios
        )
        beta_realized = exponent_of(policy.type_distribution(), const, ratios)
        report = monte_carlo(policy, 1_000_000, seed=8)
        bound = 0.5 * math.exp(-2.0 * beta_realized)
        slack = 1.0 + 5.0 * (
            report.stderr / report.p_e if report.p_e > 0.0 else math.inf
        )
        elapsed = perf_counter() - start
        ok = report.p_e <= bound * slack and elapsed < 300.0
        assert emit(
            "8",
            ok,
            f"p_e={report.p_e:.3e} bound={bound:.3e} "
            f"slack={slack:.3f} t={elapsed:.1f}s",
        )
        # The realized policy is one displacement group, so the oracle gives
        # its error exactly; Monte Carlo becomes a stated-sigma cross-check
        # against the binomial law of the exact per-hypothesis errors.
        exact = exact_error_small(policy)
        rates = np.array(exact.per_hypothesis)
        sigma = math.sqrt(float(np.sum(rates * (1.0 - rates))) / 1_000_000) / 2
        gap = abs(report.p_e - exact.p_e) / sigma
        ok_exact = exact.p_e <= bound and gap <= 4.0
        assert emit(
            "8b",
            ok_exact,
            f"exact_p_e={exact.p_e:.4e} bound={bound:.3e} "
            f"mc_gap={gap:.2f}sigma tail={exact.tail_bound:.1e}",
        )

    def test_c9_high_snr_homodyne_crossover(self):
        """Near-ideal detectors: the bound overtakes homodyne near one photon."""
        beta = optimize_binary(OperatingRatios(1e-6, 1.0, 1.0)).beta

        def gap(alpha_sq: float) -> float:
            ours = theorem_bound(beta, alpha_sq, 2)
            return math.log(ours) - math.log(homodyne_binary(alpha_sq))

        crossover = brentq(gap, 0.25, 4.0)
        ok = abs(crossover - 1.0) <= 0.3
        assert emit("9a", ok, f"crossover_alpha_sq={crossover:.4f}")

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "at r_sn = 1e-2 the exponent loses only 0.15 against the "
            "homodyne slope, pushing the measured crossover to about "
            "alpha_sq = 15.9; the asserted 1.8 +/- 0.4 window corresponds "
            "to a dark-count ratio near 1e-4, not 1e-2"
        ),
    )
    def test_c9_low_snr_homodyne_crossover(self):
        """Noisy detectors: asserted crossover window at r_sn = 1e-2."""
        beta = optimize_binary(OperatingRatios(1e-2, 1.0, 1.0)).beta

        def gap(alpha_sq: float) -> float:
            ours = theorem_bound(beta, alpha_sq, 2)
            return math.log(ours) - math.log(homodyne_binary(alpha_sq))

        crossover = brentq(gap, 0.25, 30.0)
        ok = abs(crossover - 1.8) <= 0.4
        assert emit("9b", ok, f"crossover_alpha_sq={crossover:.4f}")
