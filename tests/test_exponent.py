"""Tests for the control-distribution exponent optimizers and claim checks."""

import json
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    RatePair,
    certified_control_lp,
    chernoff_s,
    highs_control_lp,
    mp_point_exponent,
    peak_traced_bytes,
    total_variation,
    zero_dark_margin,
)
from pins import BINARY_CENSUS, GENERAL, MARY_RANGE_CENSUS, TESTS
from pskexp import exponent, simplex
from pskexp.constellation import (
    OperatingRatios,
    bpsk,
    control_grid,
    normalized_rates,
    uniform_psk,
)
from pskexp.divergence import (
    EQUAL_RATE_RTOL,
    GOLDEN_MAX_ITER,
    GOLDEN_TOL,
    ChernoffOptimum,
    chernoff_values,
    max_chernoff_mixtures,
    s_star_log,
)
from pskexp.exponent import (
    ControlDistribution,
    ExponentSolution,
    convexity_margin,
    exponent_of,
    optimize_binary,
    optimize_general,
    pair_exponent,
    pair_exponents,
    verify_claims,
)
from pskexp.simplex import MAX_PIVOTS, linprog

BPSK = bpsk()
RATIOS_LOW = OperatingRatios(r_sn=0.01, r_ca=1.0, r_ce=0.9)

# Frozen oracle values, mpmath at 50 decimal digits.
FULL_POINT_VALUE = 2.14595769827296744  # point mass at v = 1, r_sn = 0.01
FULL_POINT_S_STAR = 0.299176001648163175
TIME_SHARING_09_VALUE = 1.9313619284456707  # 0.9 * FULL_POINT_VALUE
COUNTEREXAMPLE_VALUE = 1.98240722246624747  # point mass at v = sqrt(0.9)
COUNTEREXAMPLE_POINT = 0.9486832980505138  # sqrt(0.9)
HIGH_SNR_FULL_VALUE = 3.02079770393544019  # point mass at v = 1, r_sn = 1e-6
NULLING_VALUE_R_1E_50 = 3.80232596315642149  # point mass at v = 1, r_sn = 1e-50
NULLING_VALUE_R_1E_300 = 3.95642741605791551  # point mass at v = 1, r_sn = 1e-300

#: ``optimize_binary`` betas recorded with the L-BFGS-B polish the in-package
#: one replaced, on 64 seeded points (r_sn log-uniform in [1e-6, 0.1], r_ca
#: in {1, 1.25}, r_ce uniform in [0.05, 1]) and verify's ten r_sn = 1e-6
#: budgets.
PINNED_BINARY = json.loads((TESTS / "pinned_binary_betas.json").read_text())

#: A control LP whose Bland pivots gain nothing over a whole refactorization
#: interval before it reaches its optimum: the second LP of (16, 0.001, 0.5,
#: grid_k 40), by its 120 pair tilts (it rebuilds bit for bit through
#: ``control_lp``).
PINNED_STALL_LP = json.loads((TESTS / "pinned_stall_lp_tilts.json").read_text())

#: Pair tilts of the ping-pong LP (4-PSK, r_sn 0.1, r_ce 0.9, grid_k 20) as
#: ``optimize_general`` reached them when it solved each LP on all pair
#: rows; its simplex ends on the repeated-basis exit.
PING_PONG_TILTS = [
    0.5430517143546334,
    0.5000000000004358,
    0.5430516975769413,
    0.45694828564562096,
    0.49999997503485055,
    0.5430516975766868,
]


def bpsk_rates(v: float, r: float) -> RatePair:
    """Normalized BPSK rate pair at real displacement v and dark ratio r."""
    return RatePair(*normalized_rates(v, BPSK, r).tolist())


def reference_golden_section_max(f, lo, hi, tol=GOLDEN_TOL, max_iter=GOLDEN_MAX_ITER):
    """Scalar golden-section search, one function evaluation per step."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a <= tol:
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


def mp_golden_max(f, lo, hi, steps):
    """Maximizer of a unimodal mpmath function on [lo, hi], by ``steps``
    golden-section steps."""
    invphi = (mp.sqrt(5) - 1) / 2
    for _ in range(steps):
        c, d = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
        if f(c) >= f(d):
            hi = d
        else:
            lo = c
    return (lo + hi) / 2


def reference_pair_exponent(q, pair, constellation, ratios):
    """One pair's tilt solve on its own: scalar golden search over
    ``np.dot(weights, chernoff_values(rates_l, rates_m, s))``.

    Oracle for ``pair_exponents``, which solves all pairs with Newton steps
    and must reach the same values.
    """
    q.validate_feasible(ratios)
    l, m = pair
    table = normalized_rates(q.points, constellation, ratios.r_sn)
    rates_l, rates_m = table[l], table[m]
    scale = np.maximum(rates_l, rates_m)
    if np.all(np.abs(rates_l - rates_m) <= EQUAL_RATE_RTOL * scale):
        return ChernoffOptimum(s_star=0.5, value=0.0)
    weights = q.weights

    def objective(s):
        return float(np.dot(weights, chernoff_values(rates_l, rates_m, s)))

    s_star, value = reference_golden_section_max(objective, 0.0, 1.0)
    return ChernoffOptimum(s_star=s_star, value=max(value, 0.0))


@st.composite
def mixtures(draw):
    """Distributions of 1-40 atoms in the unit disk, some at the origin
    (which makes every pair degenerate when all atoms are there)."""
    n = draw(st.integers(min_value=1, max_value=40))
    origin = st.just(0j)
    anywhere = st.builds(
        lambda rho, phi: complex(rho * math.cos(phi), rho * math.sin(phi)),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )
    points = draw(st.lists(st.one_of(origin, anywhere), min_size=n, max_size=n))
    weights = draw(
        st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=n, max_size=n)
    )
    return ControlDistribution.from_arrays(points, weights)


class TestControlDistribution:
    """Validate the finitely supported distribution container."""

    def test_rejects_empty(self):
        """At least one atom is required."""
        with pytest.raises(ValueError, match="at least one atom"):
            ControlDistribution(atoms=())

    def test_rejects_nonpositive_weights(self):
        """Weights must be strictly positive."""
        with pytest.raises(ValueError, match="positive"):
            ControlDistribution(atoms=((0.0 + 0.0j, 0.0), (1.0 + 0.0j, 1.0)))

    def test_rejects_unnormalized_weights(self):
        """Weights must sum to one."""
        with pytest.raises(ValueError, match="sum"):
            ControlDistribution(atoms=((0.0 + 0.0j, 0.6), (1.0 + 0.0j, 0.6)))

    def test_from_arrays_merges_and_renormalizes(self):
        """Duplicate points merge; weights renormalize; a zero weight is
        dropped."""
        q = ControlDistribution.from_arrays(
            points=[0.5, 0.5, 0.0, 1.0],
            weights=[0.2, 0.2, 0.4, 0.0],
        )
        assert len(q.atoms) == 2
        np.testing.assert_allclose(q.points, [0.0, 0.5])
        np.testing.assert_allclose(q.weights, [0.5, 0.5], rtol=1e-14)

    def test_from_arrays_keeps_tiny_positive_weight(self):
        """Only zero weights are dropped: an atom of weight 1e-15 stays, as
        the binary optimum's atom does at budgets that small."""
        q = ControlDistribution.from_arrays([0.0, 1.0], [1.0 - 1e-15, 1e-15])
        assert q.atoms == ((0j, 1.0 - 1e-15), (1 + 0j, 1e-15))

    def test_rejects_non_finite_points(self):
        """A NaN or infinite atom is refused, not carried into the rates."""
        for point in (complex("nan"), complex("inf"), complex(0.5, math.nan)):
            with pytest.raises(ValueError, match="finite"):
                ControlDistribution.point_mass(point)

    def test_from_arrays_rejects_non_finite_weights(self):
        """A NaN weight raises instead of being dropped as dust."""
        for weight in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                ControlDistribution.from_arrays([0.1, 0.2], [weight, 1.0])

    def test_from_arrays_rejects_negative_weight(self):
        """A negative weight raises instead of being dropped as dust."""
        with pytest.raises(ValueError, match="nonnegative"):
            ControlDistribution.from_arrays([0.1, 0.2], [-0.5, 1.0])

    def test_from_arrays_rejects_length_mismatch(self):
        """Points and weights of different lengths raise instead of being
        truncated to the shorter one."""
        for points, weights in (([0.1, 0.2], [0.5]), ([0.1], [0.5, 0.5])):
            with pytest.raises(ValueError):
                ControlDistribution.from_arrays(points, weights)

    def test_from_arrays_rejects_all_zero_weights(self):
        """A weight vector of zeros is an error."""
        with pytest.raises(ValueError, match="vanished"):
            ControlDistribution.from_arrays(points=[0.5, 1.0], weights=[0.0, 0.0])

    def test_from_arrays_deterministic_order(self):
        """Atoms come out sorted by (real, imaginary) part."""
        q = ControlDistribution.from_arrays(
            points=[1.0, -0.5 + 0.2j, -0.5 - 0.2j], weights=[0.4, 0.3, 0.3]
        )
        np.testing.assert_allclose(q.points, [-0.5 - 0.2j, -0.5 + 0.2j, 1.0])

    def test_point_mass_and_second_moment(self):
        """Point mass has unit weight and the squared modulus as energy."""
        q = ControlDistribution.point_mass(0.3 + 0.4j)
        assert q.atoms == ((0.3 + 0.4j, 1.0),)
        assert q.second_moment() == pytest.approx(0.25, rel=1e-14)

    def test_time_sharing_atoms(self):
        """Time sharing mixes the origin and the nulling point 1."""
        q = ControlDistribution.time_sharing(0.9)
        assert q.atoms == ((0.0 + 0.0j, pytest.approx(0.1)), (1.0 + 0.0j, pytest.approx(0.9)))
        assert q.second_moment() == pytest.approx(0.9, rel=1e-14)

    def test_time_sharing_degenerate_budgets(self):
        """Budgets 0 and 1 collapse to point masses; outside [0, 1] raises."""
        assert ControlDistribution.time_sharing(0.0) == ControlDistribution.point_mass(0.0)
        assert ControlDistribution.time_sharing(1.0) == ControlDistribution.point_mass(1.0)
        with pytest.raises(ValueError):
            ControlDistribution.time_sharing(1.1)

    def test_validate_feasible(self):
        """Disk and energy violations raise; compliant distributions pass."""
        ControlDistribution.time_sharing(0.9).validate_feasible(RATIOS_LOW)
        with pytest.raises(ValueError, match="disk"):
            ControlDistribution.point_mass(1.2).validate_feasible(RATIOS_LOW)
        with pytest.raises(ValueError, match="budget"):
            ControlDistribution.point_mass(1.0).validate_feasible(RATIOS_LOW)

    def test_validate_feasible_slack_is_relative(self):
        """The energy slack scales with the budget: a second moment a
        rounding step over 9e9 passes, and a point mass at twice a 5e-13
        budget does not."""
        wide = OperatingRatios(r_sn=0.01, r_ca=1e5, r_ce=9e9)
        w = 0.9000000000000001
        q = ControlDistribution(atoms=((0j, 1.0 - w), (complex(1e5), w)))
        assert q.second_moment() == 9000000000.000002
        q.validate_feasible(wide)
        tiny = OperatingRatios(r_sn=0.01, r_ca=1e-6, r_ce=5e-13)
        with pytest.raises(ValueError, match="budget"):
            ControlDistribution.point_mass(1e-6).validate_feasible(tiny)

    def test_records(self):
        """records() lists the atoms as JSON records, in atom order."""
        q = ControlDistribution.from_arrays([0.5j, 0.0], [0.25, 0.75])
        assert q.records() == [
            {"re": 0.0, "im": 0.0, "weight": 0.75},
            {"re": 0.0, "im": 0.5, "weight": 0.25},
        ]

    def test_total_variation_basic(self):
        """TV is 0 on identical, 1 on disjoint, additive on shared support."""
        ts = ControlDistribution.time_sharing(0.5)
        assert total_variation(ts, ts) == pytest.approx(0.0, abs=1e-15)
        a = ControlDistribution.point_mass(0.0)
        b = ControlDistribution.point_mass(1.0)
        assert total_variation(a, b) == pytest.approx(1.0, abs=1e-15)
        assert total_variation(ts, a) == pytest.approx(0.5, abs=1e-15)

    def test_total_variation_is_symmetric(self):
        """TV(P, Q) = TV(Q, P)."""
        p = ControlDistribution.from_arrays([0.0, 0.7], [0.3, 0.7])
        q = ControlDistribution.from_arrays([0.0, 1.0], [0.6, 0.4])
        assert total_variation(p, q) == pytest.approx(total_variation(q, p), abs=1e-15)

    def test_total_variation_match_tolerance(self):
        """Atoms within the default match tolerance (1e-4) count as one
        location; beyond it, disjoint."""
        a = ControlDistribution.point_mass(1.0)
        b = ControlDistribution.point_mass(1.0 - 3e-5)
        assert total_variation(a, b) == pytest.approx(0.0, abs=1e-15)
        c = ControlDistribution.point_mass(0.949)
        assert total_variation(a, c) == pytest.approx(1.0, abs=1e-15)


class TestExponentSolution:
    """Validate the optimizer result container."""

    def test_enforces_beta_consistency(self):
        """beta must equal the minimum per-pair value."""
        q = ControlDistribution.point_mass(0.5)
        with pytest.raises(ValueError, match="minimum"):
            ExponentSolution(
                beta=1.0,
                q_star=q,
                per_pair=(((0, 1), 0.3, 2.0),),
                method="test",
                certified=True,
            )

    def test_enforces_nonnegative_beta(self):
        """Negative exponents are rejected."""
        q = ControlDistribution.point_mass(0.5)
        with pytest.raises(ValueError, match="nonnegative"):
            ExponentSolution(
                beta=-1.0,
                q_star=q,
                per_pair=(((0, 1), 0.3, -1.0),),
                method="test",
                certified=True,
            )


class TestPairExponent:
    """Validate the per-pair mixture exponent."""

    def test_origin_point_mass_is_degenerate(self):
        """At v = 0 both hypotheses see the same rate; convention (1/2, 0)."""
        got = pair_exponent(
            ControlDistribution.point_mass(0.0), (0, 1), BPSK, RATIOS_LOW
        )
        assert got == ChernoffOptimum(s_star=0.5, value=0.0)

    def test_full_displacement_point_mass(self):
        """Frozen optimum of the rate pair (0.01, 4.01)."""
        ratios = OperatingRatios(r_sn=0.01, r_ca=1.0, r_ce=1.0)
        got = pair_exponent(ControlDistribution.point_mass(1.0), (0, 1), BPSK, ratios)
        assert got.value == pytest.approx(FULL_POINT_VALUE, abs=1e-9)
        assert got.s_star == pytest.approx(FULL_POINT_S_STAR, abs=1e-6)

    def test_time_sharing_mixture_value(self):
        """Mixing with the origin scales the objective by the mass at 1."""
        got = pair_exponent(
            ControlDistribution.time_sharing(0.9), (0, 1), BPSK, RATIOS_LOW
        )
        assert got.value == pytest.approx(TIME_SHARING_09_VALUE, abs=1e-9)
        # The origin atom contributes zero at every s, so the maximizing
        # tilt coincides with the full-displacement one.
        assert got.s_star == pytest.approx(FULL_POINT_S_STAR, abs=1e-6)

    def test_mixture_value_is_weighted_chernoff(self):
        """At fixed s the mixture objective is the weighted sum of C_s."""
        q = ControlDistribution.from_arrays([0.2, 0.8], [0.5, 0.5])
        got = pair_exponent(q, (0, 1), BPSK, RATIOS_LOW)
        direct = 0.5 * chernoff_s(bpsk_rates(0.2, 0.01), got.s_star) + 0.5 * chernoff_s(
            bpsk_rates(0.8, 0.01), got.s_star
        )
        assert got.value == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("v", [1e-5, 1e-6, 1e-7])
    def test_nearly_equal_rates_match_the_ratio_form(self, v):
        """A point mass near the origin keeps s* inside (0, 1/2], at the
        closed-form tilt of its rate ratio."""
        got = pair_exponent(ControlDistribution.point_mass(v), (0, 1), BPSK, RATIOS_LOW)
        rates = bpsk_rates(v, 0.01)
        assert got.s_star <= 0.5
        assert got.s_star == pytest.approx(
            s_star_log(math.log(rates.lambda0 / rates.lambda1)), abs=1e-9
        )

    @pytest.mark.parametrize(
        "r_sn, value",
        [(1e-50, NULLING_VALUE_R_1E_50), (1e-300, NULLING_VALUE_R_1E_300)],
    )
    def test_nulling_point_at_tiny_dark_ratios(self, r_sn, value):
        """The nulled rate is r_sn itself, so the exponent at v = 1 keeps
        growing as r_sn shrinks instead of freezing at a floor."""
        ratios = OperatingRatios(r_sn=r_sn, r_ca=1.0, r_ce=1.0)
        got = pair_exponent(ControlDistribution.point_mass(1.0), (0, 1), BPSK, ratios)
        assert got.value == pytest.approx(value, abs=1e-12)

    def test_infeasible_distribution_rejected(self):
        """The distribution must satisfy the operating constraints."""
        with pytest.raises(ValueError):
            pair_exponent(ControlDistribution.point_mass(1.0), (0, 1), BPSK, RATIOS_LOW)


class TestPairExponents:
    """The batched solve over all pairs equals the one-pair solves."""

    # The golden-search reference alone can exceed hypothesis's default
    # 200 ms deadline on a loaded machine.
    @settings(deadline=None)
    @given(
        q=mixtures(),
        m=st.sampled_from([2, 3, 4, 8]),
        log_r=st.floats(min_value=-8.0, max_value=0.0),
    )
    def test_matches_one_pair_reference(self, q, m, log_r):
        """Each pair's value is within 1e-9 of the per-pair golden search
        and never below it.  The tilts are not compared: where the objective
        is flat the golden search's comparisons cannot locate its maximum,
        and its tilt can land anywhere in [0, 1]."""
        con = uniform_psk(m)
        ratios = OperatingRatios(r_sn=10.0**log_r, r_ca=1.0, r_ce=1.0)
        pairs = con.pairs()
        got = pair_exponents(q, pairs, con, ratios)
        want = [reference_pair_exponent(q, pair, con, ratios) for pair in pairs]
        for pv, ref in zip(got, want):
            assert pv.value == pytest.approx(ref.value, abs=1e-9)
            assert pv.value >= ref.value - 1e-15
        if np.all(q.points == 0):
            assert got == [ChernoffOptimum(s_star=0.5, value=0.0)] * len(pairs)

    @given(
        q=mixtures(),
        log_r=st.floats(min_value=-300.0, max_value=0.0),
    )
    def test_left_half_for_bpsk_right_of_the_axis(self, q, log_r):
        """With every atom at Re v >= 0 each BPSK atom has lambda0 <= lambda1,
        so s* lies in (0, 1/2], for dark ratios down to 1e-300."""
        q = ControlDistribution.from_arrays(
            [complex(abs(p.real), p.imag) for p in q.points], q.weights
        )
        ratios = OperatingRatios(r_sn=10.0**log_r, r_ca=1.0, r_ce=1.0)
        assert 0.0 < pair_exponent(q, (0, 1), BPSK, ratios).s_star <= 0.5

    def test_any_pair_order_and_subset(self):
        """Each pair's value does not depend on which pairs share the call."""
        con = uniform_psk(4)
        q = ControlDistribution.from_arrays([0.0, 0.6, 0.8j, -0.5], [1, 2, 3, 4])
        pairs = [(2, 3), (0, 1), (1, 3)]
        got = pair_exponents(q, pairs, con, RATIOS_LOW)
        assert got == [pair_exponent(q, pair, con, RATIOS_LOW) for pair in pairs]


class TestExponentOf:
    """Validate the worst-pair exponent."""

    def test_binary_reduces_to_single_pair(self):
        """With two hypotheses the minimum is the only pair's value."""
        q = ControlDistribution.time_sharing(0.9)
        got = exponent_of(q, BPSK, RATIOS_LOW)
        assert got == pytest.approx(TIME_SHARING_09_VALUE, abs=1e-9)

    def test_origin_gives_zero_for_any_constellation(self):
        """The passive policy cannot separate equal-amplitude hypotheses."""
        q = ControlDistribution.point_mass(0.0)
        assert exponent_of(q, uniform_psk(4), RATIOS_LOW) == pytest.approx(0.0, abs=1e-12)

    def test_rotation_invariance(self):
        """Rotating Q by the constellation symmetry angle permutes pairs only."""
        con = uniform_psk(4)
        ratios = OperatingRatios(r_sn=0.01, r_ca=1.0, r_ce=0.5)
        q = ControlDistribution.from_arrays([0.3 + 0.1j, 0.2j], [0.5, 0.5])
        rot = complex(np.exp(1j * math.pi / 2.0))
        q_rot = ControlDistribution.from_arrays([rot * p for p in q.points], q.weights)
        got = exponent_of(q, con, ratios)
        got_rot = exponent_of(q_rot, con, ratios)
        assert got_rot == pytest.approx(got, rel=1e-12, abs=1e-12)


class TestOptimizeBinary:
    """Validate the near-exact BPSK optimizer."""

    def test_low_snr_beats_time_sharing(self):
        """At r_sn = 0.01 an interior point mass beats time-sharing."""
        sol = optimize_binary(RATIOS_LOW)
        assert sol.beta >= COUNTEREXAMPLE_VALUE - 1e-3
        assert sol.beta > TIME_SHARING_09_VALUE + 0.04
        assert sol.certified
        # The optimum concentrates essentially at the budget-saturating
        # single point sqrt(0.9).
        near = ControlDistribution.point_mass(COUNTEREXAMPLE_POINT)
        assert total_variation(sol.q_star, near) <= 1e-6

    def test_high_snr_recovers_time_sharing(self):
        """At r_sn = 1e-6 the optimum is time-sharing, up to polish jitter."""
        ratios = OperatingRatios(r_sn=1e-6, r_ca=1.0, r_ce=0.5)
        sol = optimize_binary(ratios)
        ts = ControlDistribution.time_sharing(0.5)
        assert total_variation(sol.q_star, ts) <= 1e-2
        assert sol.beta >= exponent_of(ts, BPSK, ratios) - 1e-12

    def test_zero_budget(self):
        """r_ce = 0 forces the passive policy and a zero exponent."""
        sol = optimize_binary(OperatingRatios(r_sn=0.01, r_ca=1.0, r_ce=0.0))
        assert sol.beta == 0.0
        assert sol.q_star == ControlDistribution.point_mass(0.0)

    def test_solution_is_feasible_and_consistent(self):
        """q_star satisfies the constraints and attains the reported beta."""
        sol = optimize_binary(RATIOS_LOW)
        sol.q_star.validate_feasible(RATIOS_LOW)
        assert exponent_of(sol.q_star, BPSK, RATIOS_LOW) == pytest.approx(
            sol.beta, abs=1e-9
        )
        ((pair, s_star, value),) = sol.per_pair
        assert pair == (0, 1)
        assert 0.0 < s_star <= 0.5
        assert value == pytest.approx(sol.beta, abs=1e-12)

    def test_dominates_handcrafted_candidates(self):
        """No handcrafted feasible distribution beats the optimizer."""
        sol = optimize_binary(RATIOS_LOW)
        candidates = [
            ControlDistribution.time_sharing(0.9),
            ControlDistribution.point_mass(COUNTEREXAMPLE_POINT),
            ControlDistribution.point_mass(0.5),
            ControlDistribution.from_arrays([0.3, 1.0], [0.4, 0.6]),
            ControlDistribution.from_arrays([0.0, 0.6, 0.9], [0.2, 0.5, 0.3]),
        ]
        for q in candidates:
            q.validate_feasible(RATIOS_LOW)
            assert exponent_of(q, BPSK, RATIOS_LOW) <= sol.beta + 1e-9

    def test_value_bounded_by_rate_bound(self):
        """beta can never exceed the uniform rate upper bound."""
        sol = optimize_binary(RATIOS_LOW)
        assert sol.beta <= (RATIOS_LOW.r_ca + 1.0) ** 2 + RATIOS_LOW.r_sn

    @pytest.mark.parametrize(
        "r_sn, r_ce, winner",
        [(0.01, 0.9, "end-point"), (1e-4, 0.3, "interior"), (1e-2, 1.0, "disk-edge")],
    )
    def test_reports_which_candidate_won(self, r_sn, r_ce, winner):
        """diagnostics name the winning point (a root of the polish, the kink
        sqrt(r_ce) or the disk edge r_ca) and count the evaluations of f off
        the grid: at least the two cells' ends beside the best grid point."""
        sol = optimize_binary(OperatingRatios(r_sn=r_sn, r_ca=1.0, r_ce=r_ce))
        assert sol.diagnostics["winner"] == winner
        assert sol.diagnostics["point_evaluations"] >= 2

    @pytest.mark.parametrize("r_sn, r_ce", [(1e-300, 0.1), (1e-20, 0.3)])
    def test_keeps_the_nulling_grid_point(self, r_sn, r_ce):
        """On a disk of 1.25, v = 1 (a grid point) mixed with the origin
        beats every point beside it; the polish returned 1 - 1.9e-11 and
        lost 8.7% (r_sn 1e-300) and 6.4e-5 (1e-20) of beta."""
        ratios = OperatingRatios(r_sn=r_sn, r_ca=1.25, r_ce=r_ce)
        nulling = exponent_of(ControlDistribution.time_sharing(r_ce), BPSK, ratios)
        assert optimize_binary(ratios).beta >= nulling

    @pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("r_ca", [1.0, 1.25])
    @pytest.mark.parametrize("r_sn", [1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2])
    def test_optimum_near_nulling_matches_mpmath(self, r_sn, r_ca, fraction):
        """beta is within 1e-12 relative of f's maximum at 50 digits, and
        1 - v within 1e-6 relative of the maximizer's, or within 2**-52 (the
        spacing of doubles just above 1) where that is coarser: at r_sn
        1e-14, 1 - v is 1.39e-12, where a golden search ended at v = 1."""
        r_ce = fraction * r_ca * r_ca
        with mp.workdps(50):
            r, ce = mp.mpf(r_sn), mp.mpf(r_ce)

            def f(v):
                return min(1, ce / v**2) * mp_point_exponent(v, r)

            v_star = mp_golden_max(f, mp.mpf("0.5"), mp.mpf(r_ca), 140)
            beta, gap = float(f(v_star)), float(1 - v_star)
        sol = optimize_binary(OperatingRatios(r_sn, r_ca, r_ce))
        v = max(p.real for p, _ in sol.q_star.atoms)
        assert sol.beta == pytest.approx(beta, rel=1e-12)
        assert 1.0 - v == pytest.approx(gap, rel=1e-6, abs=2**-52)

    def test_census_polish_is_short(self):
        """Over the 150 census solves with a budget the polish evaluates f
        off the grid 3 times in the median and at most 29 times (a golden
        search took 40, and up to 205)."""
        counts = [
            optimize_binary(OperatingRatios(r_sn, r_ca, fraction * r_ca * r_ca))
            .diagnostics["point_evaluations"]
            for r_sn, r_ca, fraction in BINARY_CENSUS.keys
            if fraction > 0.0
        ]
        assert np.median(counts) <= 12 and max(counts) <= 40

    @pytest.mark.parametrize("r_ca", [1e10, 1e200])
    def test_search_is_bounded_by_the_problem(self, r_ca):
        """A huge disk gives the r_ca = 1 solution: past v = max(2,
        8*sqrt(r_ce/f(kink))) nothing beats the kink, so the v-grid stops
        there (at 1e10 it spanned the disk and asked for 73 TiB; at 1e200
        r_ca**2 overflowed)."""
        sol = optimize_binary(OperatingRatios(r_sn=0.01, r_ca=r_ca, r_ce=0.9))
        paper = optimize_binary(RATIOS_LOW)
        assert sol.beta == paper.beta
        assert sol.q_star == paper.q_star
        assert sol.diagnostics["winner"] == "end-point"

    @pytest.mark.parametrize(
        "r_sn, r_ca, r_ce",
        [(1e12, 1e10, 0.9), (0.01, 1e10, 9e19), (0.01, 1e5, 9e9), (1e30, 1e10, 0.9)],
    )
    def test_v_grid_is_capped(self, r_sn, r_ca, r_ce):
        """Wide searches grid at most ``V_GRID_CELLS`` cells (they asked
        numpy for 42.1 GiB, 72.8 TiB, 763 MiB and 72.8 TiB), and return a
        feasible solution."""
        ratios = OperatingRatios(r_sn=r_sn, r_ca=r_ca, r_ce=r_ce)
        solutions = []
        peak = peak_traced_bytes(lambda: solutions.append(optimize_binary(ratios)))
        assert peak <= 16 * 2**20
        sol = solutions[0]
        sol.q_star.validate_feasible(ratios)
        assert math.isfinite(sol.beta) and sol.beta >= 0.0

    def test_capped_grid_keeps_the_optimum(self):
        """At r_ca = 1e3 the search spans the whole disk; its capped grid
        finds beta at least the 1.7999965801597534e-6 of a 1e6-cell grid."""
        sol = optimize_binary(OperatingRatios(r_sn=1e6, r_ca=1e3, r_ce=0.9))
        assert 1.7999965801597534e-06 <= sol.beta <= 1.7999965801597534e-06 * (1 + 1e-9)

    def test_tiny_budget_keeps_its_atom(self):
        """At r_ce = 1e-15 the optimum puts weight ~1e-15 on one point, and
        beta is r_ce times the best chord slope from the origin, as at any
        budget below that point's energy, not 0."""
        ratios = OperatingRatios(r_sn=0.01, r_ca=1.0, r_ce=1e-15)
        sol = optimize_binary(ratios)
        sol.q_star.validate_feasible(ratios)
        assert len(sol.q_star.atoms) == 2
        larger = optimize_binary(OperatingRatios(r_sn=0.01, r_ca=1.0, r_ce=1e-3))
        assert sol.beta == pytest.approx(larger.beta * 1e-12, rel=1e-9)

    @pytest.mark.parametrize("r_ce", [1e-20, 1e-22])
    def test_vanishing_budget_matches_mpmath(self, r_ce):
        """Below every grid point's energy, beta = r_ce * max_v P(v)/v**2
        with P the point-mass exponent; mpmath's golden search over v at 40
        digits gives 2.2058675543e-20 at r_ce = 1e-20, where the kink
        candidate P(sqrt(r_ce)), computed from a log ratio off by eps,
        reported 4.5e-18."""
        with mp.workdps(40):
            r = mp.mpf("0.01")

            def slope(v):
                return mp_point_exponent(v, r) / v**2

            want = float(r_ce * slope(mp_golden_max(slope, mp.mpf("0.5"), mp.mpf(1), 120)))
        sol = optimize_binary(OperatingRatios(r_sn=0.01, r_ca=1.0, r_ce=r_ce))
        assert sol.beta == pytest.approx(want, rel=1e-9)
        assert sol.diagnostics["winner"] == "interior"

    def test_beats_every_mixture_of_two_nonorigin_atoms(self):
        """Brute-force oracle for the origin-plus-one-atom bound: on 40
        seeded points, beta is at least the exponent of every budget-binding
        mixture of two nonzero atoms on a 120-point grid, each at its own
        optimal tilt.  C_s is homogeneous in the rates, so each mixture's
        weights are folded into its rates and one ``max_chernoff_mixtures``
        call solves them all."""
        rng = np.random.default_rng(20261018)
        for _ in range(40):
            r = 10.0 ** rng.uniform(-9.0, math.log10(30.0))
            ca = rng.uniform(0.2, 2.0)
            ce = rng.uniform(0.0, ca * ca)
            sol = optimize_binary(OperatingRatios(r_sn=r, r_ca=ca, r_ce=ce))
            v = np.linspace(ca / 120.0, ca, 120)
            lo, hi = np.meshgrid(v[v * v <= ce], v[v * v > ce], indexing="ij")
            lo, hi = lo.ravel(), hi.ravel()
            if lo.size == 0:
                continue
            w_hi = (ce - lo**2) / (hi**2 - lo**2)
            atoms = np.stack([lo, hi], axis=1)
            weights = np.stack([1.0 - w_hi, w_hi], axis=1)
            table = np.concatenate(
                [weights * ((atoms - 1.0) ** 2 + r), weights * ((atoms + 1.0) ** 2 + r)]
            )
            n = len(atoms)
            mixtures = max_chernoff_mixtures(table, range(n), range(n, 2 * n), np.ones(2))
            best = max(m.value for m in mixtures)
            assert sol.beta >= best - 1e-12, (r, ca, ce, sol.beta - best)

    @pytest.mark.slow
    def test_monotone_in_budgets(self):
        """beta is nondecreasing in r_ce and in r_ca."""
        r_cas = np.linspace(0.4, 1.3, 10)
        r_ces = np.linspace(0.05, 1.0, 10)
        values = np.zeros((len(r_cas), len(r_ces)))
        for i, ca in enumerate(r_cas):
            for j, ce in enumerate(r_ces):
                ratios = OperatingRatios(
                    r_sn=0.01, r_ca=float(ca), r_ce=float(min(ce, ca * ca))
                )
                values[i, j] = optimize_binary(ratios).beta
        assert np.all(np.diff(values, axis=1) >= -1e-9)
        assert np.all(np.diff(values, axis=0) >= -1e-9)

    def test_full_budget_high_snr_value(self):
        """Unconstrained high-SNR optimum is the full nulling point mass."""
        ratios = OperatingRatios(r_sn=1e-6, r_ca=1.0, r_ce=1.0)
        sol = optimize_binary(ratios)
        assert sol.beta == pytest.approx(HIGH_SNR_FULL_VALUE, abs=1e-8)

    @pytest.mark.parametrize(
        "case", PINNED_BINARY, ids=[f"pin{i:02d}" for i in range(len(PINNED_BINARY))]
    )
    def test_beta_holds_its_pinned_floor(self, case):
        """beta stays at or above each recorded beta, less 1e-9, and q_star
        is feasible."""
        ratios = OperatingRatios(case["r_sn"], case["r_ca"], case["r_ce"])
        sol = optimize_binary(ratios)
        assert sol.beta >= case["beta"] - 1e-9
        sol.q_star.validate_feasible(ratios)

    @pytest.mark.parametrize("key", BINARY_CENSUS.keys, ids=BINARY_CENSUS.id)
    def test_binary_solve_is_pinned(self, key):
        """Each census solve gives, bit for bit, the beta, ``q_star`` and
        ``per_pair`` of ``pinned_binary_census.json`` (``pins.BINARY_CENSUS``)."""
        assert BINARY_CENSUS.record(key) == BINARY_CENSUS.pinned[BINARY_CENSUS.id(key)]

    @pytest.mark.parametrize(
        "r_sn, r_ca, r_ce, beta, atoms",
        [
            (
                1e-3, 1.25, 0.6, 1.506315333460686,
                (
                    (0j, 0.3870227083784761),
                    (0.9893579142957115 + 0j, 0.6129772916215239),
                ),
            ),
            (0.05, 1.25, 0.95, 1.7258776919357357, ((0.9746794344808963 + 0j, 1.0),)),
            (
                1e-4, 1.0, 0.3, 0.8201024142047753,
                (
                    (0j, 0.6990308069798012),
                    (0.9983885816886591 + 0j, 0.3009691930201988),
                ),
            ),
        ],
        # The names the pins were first recorded under, kept when a pin is
        # re-derived (its beta or atoms moved since).
        ids=[
            "0.001-1.25-0.6-1.5063153334606845-atoms2",
            "0.05-1.25-0.95-1.7258776919357353-atoms3",
            "0.0001-1.0-0.3-0.8201024142035344-atoms4",
        ],
    )
    def test_pinned_solutions(self, r_sn, r_ca, r_ce, beta, atoms):
        """beta and q_star are exactly those recorded with the 1-D search
        over the origin-plus-one-atom bound."""
        sol = optimize_binary(OperatingRatios(r_sn=r_sn, r_ca=r_ca, r_ce=r_ce))
        assert sol.beta == beta
        assert sol.q_star.atoms == atoms


class TestOptimizeGeneral:
    """Validate the grid coordinate-ascent optimizer."""

    def test_matches_binary_solver_on_bpsk(self):
        """On BPSK the general path lands within grid error of the exact one."""
        exact = optimize_binary(RATIOS_LOW)
        general = optimize_general(BPSK, RATIOS_LOW, grid_k=40)
        assert general.beta <= exact.beta + 1e-9
        assert general.beta == pytest.approx(exact.beta, abs=1e-3)
        assert general.certified

    def test_beats_uniform_feasible_start(self):
        """Coordinate ascent never ends below a trivial feasible mixture."""
        con = uniform_psk(4)
        ratios = OperatingRatios(r_sn=0.01, r_ca=1.0, r_ce=0.5)
        sol = optimize_general(con, ratios, grid_k=10)
        baseline = exponent_of(
            ControlDistribution.point_mass(complex(math.sqrt(0.5))), con, ratios
        )
        assert sol.beta >= baseline - 1e-9
        sol.q_star.validate_feasible(ratios)
        assert exponent_of(sol.q_star, con, ratios) == pytest.approx(sol.beta, abs=1e-9)

    def test_sixteen_psk_working_set(self):
        """The 16-PSK solve at K = 40, 120 pairs by 1601 grid points, peaks
        below 8 MiB of allocations (21 MiB with (pairs, grid) temporaries):
        its tilt steps walk the rate table in row blocks, and its LPs build
        only the pair rows they solve."""
        ratios = OperatingRatios(r_sn=0.01, r_ca=1.0, r_ce=0.9)
        peak = peak_traced_bytes(
            lambda: optimize_general(uniform_psk(16), ratios, grid_k=40)
        )
        assert peak <= 8 * 2**20

    def test_thirty_two_psk_working_set(self):
        """The 32-PSK solve at K = 40, 496 pairs by 1601 grid points, peaks
        below 8 MB of allocations (14.9 MiB when every ascent step built
        the (pairs, grid) table of LP coefficients): each LP builds only the
        pair rows it solves, and the other pairs are priced on the LP
        solution's support."""
        ratios = OperatingRatios(r_sn=0.01, r_ca=1.0, r_ce=0.9)
        peak = peak_traced_bytes(
            lambda: optimize_general(uniform_psk(32), ratios, grid_k=40)
        )
        assert peak < 8e6

    def test_sixty_four_psk_working_set(self):
        """The 64-PSK solve at K = 20, 2016 pairs by 401 grid points, peaks
        below 24 MiB of allocations (117 MiB when every pair row went into
        the simplex, with its dense slack block): its LPs hold only the pair
        rows that bind, about 64."""
        ratios = OperatingRatios(r_sn=0.01, r_ca=1.0, r_ce=0.9)
        peak = peak_traced_bytes(
            lambda: optimize_general(uniform_psk(64), ratios, grid_k=20)
        )
        assert peak <= 24 * 2**20

    def test_large_disk_quaternary(self):
        """At r_ca = 1e5 the grid's own outer ring passes the disk check and
        the solve returns a feasible, certified solution."""
        ratios = OperatingRatios(r_sn=0.01, r_ca=1e5, r_ce=0.9)
        sol = optimize_general(uniform_psk(4), ratios)
        sol.q_star.validate_feasible(ratios)
        assert sol.certified and sol.beta > 0.0

    def test_wide_disk_budget(self):
        """At r_ce = 9e9 the solution's second moment, a rounding step over
        the budget, is within the budget's relative slack (it was refused:
        1e-9 added to 9e9 is below one ulp)."""
        ratios = OperatingRatios(r_sn=0.01, r_ca=1e5, r_ce=9e9)
        sol = optimize_general(uniform_psk(4), ratios, grid_k=8)
        sol.q_star.validate_feasible(ratios)
        assert sol.beta > 0.0

    @pytest.mark.parametrize(
        "grid_k, beta", [(20, 0.37996230905398387), (40, 0.37998854288769696)]
    )
    def test_primal_dual_ping_pong_ends(self, grid_k, beta):
        """4-PSK at r_sn 0.1, r_ce 0.9 solves: its third LP alternated a
        primal and a dual pivot between two bases until the pivot cap."""
        ratios = OperatingRatios(r_sn=0.1, r_ca=1.0, r_ce=0.9)
        sol = optimize_general(uniform_psk(4), ratios, grid_k=grid_k)
        sol.q_star.validate_feasible(ratios)
        assert sol.beta == pytest.approx(beta, rel=1e-12)
        assert max(sol.diagnostics["lp_pivots"]) < 100

    def test_zero_budget_quaternary(self):
        """r_ce = 0 pins the policy at the origin with zero exponent."""
        ratios = OperatingRatios(r_sn=0.01, r_ca=1.0, r_ce=0.0)
        sol = optimize_general(uniform_psk(4), ratios, grid_k=8)
        assert sol.beta == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "m, r_sn, r_ce", [(16, 0.001, 0.5), (8, 0.001, 0.6), (16, 0.01, 0.7)]
    )
    def test_lp_overshoot_is_pulled_back_into_budget(self, m, r_sn, r_ce):
        """Points where HiGHS's LP solutions were a few 1e-8 over the budget
        stay feasible: any overshoot is mixed with the origin.  The
        package's own LP overshoots by rounding only: 28 of the LPs of 44
        solves at these and the frozen benchmark points end over the
        budget, by at most 2.5e-15 relative."""
        ratios = OperatingRatios(r_sn=r_sn, r_ca=1.0, r_ce=r_ce)
        sol = optimize_general(uniform_psk(m), ratios, grid_k=40)
        sol.q_star.validate_feasible(ratios)
        assert sol.certified
        assert exponent_of(sol.q_star, uniform_psk(m), ratios) == sol.beta

    @pytest.mark.parametrize("key", GENERAL.keys, ids=GENERAL.id)
    def test_pinned_solutions(self, key):
        """beta, q_star and per_pair are, bit for bit, those of
        ``pinned_general_solutions.json`` (``pins.GENERAL``)."""
        assert GENERAL.record(key) == GENERAL.pinned[GENERAL.id(key)]

    @pytest.mark.parametrize("key", MARY_RANGE_CENSUS.keys, ids=MARY_RANGE_CENSUS.id)
    def test_range_solve_is_pinned(self, key):
        """Each solve of the M-ary range census (M 3 to 8, K 6 and 12, r_ca
        0.8 to 3) gives, bit for bit, the beta, ``q_star`` and ``per_pair``
        of ``pinned_mary_range_census.json``, or the same error
        (``pins.MARY_RANGE_CENSUS``)."""
        record = MARY_RANGE_CENSUS.pinned[MARY_RANGE_CENSUS.id(key)]
        assert MARY_RANGE_CENSUS.record(key) == record

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_reports_convergence_diagnostics(self, m):
        """Iteration count, convergence flag and, per control LP, its rounds
        of row generation, the pair rows active at its end, and its pivots
        and refactorizations of the basis inverse summed over the rounds."""
        solves = []

        def capture(coeffs, energy, budget):
            res = linprog(coeffs, energy, budget)
            solves.append((len(coeffs), res))
            return res

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exponent, "linprog", capture)
            sol = optimize_general(uniform_psk(m), RATIOS_LOW, grid_k=10)
        diagnostics = sol.diagnostics
        iterations = diagnostics["iterations"]
        assert iterations >= 1
        assert isinstance(diagnostics["converged"], bool)
        rounds = diagnostics["lp_rounds"]
        assert len(rounds) == iterations and min(rounds) >= 1
        assert sum(rounds) == len(solves)
        ends = np.cumsum(rounds)
        starts = ends - rounds
        assert diagnostics["lp_rows"] == [solves[e - 1][0] for e in ends]
        pairs = m * (m - 1) // 2
        assert all(min(m, pairs) <= n <= pairs for n in diagnostics["lp_rows"])
        for name, field in (
            ("lp_pivots", "nit"),
            ("lp_refactorizations", "refactorizations"),
        ):
            assert diagnostics[name] == [
                sum(getattr(res, field) for _, res in solves[a:b])
                for a, b in zip(starts, ends)
            ]
        assert all(n >= 1 for n in diagnostics["lp_refactorizations"])


#: Operating points (M, r_sn, r_ce, grid_k) whose control LPs the simplex is
#: checked on: the three pinned cases; two-column cycling (8, 0.05, 0.95),
#: restarts that gain nothing (8, 0.01, 0.95), a basic weight left at
#: -9e-11 (8, 0.005, 0.9) and a long run of Bland pivots that gain nothing
#: (16, 0.001, 0.5; that LP is also pinned by its tilts, ``PINNED_STALL_LP``),
#: all at grid_k = 40.
LP_CASES = [
    *GENERAL.keys,
    (8, 0.05, 0.95, 40),
    (8, 0.01, 0.95, 40),
    (8, 0.005, 0.9, 40),
    (16, 0.001, 0.5, 40),
]


def control_lp(m, r_sn, r_ce, grid_k, tilts):
    """``optimize_general``'s control LP at the given pair tilts:
    ``(coeffs, energy, budget)``."""
    ratios = OperatingRatios(r_sn, 1.0, r_ce)
    con = uniform_psk(m)
    grid = control_grid(grid_k, ratios)
    table = normalized_rates(grid, con, ratios.r_sn)
    pairs = con.pairs()
    coeffs = chernoff_values(
        table[[l for l, _ in pairs]],
        table[[k for _, k in pairs]],
        np.asarray(tilts)[:, None],
    )
    return coeffs, np.abs(grid) ** 2, r_ce


def solve_with_basis(coeffs, energy, budget):
    """``linprog``'s result and the basis it ended on: a solve that succeeds
    ends on the basis of its last refactorization."""
    bases = []
    inverse = simplex._basis_inverse

    def record(a, basis):
        bases.append(basis.copy())
        return inverse(a, basis)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex, "_basis_inverse", record)
        res = linprog(coeffs, energy, budget)
    return res, bases[-1]


def ascent_steps_of(m, r_sn, r_ce, grid_k, solve):
    """Every ascent step of ``optimize_general`` at (m, r_sn, r_ce, grid_k)
    with r_ca = 1, as ``(tilts, records)``: the pair tilts of its control
    LP, taken from the tilt step before it (a wrapper on
    ``exponent.max_chernoff_mixtures``), and one record per LP it solved on
    the pair rows that bind.  ``solve(coeffs, energy, budget)`` solves each
    LP and returns ``(result, record)``.  The capture must see one tilt
    vector per ascent step, and as many LPs in each as the step's rounds."""
    steps, fresh = [], []
    tilt_step = exponent.max_chernoff_mixtures

    def capture_tilts(*args):
        optima = tilt_step(*args)
        fresh[:] = [[pv.s_star for pv in optima]]
        return optima

    def capture(coeffs, energy, budget):
        if fresh:
            steps.append((fresh.pop(), []))
        res, record = solve(coeffs, energy, budget)
        steps[-1][1].append(record)
        return res

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exponent, "max_chernoff_mixtures", capture_tilts)
        patch.setattr(exponent, "linprog", capture)
        sol = optimize_general(
            uniform_psk(m), OperatingRatios(r_sn, 1.0, r_ce), grid_k=grid_k
        )
    assert [len(records) for _, records in steps] == sol.diagnostics["lp_rounds"]
    return steps


@pytest.fixture(scope="module")
def ascent_steps():
    """Every ascent step of ``optimize_general`` on ``LP_CASES``: the pair
    rows of its control LP, rebuilt at the step's tilts by ``control_lp``,
    and the LPs it solved on the rows that bind, as ``((coeffs, energy,
    budget), result, final basis)``."""

    def solve(coeffs, energy, budget):
        res, basis = solve_with_basis(coeffs, energy, budget)
        return res, ((coeffs, energy, budget), res, basis)

    return [
        (control_lp(m, r_sn, r_ce, grid_k, tilts)[0], solves)
        for m, r_sn, r_ce, grid_k in LP_CASES
        for tilts, solves in ascent_steps_of(m, r_sn, r_ce, grid_k, solve)
    ]


@pytest.fixture(scope="module")
def captured_lps(ascent_steps):
    """Every control LP ``optimize_general`` solves on ``LP_CASES``, as
    ``((coeffs, energy, budget), certified optimum, HiGHS's optimum)``."""
    return [
        (lp, certified_control_lp(*lp, basis), highs_control_lp(*lp))
        for _, solves in ascent_steps
        for lp, _, basis in solves
    ]


def random_control_lp(rng, rows, n):
    """A control LP with random coefficients and energies, the origin
    (zero coefficients and energy) in column 0."""
    coeffs = rng.uniform(0.0, 2.0, (rows, n))
    energy = rng.uniform(0.0, 1.0, n)
    coeffs[:, 0] = 0.0
    energy[0] = 0.0
    return coeffs, energy, float(rng.uniform(0.05, 0.9))


class TestControlLP:
    """Validate the in-package simplex against exact optima and HiGHS."""

    def assert_reaches_optimum(self, coeffs, energy, budget, t_ref=None):
        """The solve reaches ``t_ref`` (HiGHS's optimum if not given) to
        1e-12 relative, with weights feasible to 1e-12."""
        res = linprog(coeffs, energy, budget)
        assert res.success, res.message
        if t_ref is None:
            t_ref = highs_control_lp(coeffs, energy, budget)
        t = np.min(coeffs @ res.x)
        assert t == pytest.approx(t_ref, rel=1e-12, abs=1e-300)
        assert np.all(res.x >= 0.0)
        assert abs(res.x.sum() - 1.0) <= 1e-12
        assert energy @ res.x <= budget + 1e-12
        return res

    def test_captured_lps_match_highs(self, captured_lps):
        """Every LP of the pinned and frozen cases reaches its certified
        optimum with weights that are feasible to 1e-12; HiGHS's optimum,
        an independent check on the certificate, agrees to 1e-9."""
        assert len(captured_lps) >= 3 * len(LP_CASES)
        for lp, t_exact, t_highs in captured_lps:
            self.assert_reaches_optimum(*lp, t_exact)
            assert t_highs == pytest.approx(t_exact, rel=1e-9)

    def test_row_generation_reaches_the_full_optimum(self, ascent_steps):
        """On every ascent step of ``LP_CASES`` the weights of the last LP,
        solved on the pair rows that bind, put no pair row below those
        rows' minimum.  That LP is a relaxation of the one over all pair
        rows, so its optimum (certified in
        ``test_captured_lps_match_highs``) is the full LP's; HiGHS's optimum
        of the full LP agrees to 1e-9."""
        for coeffs, solves in ascent_steps:
            (rows, energy, budget), res, _ = solves[-1]
            active = (coeffs[:, None, :] == rows[None, :, :]).all(axis=2).any(axis=1)
            assert np.count_nonzero(active) == len(rows) < len(coeffs)
            values = coeffs @ res.x
            assert values.min() == values[active].min()
            t_highs = highs_control_lp(coeffs, energy, budget)
            assert values.min() == pytest.approx(t_highs, rel=1e-9)

    def test_stall_rules_end_solves_without_a_pricing_tolerance(
        self, captured_lps, monkeypatch
    ):
        """With no pricing tolerance, rounding keeps pricing columns in; each
        solve still ends optimal or on the repeated-basis stop, at the
        certified optimum."""
        monkeypatch.setattr(simplex, "PRICE_TOL", 0.0)
        messages = {
            self.assert_reaches_optimum(*lp, t_exact).message
            for lp, t_exact, _ in captured_lps
        }
        assert messages <= {"optimal", "stalled: a restart repeated a basis"}

    def test_pinned_stall_lp_ends_optimal(self):
        """The recorded LP whose Bland pivots gain nothing over a whole
        refactorization interval goes on to an optimal basis, at its
        certified optimum and no lower than the 0.018896665104587058 that
        the removed interval stop ended it on."""
        case = PINNED_STALL_LP
        lp = control_lp(
            case["m"], case["r_sn"], case["r_ce"], case["grid_k"], case["tilts"]
        )
        res, basis = solve_with_basis(*lp)
        assert res.message == "optimal"
        self.assert_reaches_optimum(*lp, certified_control_lp(*lp, basis))
        assert np.min(lp[0] @ res.x) >= 0.018896665104587058

    def test_weights_reach_the_optimum_of_an_ill_conditioned_basis(self):
        """On a final basis of condition ~2e8, weights taken from the basis
        inverse alone fell 5.2e-10 short of the optimum (4-PSK, r_sn 0.01,
        r_ce 0.9, grid_k 20, at these tilts); refined, they reach it."""
        tilts = [
            0.4194110757985967,
            0.500001708380284,
            0.41941107580010234,
            0.5805898787532716,
            0.5000000000043271,
            0.41941012124823424,
        ]
        lp = control_lp(4, 0.01, 0.9, 20, tilts)
        res, basis = solve_with_basis(*lp)
        t_exact = certified_control_lp(*lp, basis)
        assert t_exact == pytest.approx(0.49326912376424168, rel=1e-15)
        self.assert_reaches_optimum(*lp, t_exact)

    @pytest.mark.parametrize("rows, n", [(3, 40), (10, 200), (28, 400)])
    def test_random_lps_match_highs(self, rows, n):
        """Seeded random LPs of the same form reach HiGHS's optimum."""
        rng = np.random.default_rng(1000 * rows + n)
        for _ in range(5):
            self.assert_reaches_optimum(*random_control_lp(rng, rows, n))

    def test_duplicated_and_near_collinear_columns_terminate(self, captured_lps):
        """Exact copies of an LP's optimal columns, and copies made worse by
        1e-12 relative, leave the optimum unchanged and end well under the
        pivot cap."""
        (coeffs, energy, budget), _, _ = captured_lps[-1]
        support = np.flatnonzero(linprog(coeffs, energy, budget).x)
        res = self.assert_reaches_optimum(
            np.hstack([coeffs, coeffs[:, support], coeffs[:, support] * (1 - 1e-12)]),
            np.concatenate([energy, energy[support], energy[support] * (1 + 1e-12)]),
            budget,
        )
        assert res.nit < MAX_PIVOTS // 20

    def assert_reaches_certified_optimum(self, lp):
        """The solve of ``lp`` ends optimal at its certified optimum, or
        when a restart returns to an earlier basis, 1e-11 relative from it
        at most (such a basis holds a weight near -1e-11, which is
        clipped).  Returns the solve's message."""
        res, basis = solve_with_basis(*lp)
        t_exact = certified_control_lp(*lp, basis)
        if res.message == "optimal":
            self.assert_reaches_optimum(*lp, t_exact)
        else:
            assert res.message == simplex.STALLED
            assert np.min(lp[0] @ res.x) == pytest.approx(t_exact, rel=1e-11)
        return res.message

    def test_restart_on_a_repeated_basis_ends_at_the_optimum(self):
        """The ping-pong LP (4-PSK, r_sn 0.1, r_ce 0.9, grid_k 20, at the
        tilts the ascent reached when it solved every LP on all pair rows)
        ends when a restart returns to an earlier basis, 6.4e-12 relative
        below its certified optimum."""
        lp = control_lp(4, 0.1, 0.9, 20, PING_PONG_TILTS)
        assert self.assert_reaches_certified_optimum(lp) == simplex.STALLED

    @pytest.mark.parametrize(
        "grid_k",
        [
            20,
            pytest.param(
                40,
                marks=pytest.mark.xfail(
                    strict=True,
                    raises=AssertionError,
                    reason="one sub-LP and one full LP end on the "
                    "repeated-basis exit 1.08e-11 below their optima",
                ),
            ),
        ],
    )
    def test_ping_pong_lps_reach_their_optima(self, grid_k):
        """The LPs of the ping-pong solve (4-PSK, r_sn 0.1, r_ce 0.9), its
        own on the pair rows that bind and the full ones rebuilt at its
        tilts, reach their certified optima.  At grid_k 20 every one ends
        optimal.  At grid_k 40 one of each kind ends on the repeated-basis
        exit 1.08e-11 relative below its optimum, past the 1e-11 bound; the
        block-triangular basis inverse ended that full LP at the same t."""
        steps = ascent_steps_of(4, 0.1, 0.9, grid_k, lambda *lp: (linprog(*lp), lp))
        lps = [lp for _, own in steps for lp in own]
        lps += [control_lp(4, 0.1, 0.9, grid_k, tilts) for tilts, _ in steps]
        for lp in lps:
            self.assert_reaches_certified_optimum(lp)

    @pytest.mark.parametrize("r_sn", [1e-300, 1e-30, 1e-16, 1e-12, 1e-8])
    def test_tiny_disk_lps_solve_at_unit_scale(self, r_sn):
        """At r_ca = 1e-6 the coefficients are ~1e-12 and the energies
        ~1e-12; scaled to [1, 2) each LP solves in a few pivots, at HiGHS's
        optimum of the scaled rows, and beta is r_ce/2, the small-disk limit
        of 4-PSK (it was 1.96e-13, or the pivot cap)."""
        ratios = OperatingRatios(r_sn=r_sn, r_ca=1e-6, r_ce=9e-13)
        lps = []

        def capture(coeffs, energy, budget):
            res = linprog(coeffs, energy, budget)
            lps.append(((coeffs, energy, budget), res))
            return res

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exponent, "linprog", capture)
            sol = optimize_general(uniform_psk(4), ratios, grid_k=8)
        for (coeffs, energy, budget), res in lps:
            assert res.nit <= 20
            pair_shift = 1 - np.frexp(np.max(np.abs(coeffs)))[1]
            energy_shift = 1 - np.frexp(np.max(energy))[1]
            t_ref = highs_control_lp(
                np.ldexp(coeffs, pair_shift),
                np.ldexp(energy, energy_shift),
                np.ldexp(budget, energy_shift),
            )
            t = np.ldexp(np.min(coeffs @ res.x), pair_shift)
            assert t == pytest.approx(t_ref, rel=1e-11)
        sol.q_star.validate_feasible(ratios)
        assert sol.beta == pytest.approx(ratios.r_ce / 2.0, rel=1e-7)

    def test_zero_budget_keeps_the_origin(self):
        """With no energy only the origin is feasible; it keeps all the
        weight."""
        coeffs, energy, _ = random_control_lp(np.random.default_rng(7), 6, 50)
        res = linprog(coeffs, energy, 0.0)
        assert res.success
        assert res.x[0] == 1.0


class TestConvexityMargin:
    """Validate the energy-convexity margin."""

    def test_domain_validation(self):
        """s in (0, 1/2], r >= 0, v in (0, 1) are enforced, on every entry
        of an array."""
        with pytest.raises(ValueError, match="s"):
            convexity_margin(0.0, 0.0, 0.5)
        with pytest.raises(ValueError, match="s"):
            convexity_margin(0.6, 0.0, 0.5)
        with pytest.raises(ValueError, match="s"):
            convexity_margin(np.array([0.3, 0.6]), 0.0, 0.5)
        with pytest.raises(ValueError, match="r"):
            convexity_margin(0.3, -1e-9, 0.5)
        with pytest.raises(ValueError, match="v"):
            convexity_margin(0.3, 0.0, 1.0)
        with pytest.raises(ValueError, match="v"):
            convexity_margin(0.3, 0.0, np.array([0.5, 0.0]))

    def test_symmetric_tilt_zero_dark_value(self):
        """g_{1/2,0}(1/2) = (1 - 1/2) * 2 * (1/2) = 1/2 exactly."""
        assert convexity_margin(0.5, 0.0, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_vanishing_at_small_displacement(self):
        """The margin vanishes as v -> 0 at any dark ratio."""
        assert convexity_margin(0.3, 0.0, 1e-9) == pytest.approx(0.0, abs=1e-7)
        assert convexity_margin(0.3, 0.01, 1e-9) == pytest.approx(0.0, abs=1e-7)

    def test_positive_at_zero_dark(self):
        """Zero-dark margin is strictly positive on the whole (s, v) grid,
        and on a log grid down to s = 1e-12 and v = 1e-15."""
        s = np.concatenate(
            [np.arange(0.05, 0.501, 0.05), np.geomspace(1e-12, 0.5, 61)]
        )
        v = np.concatenate(
            [np.arange(0.05, 0.951, 0.05), np.geomspace(1e-15, 1.0, 82)[:-1]]
        )
        assert np.all(convexity_margin(s[:, None], 0.0, v) > 0.0)

    def test_zero_dark_matches_closed_form(self):
        """At r = 0 the margin through ``chernoff_values`` is the closed
        form of the oracle to a few eps absolute (1.4e-15 seen), near the
        merging rates of small v and near v = 1."""
        s = np.concatenate([np.geomspace(1e-6, 0.5, 60), np.linspace(0.01, 0.5, 50)])
        v = np.concatenate(
            [
                np.geomspace(1e-12, 1.0 - 1e-6, 80),
                np.linspace(0.01, 1.0 - 1e-6, 80),
                1.0 - np.geomspace(1e-6, 0.5, 40),
            ]
        )
        np.testing.assert_allclose(
            convexity_margin(s[:, None], 0.0, v),
            zero_dark_margin(s[:, None], v),
            rtol=0.0,
            atol=4e-15,
        )

    @pytest.mark.parametrize("r", [0.0, 1e-4, 0.01])
    def test_array_call_is_the_scalar_calls(self, r):
        """One call on an (s, v) grid gives each scalar call's value bit
        for bit."""
        s = np.arange(0.05, 0.501, 0.05)
        v = np.arange(0.05, 0.951, 0.05)
        scalar = [[convexity_margin(a, r, b) for b in v] for a in s]
        got = convexity_margin(s[:, None], r, v)
        assert got.tobytes() == np.array(scalar).tobytes()

    def test_sign_matches_energy_curvature_off_boundary(self):
        """For s < 1/2 the margin sign equals the FD sign of d^2 C_s/dE^2."""
        r = 1e-4
        h = 1e-4
        for s in np.arange(0.05, 0.46, 0.05):
            for v in np.arange(0.1, 0.91, 0.1):
                energy = float(v) ** 2

                def c_of_e(e: float) -> float:
                    w = math.sqrt(e)
                    return chernoff_s(bpsk_rates(w, r), float(s))

                second = c_of_e(energy + h) - 2.0 * c_of_e(energy) + c_of_e(energy - h)
                margin = convexity_margin(float(s), r, float(v))
                assert margin * second > 0.0

    def test_negative_where_interior_mass_wins(self):
        """At the low-SNR optimum the divergence is concave in energy."""
        margin = convexity_margin(0.31, 0.01, COUNTEREXAMPLE_POINT)
        assert margin < 0.0


@pytest.fixture(scope="module")
def report():
    """Run the full default check battery once for the module."""
    return verify_claims()


class TestVerifyClaims:
    """Validate the bundled structural claim checks."""

    def test_all_checks_pass(self, report):
        """Every structural check passes at the default operating points."""
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        assert report["all_passed"], f"failed checks: {failed}"
        assert {c["name"] for c in report["checks"]} == {
            "energy-convexity-margin-positive",
            "optimal-tilt-in-left-half",
            "interior-mass-beats-time-sharing",
            "vanishing-dark-time-sharing",
        }

    def test_report_is_json_serializable(self, report):
        """The report is plain JSON data with exactly the documented keys."""
        text = json.dumps(report, sort_keys=True)
        assert "energy-convexity-margin-positive" in text
        assert set(report) == {"all_passed", "checks", "notes"}
        assert all(set(c) == {"name", "passed", "details"} for c in report["checks"])

    def test_notes_flag_inconsistent_quoted_value(self, report):
        """The notes document the 2.1460-vs-2.1359 bookkeeping discrepancy."""
        joined = " ".join(report["notes"])
        assert "2.1460" in joined
        assert "2.1359" in joined

    def test_perturbed_expectation_fails(self, monkeypatch):
        """An impossible expected counterexample value flips check 3 only."""
        monkeypatch.setattr(exponent, "EXPECTED_COUNTEREXAMPLE", 2.5)
        report = verify_claims()
        by_name = {c["name"]: c["passed"] for c in report["checks"]}
        assert not report["all_passed"]
        assert not by_name["interior-mass-beats-time-sharing"]
        assert by_name["energy-convexity-margin-positive"]
        assert by_name["vanishing-dark-time-sharing"]

    def test_visible_dark_counts_fail_check_four(self, monkeypatch):
        """At r_sn = 1e-2 an interior point mass beats time-sharing by 2.7e-2
        relative, past check 4's 1e-4: check 4 fails, and only it."""
        monkeypatch.setattr(
            exponent, "VERIFY_RATIOS_HIGH", OperatingRatios(1e-2, 1.0, 0.9)
        )
        report = verify_claims()
        by_name = {c["name"]: c for c in report["checks"]}
        failed = [name for name, check in by_name.items() if not check["passed"]]
        assert failed == ["vanishing-dark-time-sharing"]
        gap = by_name["vanishing-dark-time-sharing"]["details"]["worst_relative_gap"]
        assert gap == pytest.approx(2.7e-2, rel=0.01)


class TestFeasibilityProperties:
    """Property tests tying distributions to the optimizer's feasible set."""

    @given(
        v1=st.floats(min_value=0.0, max_value=0.6),
        v2=st.floats(min_value=0.61, max_value=1.0),
        w=st.floats(min_value=0.01, max_value=0.99),
    )
    def test_two_atom_energy_interpolates(self, v1: float, v2: float, w: float):
        """Second moment of a two-atom mixture interpolates the energies."""
        q = ControlDistribution.from_arrays([v1, v2], [1.0 - w, w])
        want = (1.0 - w) * v1**2 + w * v2**2
        assert q.second_moment() == pytest.approx(want, rel=1e-12, abs=1e-12)

    @given(
        v=st.floats(min_value=0.05, max_value=0.94),
        s=st.floats(min_value=0.05, max_value=0.95),
    )
    def test_pair_value_dominates_fixed_tilt(self, v: float, s: float):
        """The maximized pair value is >= the objective at any fixed tilt."""
        # v stays below sqrt(0.9) so the point mass respects the budget.
        q = ControlDistribution.point_mass(v)
        got = pair_exponent(q, (0, 1), BPSK, RATIOS_LOW)
        assert got.value >= chernoff_s(bpsk_rates(v, 0.01), s) - 1e-10
