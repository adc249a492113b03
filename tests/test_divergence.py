"""Tests for the Poisson Chernoff divergence module."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    RatePair,
    chernoff_s,
    chernoff_s_decimal,
    chernoff_s_series,
    kl_poisson,
    poisson_log_pmf,
    tilted_rate,
)
from pskexp import divergence
from pskexp.divergence import (
    EQUAL_RATE_RTOL,
    ChernoffOptimum,
    chernoff_values,
    golden_section_max,
    max_chernoff,
    max_chernoff_mixtures,
    pair_chernoff_values,
    s_star_log,
)

# Frozen oracle values, mpmath at 50 decimal digits.
LOG_PMF_8_02_AT_40 = -35.06310283962047033978
# Rounded near-extremal rate pair arising from a displaced weak coherent
# state with residual dark rate 0.01.
PAIR_LOW = RatePair(0.0126334, 3.8073666)
PAIR_LOW_S_STAR = 0.305737002162747019
PAIR_LOW_MAX = 1.98240728623461605
PAIR_LOW_AT_031 = 1.98221204285355953
# Full-displacement pair at the same dark rate.
PAIR_FULL = RatePair(0.01, 4.01)
PAIR_FULL_S_STAR = 0.299176001648163175
PAIR_FULL_MAX = 2.14595769827296744
PAIR_FULL_TILTED = 0.667338295134379857  # equals 4 / log(401)

positive_rates = st.floats(min_value=1e-3, max_value=50.0)
interior_s = st.floats(min_value=0.01, max_value=0.99)


class TestRatePair:
    """Validate the rate-pair container."""

    def test_rejects_nonpositive_rates(self):
        """Rates must be strictly positive."""
        with pytest.raises(ValueError, match="positive"):
            RatePair(0.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            RatePair(1.0, -2.0)

    def test_rejects_nonfinite_rates(self):
        """Rates must be finite."""
        with pytest.raises(ValueError):
            RatePair(math.inf, 1.0)
        with pytest.raises(ValueError):
            RatePair(1.0, math.nan)

    def test_degenerate_detection(self):
        """Rates equal up to relative rounding get the (1/2, 0) convention;
        rates just apart are solved."""
        degenerate = ChernoffOptimum(s_star=0.5, value=0.0)
        assert max_chernoff(5.0, 5.0) == degenerate
        assert max_chernoff(5.0, 5.0 * (1.0 + 0.5 * EQUAL_RATE_RTOL)) == degenerate
        assert max_chernoff(5.0, 5.0001).value > 0.0


class TestPoissonLogPmf:
    """Validate the Poisson log-pmf helper."""

    def test_zero_count_is_minus_rate(self):
        """log P(0) = -rate."""
        assert poisson_log_pmf(1.0, 0) == pytest.approx(-1.0, abs=1e-15)

    def test_count_two_at_rate_two(self):
        """log P(2) at rate 2 is 2*log2 - 2 - log2 = log2 - 2."""
        assert poisson_log_pmf(2.0, 2) == pytest.approx(math.log(2.0) - 2.0, abs=1e-14)

    def test_deep_tail_value(self):
        """Far-tail log-pmf matches the high-precision oracle."""
        assert poisson_log_pmf(8.02, 40) == pytest.approx(LOG_PMF_8_02_AT_40, abs=1e-12)

    def test_rejects_bad_arguments(self):
        """Nonpositive rates and negative or fractional counts are rejected."""
        with pytest.raises(ValueError):
            poisson_log_pmf(0.0, 1)
        with pytest.raises(ValueError):
            poisson_log_pmf(1.0, -1)
        with pytest.raises(ValueError):
            poisson_log_pmf(1.0, 2.5)

    def test_normalization(self):
        """pmf sums to one over a generous truncation."""
        rate = 3.7
        total = sum(math.exp(poisson_log_pmf(rate, y)) for y in range(80))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestChernoffS:
    """Validate the textbook closed form the package is checked against."""

    def test_endpoints_vanish(self):
        """C_0 = C_1 = 0 for any rate pair."""
        pair = RatePair(0.3, 2.7)
        assert chernoff_s(pair, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert chernoff_s(pair, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_equal_rates_vanish(self):
        """C_s = 0 identically when the rates coincide."""
        pair = RatePair(1.3, 1.3)
        for s in (0.1, 0.5, 0.9):
            assert chernoff_s(pair, s) == pytest.approx(0.0, abs=1e-15)

    def test_low_snr_extremal_pair(self):
        """The near-extremal pair evaluated at s = 0.31 hits the frozen value."""
        assert chernoff_s(PAIR_LOW, 0.31) == pytest.approx(PAIR_LOW_AT_031, abs=1e-12)
        assert chernoff_s(PAIR_LOW, 0.31) == pytest.approx(1.9822, abs=2e-3)

    def test_rejects_s_outside_unit_interval(self):
        """Tilt outside [0, 1] is rejected."""
        pair = RatePair(1.0, 2.0)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            chernoff_s(pair, -0.1)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            chernoff_s(pair, 1.1)

    @given(l0=positive_rates, l1=positive_rates, s=interior_s)
    def test_nonnegative(self, l0: float, l1: float, s: float):
        """C_s >= 0 up to rounding at the scale of the rates."""
        assert chernoff_s(RatePair(l0, l1), s) >= -1e-13 * max(l0, l1)

    @given(
        l0=positive_rates,
        l1=positive_rates,
        s=interior_s,
        c=st.floats(min_value=1e-2, max_value=1e3),
    )
    def test_scaling_in_rates(self, l0: float, l1: float, s: float, c: float):
        """C_s(c*l0, c*l1) = c * C_s(l0, l1)."""
        base = chernoff_s(RatePair(l0, l1), s)
        scaled = chernoff_s(RatePair(c * l0, c * l1), s)
        assert scaled == pytest.approx(c * base, rel=1e-10, abs=1e-12 * c * max(l0, l1))

    def test_strictly_concave_in_s(self):
        """Second central differences are negative across (0, 1)."""
        pair = RatePair(0.5, 3.0)
        grid = np.arange(0.01, 0.995, 0.01)
        h = 0.005
        for s in grid:
            second = (
                chernoff_s(pair, s + h) - 2.0 * chernoff_s(pair, s) + chernoff_s(pair, s - h)
            )
            assert second < 0.0


class TestChernoffValues:
    """Validate the vectorized divergence."""

    def test_matches_scalar_form(self):
        """Vectorized values agree with the scalar closed form."""
        l0 = np.array([0.1, 1.0, 2.5, 7.0])
        l1 = np.array([0.4, 1.0, 0.3, 9.0])
        got = chernoff_values(l0, l1, 0.37)
        want = [chernoff_s(RatePair(a, b), 0.37) for a, b in zip(l0, l1)]
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_zero_rate_convention(self):
        """C_s(0, l1) = (1-s)*l1 by continuity for s in (0, 1]."""
        got = chernoff_values(np.array([0.0]), np.array([2.0]), 0.25)
        assert got[0] == pytest.approx(0.75 * 2.0, abs=1e-14)

    def test_both_zero(self):
        """C_s(0, 0), like C_0(0, l1), lies outside the positive rates the
        kernel takes: NaN, with numpy's invalid-value warning."""
        with pytest.warns(RuntimeWarning, match="invalid"):
            got = chernoff_values(
                np.array([0.0, 0.0]), np.array([0.0, 2.0]), np.array([0.5, 0.0])
            )
        assert np.isnan(got).all()

    @pytest.mark.parametrize("v", [1e-3, 1e-5, 1e-7])
    def test_relative_accuracy_as_rates_merge(self, v):
        """Near-equal BPSK rates keep 1e-8 relative accuracy, where the
        textbook form's cancellation leaves about 1e-2 at v = 1e-7."""
        pair = RatePair((1.0 - v) ** 2 + 0.01, (1.0 + v) ** 2 + 0.01)
        for s in (0.1, 0.3, 0.5, 0.9):
            want = chernoff_s_decimal(pair, s)
            got = float(chernoff_values(pair.lambda0, pair.lambda1, s))
            assert got == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("v", [1e-7, 1e-9, 1e-10])
    def test_near_equal_bpsk_rates_match_mpmath(self, v):
        """At BPSK v down to 1e-10, C_s of the given float rates matches
        mpmath to about eps/|x|, x = log(small/big) ~ -4v, and is never
        negative; log(small/big) itself, off by ~eps, gave -6.8e-18 for the
        true 1.98e-18 at v = 1e-9 and 4.5e-18 for 1.98e-20 at v = 1e-10."""
        mp.mp.dps = 50
        l0, l1 = (1.0 - v) ** 2 + 0.01, (1.0 + v) ** 2 + 0.01
        for s in (0.1, 0.3, 0.5, 0.7, 0.9):
            a, b, t = mp.mpf(l0), mp.mpf(l1), mp.mpf(s)
            want = float(t * a + (1 - t) * b - a**t * b ** (1 - t))
            got = float(chernoff_values(l0, l1, s))
            assert got >= 0.0
            assert got == pytest.approx(want, rel=4e-16 / v)

    @given(
        rate=st.floats(min_value=1e-3, max_value=50.0),
        ulps=st.integers(min_value=0, max_value=64),
        s=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_never_negative_for_rates_ulps_apart(self, rate, ulps, s):
        """Rates a few ulps apart, in either order, give C_s >= 0."""
        other = rate
        for _ in range(ulps):
            other = np.nextafter(other, np.inf)
        assert chernoff_values(rate, other, s) >= 0.0
        assert chernoff_values(other, rate, s) >= 0.0

    def test_extreme_ratio_does_not_overflow(self):
        """A rate ratio beyond the float range still gives the limit
        C_s(l0, l1) -> (1-s)*l1 as l0/l1 -> 0, in either order."""
        for s in (0.1, 0.5, 0.9):
            got = chernoff_values(np.array([5e-324, 4.0]), np.array([4.0, 5e-324]), s)
            np.testing.assert_allclose(got, [(1.0 - s) * 4.0, s * 4.0], rtol=1e-12)

    @given(l0=positive_rates, l1=positive_rates, s=interior_s)
    def test_swapping_the_rates_mirrors_the_tilt(self, l0, l1, s):
        """C_s(l0, l1) = C_{1-s}(l1, l0)."""
        mirrored = chernoff_values(l1, l0, 1.0 - s)
        assert chernoff_values(l0, l1, s) == pytest.approx(mirrored, rel=1e-12, abs=1e-15)

    def test_closed_form_tilt_function_gives_each_maximum(self):
        """With ``s_star_log`` as the tilt, each value is the pair's maximum
        over the tilt, the same in either order of the rates."""
        l0 = np.array([0.01, 4.01, 3.0, 2.0, 1e-300])
        l1 = np.array([4.01, 0.01, 3.0000001, 2.0, 1.0])
        got = chernoff_values(l0, l1, s_star_log)
        assert got.tobytes() == chernoff_values(l1, l0, s_star_log).tobytes()
        for value, a, b in zip(got, l0, l1):
            assert value == pytest.approx(max_chernoff(a, b).value, rel=1e-12)


class TestChernoffSeries:
    """Validate the independent series oracle."""

    def test_symmetric_pair_closed_value(self):
        """C_0.5(1, 3) = (1 + 3)/2 - sqrt(3) = 2 - sqrt(3)."""
        got = chernoff_s_series(RatePair(1.0, 3.0), 0.5)
        assert got == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-12)

    def test_equal_rates(self):
        """Series evaluates to zero for identical rates."""
        assert chernoff_s_series(RatePair(2.0, 2.0), 0.3) == pytest.approx(0.0, abs=1e-12)

    def test_matches_closed_form_at_full_pair(self):
        """Series agrees with the closed form near the maximizing tilt."""
        got = chernoff_s_series(PAIR_FULL, 0.299)
        want = chernoff_s(PAIR_FULL, 0.299)
        assert got == pytest.approx(want, abs=1e-10)

    def test_matches_closed_form_on_grid(self):
        """Series and closed form agree to 1e-10 over a rate/tilt grid."""
        rates = [0.01, 0.1, 1.0, 4.0, 10.0]
        tilts = np.arange(0.1, 0.95, 0.1)
        worst = 0.0
        for l0 in rates:
            for l1 in rates:
                pair = RatePair(l0, l1)
                for s in tilts:
                    diff = abs(chernoff_s_series(pair, s) - chernoff_s(pair, s))
                    worst = max(worst, diff)
        assert worst <= 1e-10


class TestGoldenSection:
    """Validate the scalar concave maximizer."""

    def test_quadratic_peak(self):
        """Recovers the vertex of a concave parabola."""
        x, fx = golden_section_max(lambda t: -((t - 0.3) ** 2), 0.0, 1.0)
        assert x == pytest.approx(0.3, abs=1e-9)
        assert fx == pytest.approx(0.0, abs=1e-15)

    def test_boundary_maximum(self):
        """Handles maxima at a bracket endpoint."""
        x, _ = golden_section_max(lambda t: t, 0.0, 1.0)
        assert x == pytest.approx(1.0, abs=1e-9)


class TestMaxChernoff:
    """Validate the maximization over the tilt."""

    def test_degenerate_convention(self):
        """Equal rates return (1/2, 0) exactly."""
        opt = max_chernoff(5.0, 5.0)
        assert opt == ChernoffOptimum(s_star=0.5, value=0.0)

    def test_low_snr_extremal_pair(self):
        """Frozen optimum of the near-extremal low-SNR pair."""
        opt = max_chernoff(PAIR_LOW.lambda0, PAIR_LOW.lambda1)
        assert opt.value == pytest.approx(PAIR_LOW_MAX, abs=1e-10)
        assert opt.s_star == pytest.approx(PAIR_LOW_S_STAR, abs=1e-8)

    def test_full_displacement_pair(self):
        """Frozen optimum of the full-displacement pair."""
        opt = max_chernoff(PAIR_FULL.lambda0, PAIR_FULL.lambda1)
        assert opt.value == pytest.approx(PAIR_FULL_MAX, abs=1e-10)
        assert opt.s_star == pytest.approx(PAIR_FULL_S_STAR, abs=1e-8)

    def test_stationarity_identity(self):
        """At s*, C_{s*} = s*l0 + (1-s*)l1 - (l1-l0)/log(l1/l0)."""
        l0, l1 = PAIR_FULL.lambda0, PAIR_FULL.lambda1
        opt = max_chernoff(PAIR_FULL.lambda0, PAIR_FULL.lambda1)
        closed = opt.s_star * l0 + (1.0 - opt.s_star) * l1 - (l1 - l0) / math.log(l1 / l0)
        assert opt.value == pytest.approx(closed, abs=1e-8)

    @given(l0=positive_rates, l1=positive_rates)
    def test_value_dominates_interior_samples(self, l0: float, l1: float):
        """The reported maximum is >= C_s at sampled tilts."""
        pair = RatePair(l0, l1)
        opt = max_chernoff(pair.lambda0, pair.lambda1)
        for s in (0.2, 0.5, 0.8):
            assert opt.value >= chernoff_s(pair, s) - 1e-12


@st.composite
def rate_rows(draw, max_rows=6):
    """(lambda0, lambda1, weights): a (rows, atoms) pair of rate arrays,
    rates log-uniform over 1e-300..50, some rows with equal rates, and
    positive atom weights."""
    rows = draw(st.integers(min_value=1, max_value=max_rows))
    atoms = draw(st.integers(min_value=1, max_value=8))
    rate = st.floats(min_value=-300.0, max_value=math.log10(50.0)).map(
        lambda e: 10.0**e
    )
    l0 = np.array(draw(st.lists(rate, min_size=rows * atoms, max_size=rows * atoms)))
    l1 = np.array(draw(st.lists(rate, min_size=rows * atoms, max_size=rows * atoms)))
    equal = np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))
    l0, l1 = l0.reshape(rows, atoms), l1.reshape(rows, atoms)
    l1[equal] = l0[equal]
    weights = draw(
        st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=atoms, max_size=atoms)
    )
    return l0, l1, np.array(weights)


@st.composite
def bpsk_rows(draw):
    """BPSK mixtures at real displacements v in [0, 1] (so that every atom
    has lambda0 <= lambda1) and dark ratios down to 1e-300."""
    r = 10.0 ** draw(st.floats(min_value=-300.0, max_value=0.0))
    atoms = draw(st.integers(min_value=1, max_value=8))
    v = np.array(
        draw(
            st.lists(
                st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
                min_size=atoms,
                max_size=atoms,
            )
        )
    )
    weights = draw(
        st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=atoms, max_size=atoms)
    )
    return ((1.0 - v) ** 2 + r)[None], ((1.0 + v) ** 2 + r)[None], np.array(weights)


def solve_rows(l0, l1, weights):
    """``max_chernoff_mixtures`` on (rows, atoms) arrays of left and right
    rates: row p of ``l0`` is paired with row p of ``l1`` in one table."""
    rows = len(l0)
    table = np.concatenate([np.asarray(l0, dtype=float), np.asarray(l1, dtype=float)])
    return max_chernoff_mixtures(table, range(rows), range(rows, 2 * rows), weights)


def blocked_table():
    """``(table, lefts, rights)``: a (10, 1500) rate table and its 90 ordered
    pairs, so both orientations of every pair, several row blocks apart.
    Rows 0 and 1 are equal; row 2 (1e-6 everywhere) lies so far below row 3
    (1 everywhere) that the first Newton step of their pair leaves the
    bracket; the other rows are random, with atoms of either orientation."""
    rng = np.random.default_rng(1310)
    table = rng.lognormal(0.0, 2.0, size=(10, 1500))
    table[1] = table[0]
    table[2], table[3] = 1e-6, 1.0
    pairs = [(i, j) for i in range(10) for j in range(10) if i != j]
    return table, [i for i, _ in pairs], [j for _, j in pairs]


class TestPairKernelBlocks:
    """The pair kernels walk a rate table in row blocks, bit for bit equal
    to one pass over all pairs."""

    def test_pairs_span_several_blocks_and_one_bisects(self):
        """The table needs several blocks, and pair (2, 3)'s first Newton
        step from 1/2 falls outside its bracket [0, 1/2]."""
        table, lefts, _ = blocked_table()
        assert len(divergence._row_blocks(len(lefts), table.shape[1])) > 2
        l0, l1 = 1e-6, 1.0
        x = math.log(l0 / l1)
        d1 = l0 - l1 - math.sqrt(l0 * l1) * x
        d2 = -math.sqrt(l0 * l1) * x * x
        assert not 0.0 < 0.5 - d1 / d2 < 0.5

    @pytest.mark.parametrize("budget", [1, divergence.BLOCK_ELEMENTS, 1 << 40])
    def test_chernoff_table_equals_one_pass(self, monkeypatch, budget):
        table, lefts, rights = blocked_table()
        tilts = np.linspace(0.0, 1.0, len(lefts))
        want = chernoff_values(table[lefts], table[rights], tilts[:, None])
        monkeypatch.setattr(divergence, "BLOCK_ELEMENTS", budget)
        got = pair_chernoff_values(table, lefts, rights, tilts)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("budget", [1, divergence.BLOCK_ELEMENTS])
    def test_mixture_tilts_equal_one_pass(self, monkeypatch, budget):
        table, lefts, rights = blocked_table()
        weights = np.random.default_rng(7).uniform(0.1, 1.0, table.shape[1])
        monkeypatch.setattr(divergence, "BLOCK_ELEMENTS", 1 << 40)
        want = max_chernoff_mixtures(table, lefts, rights, weights)
        monkeypatch.setattr(divergence, "BLOCK_ELEMENTS", budget)
        got = max_chernoff_mixtures(table, lefts, rights, weights)
        assert got == want
        assert got[0] == got[9] == ChernoffOptimum(s_star=0.5, value=0.0)


class TestMaxChernoffMixtures:
    """Validate the Newton tilt solver over rows of mixtures."""

    @given(problem=bpsk_rows())
    def test_left_half_when_lambda0_is_below_lambda1(self, problem):
        """s* lies in (0, 1/2] whenever every atom has lambda0 <= lambda1."""
        ((s_star, value),) = solve_rows(*problem)
        assert 0.0 < s_star <= 0.5
        assert value >= 0.0

    @given(problem=rate_rows())
    def test_swapping_the_rates_mirrors_the_tilt(self, problem):
        """s*(l1, l0) = 1 - s*(l0, l1), and the values agree up to the
        rounding of C_s at the scale of the rates."""
        l0, l1, weights = problem
        forward = solve_rows(l0, l1, weights)
        backward = solve_rows(l1, l0, weights)
        scales = np.maximum(l0, l1) @ weights
        for (s, value), (s_swapped, value_swapped), scale in zip(
            forward, backward, scales
        ):
            assert s_swapped == pytest.approx(1.0 - s, abs=1e-9)
            assert value_swapped == pytest.approx(value, rel=1e-9, abs=1e-15 * scale)

    @given(problem=rate_rows())
    def test_batched_rows_equal_lone_rows(self, problem):
        """Each row's result is bit for bit the one it gets alone."""
        l0, l1, weights = problem
        alone = [
            solve_rows(l0[i : i + 1], l1[i : i + 1], weights)[0]
            for i in range(len(l0))
        ]
        assert solve_rows(l0, l1, weights) == alone

    @given(ratio=st.floats(min_value=1e-300, max_value=1.0 - 1e-9))
    def test_point_mass_matches_the_ratio_form(self, ratio):
        """A single atom's tilt is the closed form S(l0/l1)."""
        assert max_chernoff(ratio, 1.0).s_star == pytest.approx(
            s_star_log(math.log(ratio)), abs=1e-10
        )

    def test_degenerate_rows_keep_the_convention(self):
        """Rows with equal rates at every atom return (1/2, 0) next to a
        live row."""
        l0 = np.array([[1.0, 2.0], [1.0, 2.0]])
        l1 = np.array([[1.0, 2.0], [1.5, 2.0]])
        flat, live = solve_rows(l0, l1, [0.5, 0.5])
        assert flat == ChernoffOptimum(s_star=0.5, value=0.0)
        assert live.value > 0.0


class TestSStarRatio:
    """Validate the ratio form of the maximizing tilt."""

    def test_frozen_values(self):
        """Spot values frozen from the high-precision oracle."""
        assert s_star_log(math.log(0.5)) == pytest.approx(
            0.471233627055102386, abs=1e-14
        )
        assert s_star_log(math.log(0.0033182)) == pytest.approx(
            0.305737380614729425, abs=1e-14
        )

    def test_series_branch_near_one(self):
        """The expansion branch is used and accurate as R -> 1."""
        assert s_star_log(math.log(0.9999999)) == pytest.approx(
            0.499999995833333125, abs=1e-15
        )

    def test_strictly_increasing_with_proper_range(self):
        """S maps (0, 1) increasingly into (0, 1/2)."""
        grid = np.linspace(1e-6, 1.0 - 1e-6, 10_000)
        values = np.array([s_star_log(math.log(float(r))) for r in grid])
        assert np.all(np.diff(values) > 0.0)
        assert values[0] > 0.0
        assert values[-1] < 0.5

    def test_consistent_with_direct_maximization(self):
        """S(l0/l1) matches the golden-section maximizer argument."""
        for l0, l1 in [(0.01, 4.01), (0.5, 3.0), (1.0, 1.2), (0.0126334, 3.8073666)]:
            opt = max_chernoff(l0, l1)
            assert s_star_log(math.log(l0 / l1)) == pytest.approx(opt.s_star, abs=1e-6)

    def test_log_form_matches_and_reaches_below_the_normal_range(self):
        """s_star_log gives a float the value it gives the same x in an
        array, and it still holds where R itself would underflow (log R =
        -800: S = log(800)/800 to rounding)."""
        for ratio in (0.5, 0.0033182, 0.9999999, 1e-300):
            x = math.log(ratio)
            assert s_star_log(x) == s_star_log(np.array([x]))[0]
        assert s_star_log(-800.0) == pytest.approx(math.log(800.0) / 800.0, rel=1e-14)

    @given(ratio=st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    def test_range_property(self, ratio: float):
        """S(R) always lands strictly inside (0, 1/2)."""
        s = s_star_log(math.log(ratio))
        assert 0.0 < s < 0.5


class TestKlPoisson:
    """Validate the Poisson KL divergence."""

    def test_identical_rates(self):
        """D(P || P) = 0."""
        assert kl_poisson(3.0, 3.0) == pytest.approx(0.0, abs=1e-15)

    def test_closed_value(self):
        """D(Poisson(2) || Poisson(1)) = 2*log2 - 1."""
        assert kl_poisson(2.0, 1.0) == pytest.approx(2.0 * math.log(2.0) - 1.0, abs=1e-14)

    def test_matches_summation_oracle(self):
        """Closed form agrees with direct expectation of the log-ratio."""
        for a, b in [(2.0, 1.0), (0.3, 1.7), (5.5, 4.0)]:
            direct = sum(
                math.exp(poisson_log_pmf(a, y))
                * (poisson_log_pmf(a, y) - poisson_log_pmf(b, y))
                for y in range(200)
            )
            assert kl_poisson(a, b) == pytest.approx(direct, abs=1e-10)

    def test_rejects_nonpositive(self):
        """Rates must be positive."""
        with pytest.raises(ValueError):
            kl_poisson(0.0, 1.0)
        with pytest.raises(ValueError):
            kl_poisson(1.0, -1.0)

    @given(a=positive_rates, b=positive_rates)
    def test_nonnegative(self, a: float, b: float):
        """KL divergence is nonnegative."""
        assert kl_poisson(a, b) >= -1e-15


class TestTiltedRate:
    """Validate the geometric rate interpolation."""

    def test_endpoints(self):
        """s = 1 returns lambda0, s = 0 returns lambda1."""
        pair = RatePair(0.7, 2.9)
        assert tilted_rate(pair, 1.0) == pytest.approx(0.7, rel=1e-15)
        assert tilted_rate(pair, 0.0) == pytest.approx(2.9, rel=1e-15)

    def test_full_pair_at_optimum(self):
        """Tilted rate at s* equals (l1 - l0)/log(l1/l0) = 4/log(401)."""
        opt = max_chernoff(PAIR_FULL.lambda0, PAIR_FULL.lambda1)
        got = tilted_rate(PAIR_FULL, opt.s_star)
        assert got == pytest.approx(PAIR_FULL_TILTED, abs=1e-8)
        assert got == pytest.approx(4.0 / math.log(401.0), abs=1e-8)

    def test_kl_equidistance_at_optimum(self):
        """D(tilted || P0) = D(tilted || P1) = max_s C_s on random pairs.

        The tilt comes from the closed ratio form, which is accurate to
        machine precision; the golden-section argument would inject its own
        1e-10 bracket error amplified by log(l1/l0).
        """
        rng = np.random.default_rng(7)
        for _ in range(100):
            draws = np.exp(rng.uniform(math.log(1e-2), math.log(20.0), size=2))
            lo, hi = float(draws.min()), float(draws.max())
            pair = RatePair(lo, hi)
            s = s_star_log(math.log(lo / hi))
            mid = tilted_rate(pair, s)
            d0 = kl_poisson(mid, pair.lambda0)
            d1 = kl_poisson(mid, pair.lambda1)
            value = chernoff_s(pair, s)
            assert d0 == pytest.approx(d1, abs=1e-9)
            assert d0 == pytest.approx(value, abs=1e-9)
            assert value == pytest.approx(max_chernoff(lo, hi).value, abs=1e-9)
