"""Tests for constellation geometry, operating ratios, and rate maps."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pskexp.constellation import (
    DISK_TOL,
    InfeasibleRatiosError,
    OperatingRatios,
    PskConstellation,
    SignalScale,
    bpsk,
    control_grid,
    normalized_rates,
    uniform_psk,
)

RATIOS = OperatingRatios(r_sn=0.01, r_ca=1.0, r_ce=0.9)


def normalized_rate(v, m, constellation, ratios):
    """Normalized rate at one displacement, through ``normalized_rates``."""
    return float(normalized_rates([v], constellation, ratios)[m, 0])


class TestOperatingRatios:
    """Validate the dimensionless operating point."""

    def test_rejects_nonpositive_r_sn(self):
        """r_sn must be strictly positive."""
        with pytest.raises(ValueError, match="r_sn"):
            OperatingRatios(r_sn=0.0, r_ca=1.0, r_ce=0.5)
        with pytest.raises(ValueError, match="r_sn"):
            OperatingRatios(r_sn=-1e-3, r_ca=1.0, r_ce=0.5)

    def test_rejects_nonpositive_r_ca(self):
        """r_ca must be strictly positive."""
        with pytest.raises(ValueError, match="r_ca"):
            OperatingRatios(r_sn=0.01, r_ca=0.0, r_ce=0.0)

    def test_rejects_negative_r_ce(self):
        """r_ce must be nonnegative."""
        with pytest.raises(ValueError, match="r_ce"):
            OperatingRatios(r_sn=0.01, r_ca=1.0, r_ce=-0.1)

    def test_zero_energy_budget_allowed(self):
        """r_ce = 0 is a valid (forced passive) operating point."""
        ratios = OperatingRatios(r_sn=0.01, r_ca=1.0, r_ce=0.0)
        assert ratios.r_ce == 0.0

    def test_energy_beyond_peak_is_infeasible(self):
        """r_ce > r_ca**2 has no feasible control and raises the typed error."""
        with pytest.raises(InfeasibleRatiosError):
            OperatingRatios(r_sn=0.01, r_ca=0.5, r_ce=0.3)

    def test_infeasible_error_is_a_value_error(self):
        """The typed error subclasses ValueError for generic handling."""
        assert issubclass(InfeasibleRatiosError, ValueError)

    def test_energy_at_peak_squared_is_feasible(self):
        """r_ce = r_ca**2 exactly saturates but does not violate."""
        ratios = OperatingRatios(r_sn=0.01, r_ca=0.5, r_ce=0.25)
        assert ratios.r_ce == 0.25

    def test_from_snr(self):
        """from_snr stores the reciprocal dark ratio."""
        ratios = OperatingRatios.from_snr(snr=100.0, r_ca=1.0, r_ce=0.9)
        assert ratios.r_sn == pytest.approx(0.01, rel=1e-15)
        with pytest.raises(ValueError, match="snr"):
            OperatingRatios.from_snr(snr=0.0, r_ca=1.0, r_ce=0.9)

    def test_rate_upper_bound(self):
        """The uniform rate bound is (r_ca + 1)**2 + r_sn."""
        assert RATIOS.rate_upper_bound() == pytest.approx(4.01, abs=1e-15)


class TestPskConstellation:
    """Validate the hypothesis set container."""

    def test_requires_two_states(self):
        """Fewer than two phases is rejected."""
        with pytest.raises(ValueError, match="at least 2"):
            PskConstellation(phases=(0.0,))

    def test_rejects_duplicate_phases(self):
        """Coinciding phases (including modulo 2*pi) are rejected."""
        with pytest.raises(ValueError, match="coincide"):
            PskConstellation(phases=(0.0, 0.0))
        with pytest.raises(ValueError, match="coincide"):
            PskConstellation(phases=(0.0, 2.0 * math.pi))

    def test_bpsk_convention(self):
        """Hypothesis 0 sits at phase pi, hypothesis 1 at phase 0."""
        con = bpsk()
        assert con.phases == (math.pi, 0.0)
        assert con.state_point(0) == pytest.approx(-1.0 + 0.0j, abs=1e-15)
        assert con.state_point(1) == pytest.approx(1.0 + 0.0j, abs=1e-15)

    def test_uniform_psk_phases(self):
        """Uniform M-PSK places phases at multiples of 2*pi/M."""
        con = uniform_psk(4)
        assert con.num_states == 4
        expected = tuple(2.0 * math.pi * m / 4 for m in range(4))
        assert con.phases == pytest.approx(expected)
        with pytest.raises(ValueError):
            uniform_psk(1)

    def test_pairs_enumeration(self):
        """pairs() lists the M*(M-1)/2 unordered index pairs in order."""
        assert bpsk().pairs() == [(0, 1)]
        assert uniform_psk(4).pairs() == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
        ]

    def test_state_points_on_unit_circle(self):
        """Every state point has unit modulus."""
        con = uniform_psk(8)
        for m in range(con.num_states):
            assert abs(con.state_point(m)) == pytest.approx(1.0, abs=1e-15)

    def test_quarter_turn_points_are_exact(self):
        """Phases at multiples of pi/2 give exactly 1, i, -1 and -i."""
        assert [bpsk().state_point(m) for m in range(2)] == [-1.0, 1.0]
        assert [uniform_psk(4).state_point(m) for m in range(4)] == [1, 1j, -1, -1j]
        assert uniform_psk(8).state_point(6) == -1j
        assert uniform_psk(16).state_point(12) == -1j


class TestSignalScale:
    """Validate the physical scale container."""

    def test_validation(self):
        """Positivity and integrality constraints are enforced."""
        with pytest.raises(ValueError, match="alpha_sq"):
            SignalScale(alpha_sq=0.0, slices=10, grid_k=5)
        with pytest.raises(ValueError, match="slices"):
            SignalScale(alpha_sq=2.0, slices=0, grid_k=5)
        with pytest.raises(ValueError, match="grid_k"):
            SignalScale(alpha_sq=2.0, slices=10, grid_k=0)


class TestNormalizedRate:
    """Validate the normalized Poisson mean map."""

    def test_bpsk_real_displacement_forms(self):
        """On real v, Lambda_0 = (1-v)**2 + r and Lambda_1 = (1+v)**2 + r."""
        con = bpsk()
        for v in (0.0, 0.3, 0.9486832980505138, 1.0):
            got0 = normalized_rate(v, 0, con, RATIOS)
            got1 = normalized_rate(v, 1, con, RATIOS)
            assert got0 == pytest.approx((1.0 - v) ** 2 + 0.01, abs=1e-13)
            assert got1 == pytest.approx((1.0 + v) ** 2 + 0.01, abs=1e-13)

    def test_null_displacement_leaves_dark_rate(self):
        """Displacing onto the opposite state leaves only the dark rate."""
        con = bpsk()
        assert normalized_rate(1.0, 0, con, RATIOS) == pytest.approx(0.01, abs=1e-13)

    @given(log_r=st.floats(min_value=-300.0, max_value=0.0))
    def test_nulled_rate_is_exactly_the_dark_rate(self, log_r):
        """Displacing by v = +-1 or +-i onto the opposite state leaves
        exactly r_sn, with no rounding residue of the state point on top."""
        ratios = OperatingRatios(r_sn=10.0**log_r, r_ca=1.0, r_ce=1.0)
        for con, nulling in ((bpsk(), [1, -1]), (uniform_psk(4), [-1, -1j, 1, 1j])):
            for m, v in enumerate(nulling):
                rate = normalized_rates(np.array([v]), con, ratios)[m, 0]
                assert rate == ratios.r_sn

    def test_rejects_outside_disk(self):
        """|v| > r_ca raises."""
        with pytest.raises(ValueError, match="control radius"):
            normalized_rate(1.0 + 1e-6, 0, bpsk(), RATIOS)

    def test_vectorized_matches_scalar(self):
        """normalized_rates agrees with the scalar formula pointwise, one row
        per hypothesis."""
        con = uniform_psk(4)
        pts = np.array([0.0, 0.5j, -0.3 + 0.2j, 0.9])
        table = normalized_rates(pts, con, RATIOS)
        assert table.shape == (4, len(pts))
        for m, got in enumerate(table):
            want = [
                abs(complex(v) + cmath.exp(1j * con.phases[m])) ** 2 + RATIOS.r_sn
                for v in pts
            ]
            np.testing.assert_allclose(got, want, rtol=1e-14)
        with pytest.raises(ValueError, match="control radius"):
            normalized_rates(np.array([1.5]), con, RATIOS)

    @given(
        rho=st.floats(min_value=0.0, max_value=1.0),
        theta=st.floats(min_value=0.0, max_value=2.0 * math.pi),
        m=st.integers(min_value=0, max_value=3),
    )
    def test_rate_bounds(self, rho: float, theta: float, m: int):
        """r_sn <= Lambda_m(v) <= (r_ca + 1)**2 + r_sn on the disk."""
        v = rho * cmath.exp(1j * theta)
        rate = normalized_rate(v, m, uniform_psk(4), RATIOS)
        assert RATIOS.r_sn - 1e-13 <= rate <= RATIOS.rate_upper_bound() + 1e-13


class TestControlGrid:
    """Validate the polar candidate grid."""

    def test_size_and_origin(self):
        """Grid has K**2 + 1 points and starts at the origin."""
        grid = control_grid(5, RATIOS)
        assert grid.shape == (26,)
        assert grid[0] == 0.0 + 0.0j

    def test_points_inside_disk(self):
        """All grid points satisfy |v| <= r_ca."""
        grid = control_grid(7, RATIOS)
        assert np.all(np.abs(grid) <= RATIOS.r_ca + DISK_TOL)

    def test_outer_ring_on_boundary(self):
        """The last K points sit exactly on the circle of radius r_ca."""
        k = 6
        grid = control_grid(k, RATIOS)
        np.testing.assert_allclose(np.abs(grid[-k:]), RATIOS.r_ca, rtol=1e-14)

    def test_deterministic_polar_ordering(self):
        """Points are ordered by increasing modulus then increasing angle."""
        k = 4
        grid = control_grid(k, RATIOS)
        moduli = np.abs(grid[1:]).reshape(k, k)
        for i in range(k):
            np.testing.assert_allclose(moduli[i], RATIOS.r_ca * (i + 1) / k, rtol=1e-14)
            angles = np.angle(grid[1 + i * k : 1 + (i + 1) * k]) % (2.0 * math.pi)
            np.testing.assert_allclose(
                angles, [2.0 * math.pi * j / k for j in range(k)], atol=1e-12
            )

    def test_scales_with_radius(self):
        """Shrinking r_ca shrinks the grid radially by the same factor."""
        small = OperatingRatios(r_sn=0.01, r_ca=0.5, r_ce=0.25)
        np.testing.assert_allclose(
            control_grid(3, small), 0.5 * control_grid(3, RATIOS), rtol=1e-14
        )

    def test_rejects_bad_k(self):
        """grid_k must be at least one."""
        with pytest.raises(ValueError, match="grid_k"):
            control_grid(0, RATIOS)
