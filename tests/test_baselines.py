"""Tests for the analytic baseline curves and the exponent-based bound."""

import math

import numpy as np
import pytest

from pskexp.baselines import helstrom_binary, homodyne_binary, theorem_bound
from pskexp.constellation import OperatingRatios, bpsk, uniform_psk
from pskexp.exponent import ControlDistribution, exponent_of, pair_exponent

# Frozen oracle values, mpmath at 50 decimal digits, n_s = 2.
HELSTROM_AT_2 = 8.38726916040248636e-5
HOMODYNE_AT_2 = 0.00233886749052363292
# Frozen exponents at r_sn = 0.01 (see test_exponent).
FULL_POINT_VALUE = 2.14595769827296744
COUNTEREXAMPLE_VALUE = 1.98240722246624747


class TestHelstromBinary:
    """Validate the optimal quantum error probability for two states."""

    def test_zero_photons_is_coin_flip(self):
        """Without photons the hypotheses are indistinguishable."""
        assert helstrom_binary(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_frozen_value(self):
        """Helstrom error at n_s = 2 matches the oracle."""
        assert helstrom_binary(2.0) == pytest.approx(HELSTROM_AT_2, rel=1e-13)

    def test_closed_form(self):
        """P_e = (1 - sqrt(1 - exp(-4 n_s))) / 2."""
        n_s = 0.7
        want = 0.5 * (1.0 - math.sqrt(1.0 - math.exp(-4.0 * n_s)))
        assert helstrom_binary(n_s) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("curve", [helstrom_binary, homodyne_binary])
    def test_rejects_negative(self, curve):
        """Negative photon numbers are rejected by both baselines."""
        with pytest.raises(ValueError, match="n_s"):
            curve(-0.1)


class TestHomodyneBinary:
    """Validate the Gaussian (homodyne) reference detector."""

    def test_zero_photons_is_coin_flip(self):
        """Without photons the quadratures coincide."""
        assert homodyne_binary(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_frozen_value(self):
        """Homodyne error at n_s = 2 equals erfc(2)/2."""
        assert homodyne_binary(2.0) == pytest.approx(HOMODYNE_AT_2, rel=1e-13)
        assert homodyne_binary(2.0) == pytest.approx(0.5 * math.erfc(2.0), rel=1e-15)

    def test_dominated_by_helstrom(self):
        """The quantum-optimal error is strictly below homodyne for n_s > 0."""
        for n_s in np.arange(0.1, 10.01, 0.1):
            assert helstrom_binary(float(n_s)) < homodyne_binary(float(n_s))

    def test_nonincreasing(self):
        """Both analytic baselines decay monotonically in n_s."""
        grid = np.arange(0.0, 10.01, 0.1)
        hel = [helstrom_binary(float(x)) for x in grid]
        hom = [homodyne_binary(float(x)) for x in grid]
        assert all(a >= b for a, b in zip(hel, hel[1:]))
        assert all(a >= b for a, b in zip(hom, hom[1:]))


class TestTheoremBound:
    """Validate the exponent-based achievability bound."""

    def test_exponential_form(self):
        """Beyond two hypotheses the bound is min(1, (M-1) exp(-n_s beta))."""
        got = theorem_bound(beta=1.5, n_s=2.0, num_states=4)
        assert got == pytest.approx(3.0 * math.exp(-3.0), rel=1e-14)

    def test_binary_prefactor(self):
        """Two hypotheses take the likelihood-ratio coefficient 1/2, not the
        union bound's M - 1 = 1."""
        got = theorem_bound(beta=2.0, n_s=1.0, num_states=2)
        assert got == pytest.approx(0.5 * math.exp(-2.0), rel=1e-14)

    def test_caps_at_one(self):
        """Trivially large coefficients clip to the vacuous bound 1."""
        assert theorem_bound(beta=0.0, n_s=5.0, num_states=8) == 1.0

    def test_doubling_photons_squares_the_decay(self):
        """bound(2 n_s) / coeff = (bound(n_s) / coeff)**2 below the cap."""
        beta, n_s = 1.7, 1.3
        single = theorem_bound(beta, n_s, 2) / 0.5
        double = theorem_bound(beta, 2.0 * n_s, 2) / 0.5
        assert double == pytest.approx(single**2, rel=1e-12)

    def test_rejects_bad_arguments(self):
        """Negative exponents and degenerate constellations are rejected."""
        with pytest.raises(ValueError, match="beta"):
            theorem_bound(beta=-0.1, n_s=1.0, num_states=2)
        with pytest.raises(ValueError, match="hypotheses"):
            theorem_bound(beta=1.0, n_s=1.0, num_states=1)

    @pytest.mark.parametrize("n_s", [-1.0, math.nan, math.inf])
    def test_rejects_negative_or_non_finite_photons(self, n_s):
        """A negative photon number would push the bound above 1/2."""
        with pytest.raises(ValueError, match="n_s"):
            theorem_bound(beta=1.0, n_s=n_s, num_states=2)


def point_mass_exponent(v, constellation, ratios):
    """Exponent of the constant-displacement policy Q = delta_v."""
    return exponent_of(ControlDistribution.point_mass(v), constellation, ratios)


class TestFixedDisplacementExponent:
    """Validate the exponent of a point-mass (constant-displacement) policy."""

    def test_passive_displacement_is_zero(self):
        """v = 0 gives identical rates and a zero exponent."""
        ratios = OperatingRatios(r_sn=0.01, r_ca=1.0, r_ce=1.0)
        assert point_mass_exponent(0.0, bpsk(), ratios) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_full_displacement_value(self):
        """v = 1 at r_sn = 0.01 reproduces the frozen full-point exponent."""
        ratios = OperatingRatios(r_sn=0.01, r_ca=1.0, r_ce=1.0)
        got = point_mass_exponent(1.0, bpsk(), ratios)
        assert got == pytest.approx(FULL_POINT_VALUE, abs=1e-9)

    def test_budget_saturating_value(self):
        """v = sqrt(0.9) reproduces the frozen interior-point exponent."""
        ratios = OperatingRatios(r_sn=0.01, r_ca=1.0, r_ce=0.9)
        got = point_mass_exponent(math.sqrt(0.9), bpsk(), ratios)
        assert got == pytest.approx(COUNTEREXAMPLE_VALUE, abs=1e-9)
        assert got == pytest.approx(1.9822, abs=2e-3)

    def test_quaternary_uses_worst_pair(self):
        """For M > 2 the value is the minimum over hypothesis pairs."""
        ratios = OperatingRatios(r_sn=0.01, r_ca=1.0, r_ce=1.0)
        con = uniform_psk(4)
        # A real displacement leaves the conjugate pair (+i, -i) at equal
        # rates, so its worst-pair exponent is exactly zero.
        assert point_mass_exponent(0.5, con, ratios) == pytest.approx(
            0.0, abs=1e-12
        )
        # A symmetry-breaking complex displacement separates every pair.
        v = 0.3 + 0.4j
        got = point_mass_exponent(v, con, ratios)
        per_pair = [
            pair_exponent(ControlDistribution.point_mass(v), pair, con, ratios).value
            for pair in con.pairs()
        ]
        assert got > 0.0
        assert got == pytest.approx(min(per_pair), rel=1e-12)

    def test_rejects_constraint_violations(self):
        """Disk and budget preconditions are enforced."""
        ratios = OperatingRatios(r_sn=0.01, r_ca=1.0, r_ce=0.25)
        with pytest.raises(ValueError, match="disk"):
            point_mass_exponent(1.5, bpsk(), ratios)
        with pytest.raises(ValueError, match="budget"):
            point_mass_exponent(0.7, bpsk(), ratios)
