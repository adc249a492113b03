"""PSK constellation geometry, operating ratios, and Poisson observation rates.

The receiver displaces the incoming coherent state by ``u = alpha * v`` and
counts photons over ``N`` time slices.  Under hypothesis ``m`` (signal phase
``phi_m``) a slice produces a Poisson count with the physical rate

    lambda_m(u) = (alpha_sq / N) * Lambda_m(u / alpha),

where the normalized rate

    Lambda_m(v) = |v + exp(i*phi_m)|**2 + r_sn

depends only on dimensionless quantities: the displacement ratio ``v``, the
constellation phase, and the dark-to-signal ratio ``r_sn``.  All optimization
happens in these normalized units; ``alpha_sq`` enters only as the overall
exponent scale.

Controls are constrained by a peak amplitude ratio ``r_ca`` (``|v| <= r_ca``)
and an average energy ratio ``r_ce`` (``mean |v|**2 <= r_ce``).  The search
space is discretized by ``control_grid`` into polar grid points.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

#: Absolute slack when checking membership in the closed control disk.
DISK_TOL = 1e-12

#: A phase within this many quarter turns of a multiple of pi/2 (a few
#: rounding steps of 2*pi*m/M) takes the exact unit-circle point there.
QUARTER_TOL = 1e-14


class InfeasibleRatiosError(ValueError):
    """Operating ratios describe an empty or contradictory constraint set."""


@dataclass(frozen=True)
class OperatingRatios:
    """Dimensionless operating point: dark ratio and control constraints.

    Attributes:
        r_sn: dark-to-signal ratio (dark rate divided by alpha_sq), > 0.
        r_ca: peak control amplitude as a fraction of alpha, > 0.
        r_ce: average control energy budget relative to alpha_sq, >= 0.
    """

    r_sn: float
    r_ca: float
    r_ce: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.r_sn) or self.r_sn <= 0.0:
            raise ValueError(f"r_sn must be positive, got {self.r_sn!r}")
        if not math.isfinite(self.r_ca) or self.r_ca <= 0.0:
            raise ValueError(f"r_ca must be positive, got {self.r_ca!r}")
        if not math.isfinite(self.r_ce) or self.r_ce < 0.0:
            raise ValueError(f"r_ce must be nonnegative, got {self.r_ce!r}")
        # A single atom can never exceed the peak bound, so any energy budget
        # beyond r_ca**2 is unusable and flags a misconfigured run.
        if self.r_ce > self.r_ca**2 + DISK_TOL:
            raise InfeasibleRatiosError(
                f"r_ce={self.r_ce!r} exceeds r_ca**2={self.r_ca**2!r}"
            )

    @classmethod
    def from_snr(cls, snr: float, r_ca: float, r_ce: float) -> "OperatingRatios":
        """Build from a signal-to-noise ratio, with r_sn = 1/snr."""
        if not math.isfinite(snr) or snr <= 0.0:
            raise ValueError(f"snr must be positive, got {snr!r}")
        return cls(r_sn=1.0 / snr, r_ca=r_ca, r_ce=r_ce)

    def rate_upper_bound(self) -> float:
        """Uniform bound (r_ca + 1)**2 + r_sn on every normalized rate."""
        return (self.r_ca + 1.0) ** 2 + self.r_sn


@dataclass(frozen=True)
class PskConstellation:
    """Hypothesis set: equal-amplitude coherent states at the given phases."""

    phases: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.phases) < 2:
            raise ValueError("a constellation needs at least 2 hypotheses")
        # Phases must be pairwise distinct modulo 2*pi.
        reduced = [p % (2.0 * math.pi) for p in self.phases]
        for i in range(len(reduced)):
            for j in range(i + 1, len(reduced)):
                diff = abs(reduced[i] - reduced[j])
                if min(diff, 2.0 * math.pi - diff) < 1e-12:
                    raise ValueError(
                        f"phases {i} and {j} coincide modulo 2*pi"
                    )

    @property
    def num_states(self) -> int:
        return len(self.phases)

    def pairs(self) -> list[tuple[int, int]]:
        """All unordered hypothesis pairs (l, m) with l < m."""
        M = self.num_states
        return [(l, m) for l in range(M) for m in range(l + 1, M)]

    def state_point(self, m: int) -> complex:
        """Unit-circle point exp(i*phi_m) of hypothesis m, exact at the
        multiples of pi/2 (where ``cmath.exp`` leaves a 1e-16 residue, which
        floors the nulled rate and splits ties between mirror states)."""
        quarters = self.phases[m] / (math.pi / 2.0)
        nearest = round(quarters)
        if abs(quarters - nearest) <= QUARTER_TOL:
            return (1 + 0j, 1j, -1 + 0j, complex(0.0, -1.0))[nearest % 4]
        return cmath.exp(1j * self.phases[m])


def bpsk() -> PskConstellation:
    """Binary constellation with hypothesis 0 at phase pi and 1 at phase 0.

    This ordering makes the real-displacement rates read
    Lambda_0 = (1-v)**2 + r_sn and Lambda_1 = (1+v)**2 + r_sn for v in [0, 1].
    """
    return PskConstellation(phases=(math.pi, 0.0))


def uniform_psk(num_states: int) -> PskConstellation:
    """Uniform M-ary PSK with phases 2*pi*m/M, m = 0..M-1."""
    if num_states < 2:
        raise ValueError(f"num_states must be >= 2, got {num_states!r}")
    return PskConstellation(
        phases=tuple(2.0 * math.pi * m / num_states for m in range(num_states))
    )


@dataclass(frozen=True)
class SignalScale:
    """Physical scale of one transmission: photon budget, slicing, grid size.

    Attributes:
        alpha_sq: mean photon number of the signal, > 0.
        slices: number N of independent counting slices, >= 1.
        grid_k: fineness K of the polar control grid, >= 1.
    """

    alpha_sq: float
    slices: int
    grid_k: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.alpha_sq) or self.alpha_sq <= 0.0:
            raise ValueError(f"alpha_sq must be positive, got {self.alpha_sq!r}")
        if self.slices < 1 or self.slices != int(self.slices):
            raise ValueError(f"slices must be a positive integer, got {self.slices!r}")
        if self.grid_k < 1 or self.grid_k != int(self.grid_k):
            raise ValueError(f"grid_k must be a positive integer, got {self.grid_k!r}")


def normalized_rates(
    points: np.ndarray,
    constellation: PskConstellation,
    ratios: OperatingRatios,
) -> np.ndarray:
    """Normalized Poisson means |v + exp(i*phi_m)|**2 + r_sn as an (M, n)
    table: row m is hypothesis m over the n displacement ratios ``points``,
    each in the disk |v| <= r_ca."""
    pts = np.asarray(points, dtype=complex)
    if np.any(np.abs(pts) > ratios.r_ca + DISK_TOL):
        raise ValueError("a grid point exceeds the control radius")
    states = np.array(
        [constellation.state_point(m) for m in range(constellation.num_states)]
    )
    return np.abs(pts + states[:, None]) ** 2 + ratios.r_sn


def control_grid(grid_k: int, ratios: OperatingRatios) -> np.ndarray:
    """Polar grid of K**2 + 1 candidate displacements inside the control disk.

    Moduli r_ca * {1/K, ..., 1} crossed with angles {0, 2*pi/K, ...,
    2*pi*(K-1)/K}, plus the origin (where all angles collapse).  Returned in
    a fixed deterministic order: origin first, then increasing modulus,
    then increasing angle.
    """
    if grid_k < 1:
        raise ValueError(f"grid_k must be >= 1, got {grid_k!r}")
    points = [0.0 + 0.0j]
    for i in range(1, grid_k + 1):
        rho = ratios.r_ca * i / grid_k
        for j in range(grid_k):
            theta = 2.0 * math.pi * j / grid_k
            points.append(rho * cmath.exp(1j * theta))
    return np.array(points, dtype=complex)
