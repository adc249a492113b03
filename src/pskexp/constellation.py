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
exponent scale.  ``normalized_rates`` is the package's one rate formula.

Controls are constrained by a peak amplitude ratio ``r_ca`` (``|v| <= r_ca``)
and an average energy ratio ``r_ce`` (``mean |v|**2 <= r_ce``), both checked
by ``OperatingRatios.in_disk`` and ``within_budget`` and nowhere else.  The
search space is discretized by ``control_grid`` into polar grid points.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

#: Slack of both control constraints, relative to the bound: |v| <= r_ca *
#: (1 + DISK_TOL) and mean |v|**2 <= r_ce * (1 + DISK_TOL).
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
        # A budget whose point mass, at sqrt(r_ce), leaves the disk is beyond
        # r_ca**2: unusable, so it flags a misconfigured run.
        if not self.in_disk(math.sqrt(self.r_ce)):
            raise InfeasibleRatiosError(
                f"r_ce={self.r_ce!r} exceeds r_ca**2={self.r_ca * self.r_ca!r}"
            )

    def in_disk(self, points) -> np.ndarray:
        """Whether each point has |v| <= r_ca, to the slack ``DISK_TOL``."""
        return np.abs(points) <= self.r_ca * (1.0 + DISK_TOL)

    def within_budget(self, energy) -> np.ndarray:
        """Whether each mean energy is <= r_ce, to the slack ``DISK_TOL``."""
        return np.asarray(energy) <= self.r_ce * (1.0 + DISK_TOL)


@dataclass(frozen=True)
class PskConstellation:
    """Hypothesis set: equal-amplitude coherent states at the given phases."""

    phases: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.phases) < 2:
            raise ValueError("a constellation needs at least 2 hypotheses")
        if not all(math.isfinite(p) for p in self.phases):
            raise ValueError(f"phases must be finite, got {self.phases!r}")
        # Phases must be pairwise distinct modulo 2*pi: sorted, each is
        # checked against the next, and the last against the first.
        reduced = sorted((p % (2.0 * math.pi), i) for i, p in enumerate(self.phases))
        for (a, i), (b, j) in zip(reduced, reduced[1:] + reduced[:1]):
            diff = abs(a - b)
            if min(diff, 2.0 * math.pi - diff) < 1e-12:
                raise ValueError(f"phases {min(i, j)} and {max(i, j)} coincide modulo 2*pi")

    @property
    def num_states(self) -> int:
        return len(self.phases)

    def pairs(self) -> list[tuple[int, int]]:
        """All unordered hypothesis pairs (l, m) with l < m."""
        M = self.num_states
        return [(l, m) for l in range(M) for m in range(l + 1, M)]

    @functools.cached_property
    def state_points(self) -> tuple[complex, ...]:
        """Unit-circle points exp(i*phi_m), one per hypothesis, exact at the
        multiples of pi/2 (where ``cmath.exp`` leaves a 1e-16 residue, which
        floors the nulled rate and splits ties between mirror states),
        judged on the phase modulo 2*pi."""
        points = []
        for phase in self.phases:
            quarters = phase % (2.0 * math.pi) / (math.pi / 2.0)
            nearest = round(quarters)
            if abs(quarters - nearest) <= QUARTER_TOL:
                points.append((1 + 0j, 1j, -1 + 0j, complex(0.0, -1.0))[nearest % 4])
            else:
                points.append(cmath.exp(1j * phase))
        return tuple(points)


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
    points: complex | np.ndarray,
    constellation: PskConstellation,
    r_sn: float,
) -> np.ndarray:
    """Normalized Poisson means |v + exp(i*phi_m)|**2 + r_sn, the package's
    one rate formula, as an ``(M, *np.shape(points))`` array: row m is
    hypothesis m over the displacement ratios ``points`` (a scalar gives
    shape ``(M,)``).  ``r_sn`` is the dark ratio as a float, 0 included."""
    pts = np.asarray(points, dtype=complex)
    states = np.array(constellation.state_points)
    return np.abs(np.add.outer(states, pts)) ** 2 + r_sn


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
