"""Sliced photon-counting receiver: policy realization, simulation, exact oracle.

A pulse of mean photon number alpha**2 is split into N equal time slices.
Slice n carries a displacement ratio v_n; under hypothesis m the photon
count of that slice is Poisson with rate (alpha**2/N)(|v_n + e^{i phi_m}|^2
+ r_sn), independent across slices.  Decoding is maximum likelihood on the
count vector; the log-factorial term is common to all hypotheses and drops,
leaving the linear statistic sum_n y_n log(rate_mn) - sum_n rate_mn.  Ties
are broken toward the smallest hypothesis index, a fixed deterministic rule.

Simulation splits each hypothesis's trials into blocks of MC_BLOCK_TRIALS
trials and draws block b from its own Philox counter-based stream keyed by
(seed, hypothesis, b) (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC'11).  The block is the unit of work, so results are bit-for-bit
reproducible no matter how blocks are scheduled.  Slices sharing one
displacement value are drawn as a single Poisson total (superposition),
which leaves the distribution of the decision statistic unchanged.

The exact oracle enumerates a truncated count box and reports the neglected
tail mass; error probabilities are computed conditionally on the box, so the
all-zero policy yields exactly 1/2 for binary hypotheses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .constellation import (
    DISK_TOL,
    OperatingRatios,
    PskConstellation,
    SignalScale,
    normalized_rates,
)
from .exponent import ControlDistribution

#: Mean-energy slack allowed on a realized policy (matches the peak slack).
POLICY_ENERGY_TOL = 1e-12

#: Per-slice Poisson tail mass neglected by the automatic truncation.
AUTO_TAIL_PER_SLICE = 1e-12

#: Tail bound above which an explicit truncation is rejected.
EXPLICIT_TAIL_LIMIT = 1e-9

#: Cells in the enumeration box beyond which the oracle refuses to run.
MAX_BOX_CELLS = 2_000_000

#: Trials per Monte Carlo block.  Part of the stream's definition, not a
#: tuning knob: changing it changes which counts a seed produces.
MC_BLOCK_TRIALS = 65536


@dataclass(frozen=True)
class OpenLoopPolicy:
    """A fixed displacement-ratio sequence with its operating context.

    Both constraints are hard invariants of the class: every displacement
    stays in the control disk, and the mean energy never exceeds the budget.
    """

    displacements: tuple[complex, ...]
    scale: SignalScale
    constellation: PskConstellation
    ratios: OperatingRatios

    def __post_init__(self) -> None:
        if not self.displacements:
            raise ValueError("a policy needs at least one slice")
        if len(self.displacements) != self.scale.slices:
            raise ValueError(
                f"{len(self.displacements)} displacements for "
                f"{self.scale.slices} slices"
            )
        mags = np.abs(np.array(self.displacements, dtype=complex))
        if np.any(mags > self.ratios.r_ca + DISK_TOL):
            raise ValueError("a displacement lies outside the control disk")
        if self.mean_energy() > self.ratios.r_ce + POLICY_ENERGY_TOL:
            raise ValueError(
                f"mean energy {self.mean_energy()!r} exceeds budget "
                f"{self.ratios.r_ce!r}"
            )

    def mean_energy(self) -> float:
        mags2 = np.abs(np.array(self.displacements, dtype=complex)) ** 2
        return float(np.mean(mags2))

    def rates(self, m: int) -> np.ndarray:
        """Per-slice Poisson rates under hypothesis m (physical units)."""
        points = np.array(self.displacements, dtype=complex)
        per_slice = self.scale.alpha_sq / self.scale.slices
        return per_slice * normalized_rates(
            points, m, self.constellation, self.ratios
        )

    def type_distribution(self) -> ControlDistribution:
        """Empirical distribution of the displacement sequence."""
        n = len(self.displacements)
        return ControlDistribution.from_arrays(
            self.displacements, [1.0 / n] * n
        )


@dataclass(frozen=True)
class MonteCarloReport:
    """Empirical error statistics from seeded Monte Carlo trials."""

    trials_per_hypothesis: int
    error_counts: tuple[int, ...]
    p_e: float
    stderr: float
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_e <= 1.0:
            raise ValueError(f"p_e out of range: {self.p_e!r}")

    @property
    def relative_stderr(self) -> float:
        return self.stderr / self.p_e if self.p_e > 0.0 else math.inf


def realize_policy(
    q: ControlDistribution,
    scale: SignalScale,
    constellation: PskConstellation,
    ratios: OperatingRatios,
) -> OpenLoopPolicy:
    """Round a control distribution to a feasible N-slice policy.

    Slot counts come from largest-remainder apportionment of N*weight.
    Rounding up a heavy atom can overshoot the energy budget, so a repair
    loop then moves one slot at a time from the highest-|v| atom to the
    lowest-|v| atom (adding 0 as a sink atom if absent) until the realized
    mean energy is within budget.  The realized type differs from q by at
    most 1/N per apportionment step plus 1/N per repair move, and the
    returned policy satisfies both class invariants exactly.
    """
    q.validate_feasible(ratios)
    n = scale.slices
    points = list(q.points)
    weights = q.weights
    shares = weights * n
    counts = np.floor(shares).astype(int)
    remainders = shares - counts
    shortfall = n - int(counts.sum())
    # Ties on remainders resolve toward the earlier (canonically sorted) atom.
    order = sorted(range(len(points)), key=lambda i: (-remainders[i], i))
    for i in order[:shortfall]:
        counts[i] += 1

    energies = np.abs(np.array(points)) ** 2
    if not np.any(energies == 0.0):
        points.append(0.0 + 0.0j)
        energies = np.append(energies, 0.0)
        counts = np.append(counts, 0)
    repair_moves = 0
    while float(np.dot(counts, energies)) / n > ratios.r_ce + POLICY_ENERGY_TOL:
        donors = np.flatnonzero(counts > 0)
        src = donors[int(np.argmax(energies[donors]))]
        dst = int(np.argmin(energies))
        counts[src] -= 1
        counts[dst] += 1
        repair_moves += 1

    displacements: list[complex] = []
    for point, count in zip(points, counts):
        displacements.extend([point] * int(count))
    policy = OpenLoopPolicy(
        displacements=tuple(displacements),
        scale=scale,
        constellation=constellation,
        ratios=ratios,
    )
    # Repairs are rare (at most a couple of slots); stash the count for
    # diagnostics without widening the policy type.
    object.__setattr__(policy, "_repair_moves", repair_moves)
    return policy


def _block_generator(seed: int, m: int, block: int) -> np.random.Generator:
    """Counter-based stream for one (hypothesis, block) cell.

    Rows of a block are drawn in C order, so a short final block is a
    prefix of the full block the same key gives.
    """
    key = np.array(
        [seed & 0xFFFFFFFFFFFFFFFF, ((m + 1) << 48) | block], dtype=np.uint64
    )
    return np.random.Generator(np.random.Philox(key=key))


def sample_trial(
    policy: OpenLoopPolicy, true_m: int, rng: np.random.Generator
) -> np.ndarray:
    """One count vector: independent Poisson draws per slice under true_m."""
    return rng.poisson(policy.rates(true_m))


def _group_policy(
    policy: OpenLoopPolicy,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapse equal-displacement slices: (group rates matrix, multiplicities,
    per-hypothesis rate totals).

    Group g holds count_g slices at one displacement; its Poisson total has
    rate count_g * rate.  The ML statistic only sees group totals, so this
    aggregation is distribution-exact.
    """
    num_states = policy.constellation.num_states
    unique_points, inverse = np.unique(
        np.array(policy.displacements, dtype=complex), return_inverse=True
    )
    multiplicity = np.bincount(inverse, minlength=len(unique_points))
    per_slice = policy.scale.alpha_sq / policy.scale.slices
    group_rates = np.stack(
        [
            per_slice
            * normalized_rates(
                unique_points, m, policy.constellation, policy.ratios
            )
            for m in range(num_states)
        ]
    )
    totals = group_rates @ multiplicity
    return group_rates, multiplicity, totals


def ml_decide(policy: OpenLoopPolicy, counts: Sequence[int]) -> int:
    """Maximum-likelihood hypothesis for one count vector.

    Maximizes sum_n y_n log(rate_mn) - sum_n rate_mn over m; ties go to the
    smallest index (argmax first occurrence).
    """
    y = np.asarray(counts, dtype=float)
    if y.shape != (policy.scale.slices,):
        raise ValueError(
            f"expected {policy.scale.slices} counts, got shape {y.shape}"
        )
    scores = [
        float(np.dot(y, np.log(policy.rates(m))) - np.sum(policy.rates(m)))
        for m in range(policy.constellation.num_states)
    ]
    return int(np.argmax(scores))


def monte_carlo(
    policy: OpenLoopPolicy, trials_per_hypothesis: int, seed: int
) -> MonteCarloReport:
    """Seeded Monte Carlo estimate of the Bayesian (uniform-prior) error.

    Trial t of hypothesis m is row t mod MC_BLOCK_TRIALS of block
    t // MC_BLOCK_TRIALS, whose counts come from the counter-based stream
    keyed by (seed, m, block) alone.  The report is therefore a function of
    (policy, trials, seed) only, reproducible bit-for-bit across reruns and
    independent of the order in which blocks run.  Each block's integer
    slab is scored one group column at a time, so no float copy of the slab
    is made.  stderr is the binomial standard error of the uniform-prior
    average.
    """
    if trials_per_hypothesis < 1:
        raise ValueError("at least one trial per hypothesis required")
    group_rates, multiplicity, totals = _group_policy(policy)
    num_states = policy.constellation.num_states
    log_rates = np.log(group_rates)  # (M, G)
    num_groups = log_rates.shape[1]
    error_counts = []
    for m in range(num_states):
        trial_rates = group_rates[m] * multiplicity
        errors = 0
        for block, start in enumerate(
            range(0, trials_per_hypothesis, MC_BLOCK_TRIALS)
        ):
            rows = min(MC_BLOCK_TRIALS, trials_per_hypothesis - start)
            slab = _block_generator(seed, m, block).poisson(
                trial_rates, size=(rows, num_groups)
            )
            scores = slab[:, :1] * log_rates[:, 0]  # (rows, M)
            for g in range(1, num_groups):
                scores += slab[:, g : g + 1] * log_rates[:, g]
            scores -= totals
            errors += int(np.count_nonzero(np.argmax(scores, axis=1) != m))
        error_counts.append(errors)
    rates_hat = np.array(error_counts) / trials_per_hypothesis
    p_e = float(np.mean(rates_hat))
    stderr = float(
        np.sqrt(np.sum(rates_hat * (1.0 - rates_hat)) / trials_per_hypothesis)
        / num_states
    )
    return MonteCarloReport(
        trials_per_hypothesis=trials_per_hypothesis,
        error_counts=tuple(error_counts),
        p_e=p_e,
        stderr=stderr,
        seed=seed,
    )


@dataclass(frozen=True)
class ExactErrorResult:
    """Exact (conditional on the truncation box) Bayesian error."""

    p_e: float
    tail_bound: float
    y_max: tuple[int, ...]
    per_hypothesis: tuple[float, ...]


def exact_error_small(
    policy: OpenLoopPolicy, count_truncation: Optional[int] = None
) -> ExactErrorResult:
    """Enumerate count vectors and sum exact Poisson masses by ML region.

    Intended for small N (a few slices).  The box is {0..y_max_n} per slice,
    with per-slice bounds picked so each slice's neglected tail is below
    1e-12 under every hypothesis; ``count_truncation`` instead forces one
    uniform bound, and raises if the resulting tail bound exceeds 1e-9.
    Error mass is normalized per hypothesis by the in-box mass, so
    degenerate policies (identical rates under all hypotheses) give exactly
    (M-1)/M.
    """
    # Imported here: scipy.stats costs every CLI process about half a second.
    from scipy.stats import poisson as poisson_dist

    num_states = policy.constellation.num_states
    num_slices = policy.scale.slices
    rate_matrix = np.stack(
        [policy.rates(m) for m in range(num_states)]
    )  # (M, N)

    if count_truncation is not None:
        if count_truncation < 0:
            raise ValueError("count_truncation must be nonnegative")
        y_max = np.full(num_slices, count_truncation, dtype=int)
    else:
        worst = rate_matrix.max(axis=0)
        y_max = poisson_dist.isf(AUTO_TAIL_PER_SLICE, worst).astype(int) + 1
        while True:
            tails = poisson_dist.sf(y_max, rate_matrix).max(axis=0)
            grow = tails >= AUTO_TAIL_PER_SLICE
            if not np.any(grow):
                break
            y_max[grow] += 1

    box_shape = tuple(int(b) + 1 for b in y_max)
    cells = math.prod(box_shape)
    if cells > MAX_BOX_CELLS:
        raise ValueError(
            f"truncation box has {cells} cells (limit {MAX_BOX_CELLS}); "
            "reduce the slice count or rates"
        )

    # log-likelihood and log-pmf accumulated over slices by broadcasting.
    log_pmf = np.zeros((num_states,) + box_shape)
    scores = np.zeros((num_states,) + box_shape)
    for n in range(num_slices):
        counts_n = np.arange(box_shape[n], dtype=float)
        lgamma_n = np.array([math.lgamma(y + 1.0) for y in counts_n])
        shape_n = [1] * num_slices
        shape_n[n] = box_shape[n]
        for m in range(num_states):
            lam = rate_matrix[m, n]
            loglin = counts_n * math.log(lam) - lam
            log_pmf[m] += (loglin - lgamma_n).reshape(shape_n)
            scores[m] += loglin.reshape(shape_n)

    decisions = np.argmax(scores, axis=0)
    masses = np.exp(log_pmf)
    per_hypothesis = []
    tail_bound = 0.0
    for m in range(num_states):
        in_box = float(masses[m].sum())
        err = float(masses[m][decisions != m].sum())
        per_hypothesis.append(err / in_box)
        tail_bound = max(tail_bound, 1.0 - in_box)
    if count_truncation is not None and tail_bound > EXPLICIT_TAIL_LIMIT:
        raise ValueError(
            f"count_truncation={count_truncation} leaves tail bound "
            f"{tail_bound:.3e} above {EXPLICIT_TAIL_LIMIT:.0e}"
        )
    return ExactErrorResult(
        p_e=float(np.mean(per_hypothesis)),
        tail_bound=tail_bound,
        y_max=tuple(int(b) for b in y_max),
        per_hypothesis=tuple(per_hypothesis),
    )
