"""Sliced photon-counting receiver: policy realization, simulation, exact oracle.

A pulse of mean photon number alpha**2 is split into N equal time slices.
Slice n carries a displacement ratio v_n; under hypothesis m the photon
count of that slice is Poisson with rate (alpha**2/N)(|v_n + e^{i phi_m}|^2
+ r_sn), independent across slices.  Decoding is maximum likelihood on the
count vector; the log-factorial term is common to all hypotheses and drops,
leaving the linear statistic sum_n y_n log(rate_mn) - sum_n rate_mn.  Ties
are broken toward the smallest hypothesis index, a fixed deterministic rule.
One scoring function, ``_ml_decisions``, evaluates this rule for both of
its consumers, ``monte_carlo`` and ``exact_error_small``.

Slices sharing one displacement value form a group (``OpenLoopPolicy.groups``
is the one grouping), and a policy's invariants are judged on its type, the
groups as a ``ControlDistribution``.  The statistic sees their counts only
through the group total, which is Poisson with the summed rate
(superposition), so both the simulator and the oracle work on group totals:
the decision statistic's distribution is unchanged.

Simulation splits each hypothesis's trials into blocks of MC_BLOCK_TRIALS
trials and draws block b from its own Philox counter-based stream keyed by
(seed, hypothesis, b) (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC'11).  The block is the unit of work, so results are bit-for-bit
reproducible no matter how blocks are scheduled.  A block is drawn and scored
in sub-blocks of rows, taken in order from its stream, which keeps the
working set small without changing a single count.

The exact oracle enumerates a truncated box of group totals and reports the
neglected tail mass; its cost grows with the number of distinct
displacements, not with N.  Error probabilities are computed conditionally
on the box, so the all-zero policy yields exactly 1/2 for binary hypotheses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constellation import (
    OperatingRatios,
    PskConstellation,
    SignalScale,
    normalized_rates,
)
from .divergence import BLOCK_ELEMENTS
from .exponent import ControlDistribution

#: Upper-tail mass of each group total neglected by the oracle's box.  Two
#: orders below the 1e-12 the oracle is trusted to, so the conditional
#: errors stay that accurate with several groups.
AUTO_TAIL_PER_GROUP = 1e-14

#: Cells in the enumeration box beyond which the oracle refuses to run.
MAX_BOX_CELLS = 2_000_000

#: Trials per Monte Carlo block.  Part of the stream's definition, not a
#: tuning knob: changing it changes which counts a seed produces.
MC_BLOCK_TRIALS = 65536


@dataclass(frozen=True, eq=False)
class OpenLoopPolicy:
    """A fixed displacement-ratio sequence, kept as a read-only complex
    array, with its operating context; it compares by identity.

    Both constraints are hard invariants of the class, judged on the
    policy's type, formed once with its groups: every displacement stays in
    the control disk, and the type's second moment never exceeds the budget.
    """

    displacements: np.ndarray
    scale: SignalScale
    constellation: PskConstellation
    ratios: OperatingRatios

    def __post_init__(self) -> None:
        displacements = np.array(self.displacements, dtype=complex)
        if len(displacements) != self.scale.slices:
            raise ValueError(
                f"{len(displacements)} displacements for {self.scale.slices} slices"
            )
        groups = np.unique(displacements, return_counts=True)
        for array in (displacements, *groups):
            array.flags.writeable = False
        object.__setattr__(self, "displacements", displacements)
        object.__setattr__(self, "_groups", groups)
        object.__setattr__(self, "_type", ControlDistribution.from_arrays(*groups))
        self._type.validate_feasible(self.ratios)

    def groups(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct displacements, in ``np.unique`` order, and the number
        of slices carrying each, as read-only arrays."""
        return self._groups

    def type_distribution(self) -> ControlDistribution:
        """Empirical distribution of the displacement sequence."""
        return self._type


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


def realize_policy(
    q: ControlDistribution,
    scale: SignalScale,
    constellation: PskConstellation,
    ratios: OperatingRatios,
) -> OpenLoopPolicy:
    """Round a control distribution to a feasible N-slice policy.

    One pass: slot counts come from largest-remainder apportionment of
    N*weight (ties to the earlier atom).  Rounding up a heavy atom can
    overshoot the energy budget, so a repair loop then moves one slot at a
    time from the highest-|v| atom to the lowest-|v| one, the origin,
    appended to q's atoms with no share (where q has it, the first copy
    takes the slots), until the realized type's second moment, the number
    ``OpenLoopPolicy`` checks, is within budget.  The slot comes from the
    highest-|v| ring's atom with the most slots (ties to the earlier atom),
    so the repair does not turn on the canonical order of a rotated or
    reflected q; ties among remainders still do.  The realized type differs
    from q by at most 1/N per apportionment step plus 1/N per repair move,
    and every policy the loop accepts constructs.
    """
    q.validate_feasible(ratios)
    points = np.append(q.points, 0j)
    shares = np.append(q.weights, 0.0) * scale.slices
    counts = np.floor(shares).astype(int)
    order = np.argsort(counts - shares, kind="stable")
    counts[order[: scale.slices - int(counts.sum())]] += 1

    energies = np.abs(points) ** 2
    repair_moves = 0
    while not ratios.within_budget(
        ControlDistribution.from_arrays(points, counts).second_moment()
    ):
        donors = np.flatnonzero(counts > 0)
        # The |v|^2 of one grid ring spread over up to 8 ulps (rounding).
        top = energies[donors].max()
        donors = donors[energies[donors] >= top - 16.0 * np.spacing(top)]
        src = donors[int(np.argmax(counts[donors]))]
        dst = int(np.argmin(energies))
        counts[src] -= 1
        counts[dst] += 1
        repair_moves += 1

    policy = OpenLoopPolicy(np.repeat(points, counts), scale, constellation, ratios)
    # Repairs are rare (at most a couple of slots); stash the count for
    # diagnostics without widening the policy type.
    object.__setattr__(policy, "_repair_moves", repair_moves)
    return policy


def _block_generator(seed: int, m: int, block: int) -> np.random.Generator:
    """Counter-based stream for one (hypothesis, block) cell.

    Rows of a block are drawn in C order, so a short final block is a
    prefix of the full block the same key gives, and drawing a block in
    consecutive sub-blocks of rows gives the rows one draw would.
    """
    key = np.array([seed, ((m + 1) << 48) | block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _group_policy(
    policy: OpenLoopPolicy,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapse equal-displacement slices: (group rates matrix, multiplicities,
    per-hypothesis rate totals).

    Group g holds count_g slices at one displacement; its Poisson total has
    rate count_g * rate.  The ML statistic only sees group totals, so this
    aggregation is distribution-exact.
    """
    unique_points, multiplicity = policy.groups()
    per_slice = policy.scale.alpha_sq / policy.scale.slices
    group_rates = per_slice * normalized_rates(
        unique_points, policy.constellation, policy.ratios.r_sn
    )
    totals = group_rates @ multiplicity
    return group_rates, multiplicity, totals


def _ml_decisions(
    columns: Sequence[np.ndarray], log_rates: np.ndarray, totals: np.ndarray
) -> np.ndarray:
    """Maximum-likelihood hypothesis for every cell of a set of count columns.

    ``columns[g]`` holds the counts of slice or group g, broadcastable
    against the others, with a trailing axis of length 1 for the hypothesis;
    ``log_rates`` is (M, G) and ``totals`` is (M,).  The score of m is
    sum_g columns[g] * log_rates[m, g] - totals[m], accumulated in g order,
    and ties go to the smallest index (argmax first occurrence).
    """
    scores = columns[0] * log_rates[:, 0]
    for g in range(1, len(columns)):
        scores = scores + columns[g] * log_rates[:, g]
    scores -= totals
    return np.argmax(scores, axis=-1)


def monte_carlo(
    policy: OpenLoopPolicy, trials_per_hypothesis: int, seed: int
) -> MonteCarloReport:
    """Seeded Monte Carlo estimate of the Bayesian (uniform-prior) error.

    Trial t of hypothesis m is row t mod MC_BLOCK_TRIALS of block
    t // MC_BLOCK_TRIALS, whose counts come from the counter-based stream
    keyed by (seed, m, block) alone; the seed is one 64-bit word of that
    key, so it must lie in [0, 2**64).  The report is therefore a function
    of (policy, trials, seed) only, reproducible bit-for-bit across reruns and
    independent of the order in which blocks run.  Each block is drawn and
    scored in consecutive sub-blocks of rows from its stream, about
    ``BLOCK_ELEMENTS`` counts and scores at a time; the stream gives the
    same rows in any split, so the sub-block size changes no count.  Each
    sub-block's integer slab is scored one group column at a time, so no
    float copy of the slab is made.  stderr is the binomial standard error
    of the uniform-prior average.
    """
    if trials_per_hypothesis < 1:
        raise ValueError("at least one trial per hypothesis required")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed!r}")
    group_rates, multiplicity, totals = _group_policy(policy)
    num_states = policy.constellation.num_states
    log_rates = np.log(group_rates)  # (M, G)
    num_groups = log_rates.shape[1]
    sub_rows = max(1, BLOCK_ELEMENTS // (num_groups + num_states))
    error_counts = []
    for m in range(num_states):
        trial_rates = group_rates[m] * multiplicity
        errors = 0
        for block, start in enumerate(
            range(0, trials_per_hypothesis, MC_BLOCK_TRIALS)
        ):
            rows = min(MC_BLOCK_TRIALS, trials_per_hypothesis - start)
            stream = _block_generator(seed, m, block)
            for done in range(0, rows, sub_rows):
                slab = stream.poisson(
                    trial_rates, size=(min(sub_rows, rows - done), num_groups)
                )
                columns = [slab[:, g : g + 1] for g in range(num_groups)]
                decisions = _ml_decisions(columns, log_rates, totals)
                errors += int(np.count_nonzero(decisions != m))
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
    """Exact (conditional on the truncation box) Bayesian error.

    ``y_max`` holds the largest enumerated total of each displacement
    group, one entry per distinct displacement in ``np.unique`` order.
    """

    p_e: float
    tail_bound: float
    y_max: tuple[int, ...]
    per_hypothesis: tuple[float, ...]


def _group_log_pmf(means: np.ndarray) -> np.ndarray:
    """log P_m(Y = k) for k = 0..y_max, one row per hypothesis mean.

    y_max is the smallest count whose upper tail P_m(Y > y_max) is below
    AUTO_TAIL_PER_GROUP under every hypothesis.  The range searched runs to
    mean + 12 sqrt(mean) + 12, where the Poisson tail is below 1e-20.
    """
    worst = float(means.max())
    k = np.arange(int(worst + 12.0 * math.sqrt(worst) + 12.0) + 1, dtype=float)
    log_factorial = np.array([math.lgamma(y + 1.0) for y in k])
    log_pmf = k * np.log(means)[:, None] - means[:, None] - log_factorial
    # beyond[:, y] = P(Y > y), summed from the far end so small tails keep
    # their relative precision; the last entry is 0, so a cut always exists.
    beyond = np.zeros_like(log_pmf)
    beyond[:, :-1] = np.cumsum(np.exp(log_pmf[:, :0:-1]), axis=1)[:, ::-1]
    y_max = int(np.argmax(np.all(beyond < AUTO_TAIL_PER_GROUP, axis=0)))
    return log_pmf[:, : y_max + 1]


def exact_error_small(policy: OpenLoopPolicy) -> ExactErrorResult:
    """Enumerate group totals and sum exact Poisson masses by ML region.

    Intended for policies with few distinct displacements; the number of
    slices does not matter.  Group g's total is Poisson with mean
    multiplicity_g * rate, and the ML statistic depends on the counts only
    through these totals.  The box is {0..y_max_g} per group, each group's
    neglected upper tail below AUTO_TAIL_PER_GROUP under every hypothesis.
    Error mass is normalized per hypothesis by the in-box mass, so
    degenerate policies (identical rates under all hypotheses) give exactly
    (M-1)/M.
    """
    group_rates, multiplicity, totals = _group_policy(policy)
    num_states, num_groups = group_rates.shape
    # Each group's y_max is at least its largest mean, so this lower bound
    # on the cells refuses a huge box before its log-pmf tables are built.
    least = math.prod(
        math.floor(mean) + 1 for mean in (group_rates * multiplicity).max(axis=0)
    )
    if least > MAX_BOX_CELLS:
        raise ValueError(
            f"truncation box has at least {least} cells (limit {MAX_BOX_CELLS}); "
            "reduce the number of distinct displacements or the rates"
        )
    log_pmfs = [
        _group_log_pmf(group_rates[:, g] * multiplicity[g])
        for g in range(num_groups)
    ]
    box_shape = tuple(lp.shape[1] for lp in log_pmfs)
    cells = math.prod(box_shape)
    if cells > MAX_BOX_CELLS:
        raise ValueError(
            f"truncation box has {cells} cells (limit {MAX_BOX_CELLS}); "
            "reduce the number of distinct displacements or the rates"
        )

    # Group g varies along box axis g; columns carry a trailing hypothesis
    # axis, the log-pmf a leading one.
    columns = []
    log_pmf = np.zeros((num_states,) + box_shape)
    for g, lp in enumerate(log_pmfs):
        shape = [1] * num_groups
        shape[g] = box_shape[g]
        columns.append(np.arange(box_shape[g]).reshape(shape + [1]))
        log_pmf += lp.reshape([num_states] + shape)

    decisions = _ml_decisions(columns, np.log(group_rates), totals)
    masses = np.exp(log_pmf)
    per_hypothesis = []
    tail_bound = 0.0
    for m in range(num_states):
        in_box = float(masses[m].sum())
        err = float(masses[m][decisions != m].sum())
        per_hypothesis.append(err / in_box)
        tail_bound = max(tail_bound, 1.0 - in_box)
    return ExactErrorResult(
        p_e=float(np.mean(per_hypothesis)),
        tail_bound=tail_bound,
        y_max=tuple(n - 1 for n in box_shape),
        per_hypothesis=tuple(per_hypothesis),
    )
