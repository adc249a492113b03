"""Tests for policy realization, the sliced photon-counting simulator, and
the exact error oracle over per-displacement count totals."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from oracles import peak_traced_bytes, total_variation
from pins import REALIZED
from pskexp import receiver
from pskexp.constellation import (
    DISK_TOL,
    OperatingRatios,
    SignalScale,
    bpsk,
    control_grid,
    normalized_rates,
    uniform_psk,
)
from pskexp.exponent import ControlDistribution, exponent_of, optimize_general
from pskexp.receiver import (
    MC_BLOCK_TRIALS,
    MonteCarloReport,
    OpenLoopPolicy,
    _block_generator,
    _group_policy,
    _ml_decisions,
    exact_error_small,
    monte_carlo,
    realize_policy,
)

BPSK = bpsk()
RATIOS_09 = OperatingRatios(r_sn=0.01, r_ca=1.0, r_ce=0.9)

# Kennedy-like single-slice case: alpha_sq = 2, v = 1, r_sn = 0.01 gives
# per-slice rates 0.02 and 8.02 and the ML rule "decide 1 iff y >= 2".
# Frozen exact error (mpmath, 50 digits): (P0[y>=2] + P1[y<=1]) / 2.
KENNEDY_EXACT_PE = 0.00158165491644611544

# One 4-PSK slice at v = 0.5 (alpha_sq = 2, r_sn = 0.01): hypotheses 1 and 3
# see the same rate |0.5 + i|**2 + r_sn, so every count they tie on goes to
# 1 and hypothesis 3 is never decided.  Its p_e, recorded when the state
# points at multiples of pi/2 were still inexact (which split that tie by
# rounding, leaving p_e itself unaffected).
QUATERNARY_TIE_PE = 0.49129674736193596


def quaternary_tie_policy() -> OpenLoopPolicy:
    """One-slice 4-PSK policy at v = 0.5, where hypotheses 1 and 3 tie."""
    return OpenLoopPolicy(
        displacements=(0.5 + 0j,),
        scale=SignalScale(alpha_sq=2.0, slices=1, grid_k=1),
        constellation=uniform_psk(4),
        ratios=OperatingRatios(r_sn=0.01, r_ca=1.0, r_ce=0.25),
    )


def realized_quaternary_policy() -> OpenLoopPolicy:
    """The 50-slice 4-PSK policy ``simulate --psk 4`` realizes at r_sn =
    0.01, r_ce = 0.9: six displacement groups."""
    con = uniform_psk(4)
    q = optimize_general(con, RATIOS_09, grid_k=20).q_star
    return realize_policy(q, SignalScale(alpha_sq=2.0, slices=50, grid_k=20), con, RATIOS_09)


def single_slice_policy(v: complex, alpha_sq: float = 2.0) -> OpenLoopPolicy:
    """One-slice BPSK policy at displacement ratio v with full budget."""
    ratios = OperatingRatios(r_sn=0.01, r_ca=1.0, r_ce=1.0)
    scale = SignalScale(alpha_sq=alpha_sq, slices=1, grid_k=1)
    return OpenLoopPolicy(
        displacements=(complex(v),), scale=scale, constellation=BPSK, ratios=ratios
    )


def slice_rates(policy: OpenLoopPolicy, m: int) -> np.ndarray:
    """Per-slice Poisson rates under hypothesis m: (alpha_sq / N) * Lambda_m."""
    per_slice = policy.scale.alpha_sq / policy.scale.slices
    points = np.array(policy.displacements, dtype=complex)
    return per_slice * normalized_rates(
        points, policy.constellation, policy.ratios.r_sn
    )[m]


def ml_decisions(policy: OpenLoopPolicy, counts) -> list[int]:
    """ML decision of the shared scoring core for each row of per-slice counts."""
    rates = np.stack(
        [slice_rates(policy, m) for m in range(policy.constellation.num_states)]
    )  # (M, N)
    columns = np.asarray(counts).T[:, :, None]  # column n: slice n's counts
    return _ml_decisions(columns, np.log(rates), rates.sum(axis=1)).tolist()


def reference_exact_error(policy: OpenLoopPolicy) -> tuple[float, tuple[float, ...]]:
    """Per-slice enumeration oracle: (p_e, per-hypothesis errors).

    One box axis per slice, each cut where its Poisson tail falls below
    1e-12 under every hypothesis; masses are normalized by the in-box mass.
    Exponential in N, so only for a few slices.
    """
    num_states = policy.constellation.num_states
    num_slices = policy.scale.slices
    rate_matrix = np.stack([slice_rates(policy, m) for m in range(num_states)])  # (M, N)
    y_max = stats.poisson.isf(1e-12, rate_matrix.max(axis=0)).astype(int) + 1
    while True:
        grow = stats.poisson.sf(y_max, rate_matrix).max(axis=0) >= 1e-12
        if not np.any(grow):
            break
        y_max[grow] += 1
    box_shape = tuple(int(b) + 1 for b in y_max)
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
    per_hypothesis = tuple(
        float(masses[m][decisions != m].sum()) / float(masses[m].sum())
        for m in range(num_states)
    )
    return float(np.mean(per_hypothesis)), per_hypothesis


def uniform_policy(v: complex, slices: int, r_ce: float) -> OpenLoopPolicy:
    """BPSK policy repeating one displacement across all slices."""
    ratios = OperatingRatios(r_sn=0.01, r_ca=1.0, r_ce=r_ce)
    scale = SignalScale(alpha_sq=2.0, slices=slices, grid_k=1)
    return OpenLoopPolicy(
        displacements=(complex(v),) * slices,
        scale=scale,
        constellation=BPSK,
        ratios=ratios,
    )


class TestOpenLoopPolicy:
    """Validate the realized policy container."""

    @pytest.mark.parametrize("displacements", [(0.0j, 0.0j), ()])
    def test_slice_count_must_match_scale(self, displacements):
        """Displacement count must equal scale.slices, which is at least
        one, so no policy is empty."""
        scale = SignalScale(alpha_sq=2.0, slices=3, grid_k=1)
        with pytest.raises(ValueError, match="slices"):
            OpenLoopPolicy(
                displacements=displacements,
                scale=scale,
                constellation=BPSK,
                ratios=RATIOS_09,
            )

    def test_disk_and_energy_invariants(self):
        """Peak and mean-energy violations are rejected at construction."""
        scale = SignalScale(alpha_sq=2.0, slices=2, grid_k=1)
        with pytest.raises(ValueError, match="disk"):
            OpenLoopPolicy(
                displacements=(1.2 + 0.0j, 0.0j),
                scale=scale,
                constellation=BPSK,
                ratios=RATIOS_09,
            )
        with pytest.raises(ValueError, match="second moment"):
            OpenLoopPolicy(
                displacements=(1.0 + 0.0j, 1.0 + 0.0j),
                scale=scale,
                constellation=BPSK,
                ratios=RATIOS_09,
            )

    def test_rates_scaling(self):
        """Per-slice rates are (alpha_sq / N) times the normalized rates, and
        a group's total is its multiplicity times that."""
        pol = uniform_policy(0.5, slices=4, r_ce=0.25)
        group_rates, multiplicity, totals = _group_policy(pol)
        want = (2.0 / 4) * normalized_rates([0.5], BPSK, pol.ratios.r_sn)
        np.testing.assert_allclose(group_rates, want, rtol=1e-14)
        assert multiplicity.tolist() == [4]
        np.testing.assert_allclose(totals, 4 * want[:, 0], rtol=1e-14)

    def test_type_distribution_merges_slots(self):
        """The empirical type merges repeated displacements."""
        ratios = OperatingRatios(r_sn=0.01, r_ca=1.0, r_ce=0.9)
        scale = SignalScale(alpha_sq=2.0, slices=4, grid_k=1)
        pol = OpenLoopPolicy(
            displacements=(1.0 + 0.0j, 1.0 + 0.0j, 1.0 + 0.0j, 0.0j),
            scale=scale,
            constellation=BPSK,
            ratios=ratios,
        )
        q = pol.type_distribution()
        assert q == ControlDistribution.from_arrays([0.0, 1.0], [0.25, 0.75])

    def test_total_rate_invariant_under_slicing(self):
        """Doubling N preserves the total rate (Poisson superposition)."""
        coarse = uniform_policy(0.5, slices=4, r_ce=0.25)
        fine = uniform_policy(0.5, slices=8, r_ce=0.25)
        for m in range(2):
            assert slice_rates(coarse, m).sum() == pytest.approx(
                slice_rates(fine, m).sum(), rel=1e-14
            )

    def test_rejects_non_finite_displacement(self):
        """A NaN or infinite displacement is rejected at construction."""
        scale = SignalScale(alpha_sq=2.0, slices=2, grid_k=1)
        for bad in (complex(math.nan), complex(0.0, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                OpenLoopPolicy(
                    displacements=(bad, 0.0j),
                    scale=scale,
                    constellation=BPSK,
                    ratios=RATIOS_09,
                )


class TestRealizePolicy:
    """Validate type-matching apportionment with energy repair."""

    def test_exact_apportionment(self):
        """0.9/0.1 on ten slices realizes exactly: nine 1's and one 0."""
        q = ControlDistribution.from_arrays([1.0, 0.0], [0.9, 0.1])
        scale = SignalScale(alpha_sq=2.0, slices=10, grid_k=1)
        pol = realize_policy(q, scale, BPSK, RATIOS_09)
        mags = sorted(abs(d) for d in pol.displacements)
        assert mags == [0.0] + [1.0] * 9
        assert pol.type_distribution().second_moment() == pytest.approx(0.9, abs=1e-15)
        assert total_variation(pol.type_distribution(), q) == pytest.approx(0.0, abs=1e-15)

    def test_energy_repair_on_coarse_slicing(self):
        """Three slices cannot carry 0.9 mass at 1; repair moves one slot."""
        q = ControlDistribution.from_arrays([1.0, 0.0], [0.9, 0.1])
        scale = SignalScale(alpha_sq=2.0, slices=3, grid_k=1)
        pol = realize_policy(q, scale, BPSK, RATIOS_09)
        mags = sorted(abs(d) for d in pol.displacements)
        assert mags == [0.0, 1.0, 1.0]
        assert pol.type_distribution().second_moment() == pytest.approx(2.0 / 3.0, abs=1e-15)
        moves = getattr(pol, "_repair_moves")
        assert moves == 1
        tv = total_variation(pol.type_distribution(), q)
        assert tv <= (1.0 + moves) / 3.0 + 1e-12

    @pytest.mark.parametrize(
        "m, grid_k, beta",
        [(4, 20, 0.471522), (8, 40, 0.121934)],
        ids=["psk4", "psk8"],
    )
    def test_symmetric_images_realize_to_one_exponent(self, m, grid_k, beta):
        """The 2M images of the M-PSK ``q_star`` (r_sn 0.01, r_ce 0.9) under
        the rotations and reflections of the constellation, taken as the grid
        points they land on (whose |v|^2 differ from the originals' by
        ulps), realize at N = 50 to one exponent.  The repair once took its
        slot from the first highest-|v| atom in canonical order, and images
        realized to 0.4381 or 0.4385 (4-PSK) or 0.122432 (8-PSK); an exact
        |v|^2 tie left the 8-PSK spread in place."""
        con = uniform_psk(m)
        q = optimize_general(con, RATIOS_09, grid_k=grid_k).q_star
        grid = control_grid(grid_k, RATIOS_09)
        index = np.array([np.flatnonzero(grid == v)[0] for v in q.points]) - 1
        ring, angle = index // grid_k, index % grid_k
        scale = SignalScale(alpha_sq=2.0, slices=50, grid_k=grid_k)
        betas = []
        for sign in (1, -1):
            for turn in range(0, grid_k, grid_k // m):
                image = 1 + ring * grid_k + (sign * angle + turn) % grid_k
                image[index < 0] = 0
                q_image = ControlDistribution.from_arrays(grid[image], q.weights)
                policy = realize_policy(q_image, scale, con, RATIOS_09)
                betas.append(exponent_of(policy.type_distribution(), con, RATIOS_09))
        assert max(betas) - min(betas) <= 1e-12 * max(betas)
        assert betas[0] == pytest.approx(beta, rel=1e-5)

    def test_point_mass_realizes_verbatim(self):
        """A point mass at sqrt(0.9) fills every slot at energy 0.9."""
        q = ControlDistribution.point_mass(math.sqrt(0.9))
        scale = SignalScale(alpha_sq=2.0, slices=4, grid_k=1)
        pol = realize_policy(q, scale, BPSK, RATIOS_09)
        assert all(d == complex(math.sqrt(0.9)) for d in pol.displacements)
        assert pol.type_distribution().second_moment() == pytest.approx(0.9, abs=1e-12)

    @settings(deadline=None)
    @given(
        w=st.floats(min_value=0.05, max_value=0.95),
        v1=st.floats(min_value=0.0, max_value=0.7),
        v2=st.floats(min_value=0.71, max_value=1.0),
        slices=st.integers(min_value=3, max_value=50),
        tight=st.booleans(),
    )
    # At the least budget this q meets, the realized type's energy lies ulps
    # from the bound: the repair must stop on the float the policy checks.
    @example(w=0.645, v1=0.0, v2=0.3048287045668617, slices=200, tight=True)
    def test_invariants_and_type_distance(
        self, w: float, v1: float, v2: float, slices: int, tight: bool
    ):
        """Realized policies keep both invariants and stay TV-close to q,
        also when the budget is the least q meets (``tight``)."""
        q = ControlDistribution.from_arrays([v1, v2], [1.0 - w, w])
        energy = q.second_moment()
        r_ce = energy / (1.0 + DISK_TOL) if tight else energy + 1e-12
        ratios = OperatingRatios(r_sn=0.01, r_ca=1.0, r_ce=r_ce)
        assume(ratios.within_budget(energy))
        scale = SignalScale(alpha_sq=2.0, slices=slices, grid_k=1)
        pol = realize_policy(q, scale, BPSK, ratios)
        assert pol.type_distribution().second_moment() <= ratios.r_ce + 1e-12
        assert max(abs(d) for d in pol.displacements) <= ratios.r_ca + 1e-12
        moves = getattr(pol, "_repair_moves")
        # Match atoms only at float jitter, so that a repaired slot near a
        # distinct atom (the origin's sink, say) still counts as moved.
        tv = total_variation(pol.type_distribution(), q, match_tol=1e-12)
        assert tv <= (1.0 + moves) / slices + 1e-12

    @pytest.mark.parametrize("key", REALIZED.keys, ids=REALIZED.id)
    def test_realization_is_pinned(self, key):
        """Each census, 4-PSK and binary ``q_star`` realizes on N slices to
        the type, exponent and repair moves of ``pinned_realized_types.json``,
        bit for bit (``pins.REALIZED``)."""
        assert REALIZED.record(key) == REALIZED.pinned[REALIZED.id(key)]


class TestMlDecide:
    """Validate the maximum-likelihood decision rule."""

    def test_single_slice_threshold(self):
        """With rates (0.02, 8.02) the rule is: decide 1 iff y >= 2."""
        pol = single_slice_policy(1.0)
        np.testing.assert_allclose(slice_rates(pol, 0), [0.02], rtol=1e-12)
        np.testing.assert_allclose(slice_rates(pol, 1), [8.02], rtol=1e-12)
        assert ml_decisions(pol, [[0], [1], [2], [7]]) == [0, 0, 1, 1]

    def test_tie_goes_to_smallest_index(self):
        """Identical rates under all hypotheses always decide 0."""
        pol = uniform_policy(0.0, slices=3, r_ce=0.9)
        assert ml_decisions(pol, [[0, 0, 0], [1, 2, 3], [5, 0, 1]]) == [0, 0, 0]


class TestMonteCarlo:
    """Validate the seeded Monte Carlo error estimate."""

    def test_all_zero_policy_is_half(self):
        """The passive policy errs on exactly one of two hypotheses."""
        pol = uniform_policy(0.0, slices=3, r_ce=0.9)
        report = monte_carlo(pol, trials_per_hypothesis=500, seed=42)
        assert report.p_e == 0.5
        assert report.error_counts == (0, 500)
        assert report.stderr == 0.0

    def test_deterministic_for_fixed_seed(self):
        """Same seed gives bit-identical reports."""
        pol = uniform_policy(0.5, slices=2, r_ce=0.25)
        a = monte_carlo(pol, trials_per_hypothesis=2000, seed=7)
        b = monte_carlo(pol, trials_per_hypothesis=2000, seed=7)
        assert a == b

    def test_stream_is_keyed_by_seed_hypothesis_block(self):
        """Block b under m draws from Philox keyed (seed, (m + 1) << 48 | b)."""
        pol = single_slice_policy(1.0)
        trials, seed = 1000, 3
        want = []
        for m in range(2):
            key = np.array([seed, (m + 1) << 48], dtype=np.uint64)
            rng = np.random.Generator(np.random.Philox(key=key))
            y = rng.poisson(slice_rates(pol, m), size=(trials, 1))[:, 0]
            # Kennedy rule: decide 1 iff y >= 2.
            want.append(int(np.count_nonzero((y >= 2) != (m == 1))))
        report = monte_carlo(pol, trials_per_hypothesis=trials, seed=seed)
        assert report.error_counts == tuple(want)

    def test_trial_draws_do_not_depend_on_trial_count(self):
        """One more trial adds at most one error, also across a block edge."""
        pol = uniform_policy(0.5, slices=2, r_ce=0.25)
        for trials in (1000, MC_BLOCK_TRIALS):
            a = monte_carlo(pol, trials_per_hypothesis=trials, seed=9)
            b = monte_carlo(pol, trials_per_hypothesis=trials + 1, seed=9)
            steps = np.subtract(b.error_counts, a.error_counts)
            assert np.all((steps == 0) | (steps == 1))

    @pytest.mark.parametrize("groups", [1, 3, 7])
    @pytest.mark.parametrize("seed, m, block", [(0, 0, 0), (13001, 3, 1), (2**63, 15, 7)])
    def test_sub_block_draws_equal_one_block_draw(self, seed, m, block, groups):
        """Drawing a block in consecutive sub-blocks of rows from its stream
        gives the rows one draw of the whole block gives."""
        rates = np.linspace(0.05, 6.0, groups)
        whole = _block_generator(seed, m, block).poisson(
            rates, size=(MC_BLOCK_TRIALS, groups)
        )
        stream = _block_generator(seed, m, block)
        parts = [
            stream.poisson(rates, size=(min(3000, MC_BLOCK_TRIALS - done), groups))
            for done in range(0, MC_BLOCK_TRIALS, 3000)
        ]
        assert np.array_equal(np.concatenate(parts), whole)

    def test_sub_block_size_changes_no_count(self, monkeypatch):
        """Across a block edge, the report is the same for sub-blocks of a
        few hundred rows, the default size and whole blocks."""
        pol = realized_quaternary_policy()
        trials = MC_BLOCK_TRIALS + 3000
        reports = []
        for budget in (5000, receiver.BLOCK_ELEMENTS, 1 << 40):
            monkeypatch.setattr(receiver, "BLOCK_ELEMENTS", budget)
            reports.append(monte_carlo(pol, trials_per_hypothesis=trials, seed=13))
        assert reports[0] == reports[1] == reports[2]

    def test_quaternary_working_set(self):
        """20000 trials of a realized 4-PSK policy peak below 1 MiB of
        allocations (2.4 MiB when whole blocks are drawn at once).  A first
        small run takes numpy.random's one-time set-up out of the count."""
        pol = realized_quaternary_policy()
        monte_carlo(pol, trials_per_hypothesis=100, seed=1)
        peak = peak_traced_bytes(lambda: monte_carlo(pol, 20_000, seed=5))
        assert peak <= 2**20

    def test_agrees_with_exact_oracle(self):
        """Monte Carlo matches exhaustive enumeration within 3 stderr."""
        pol = uniform_policy(0.5, slices=2, r_ce=0.25)
        exact = exact_error_small(pol)
        report = monte_carlo(pol, trials_per_hypothesis=20_000, seed=11)
        assert abs(report.p_e - exact.p_e) <= 3.0 * report.stderr

    def test_stderr_formula(self):
        """stderr is the binomial error of the uniform-prior average."""
        pol = uniform_policy(0.5, slices=2, r_ce=0.25)
        report = monte_carlo(pol, trials_per_hypothesis=5000, seed=1)
        rates = [c / 5000 for c in report.error_counts]
        want = math.sqrt(sum(p * (1.0 - p) / 5000 for p in rates)) / 2.0
        assert report.stderr == pytest.approx(want, rel=1e-12)

    def test_exact_tie_goes_to_the_lowest_index(self):
        """Hypotheses 1 and 3 tie exactly, so every trial of 3 is an error."""
        report = monte_carlo(quaternary_tie_policy(), 2000, seed=1)
        assert report.error_counts[3] == 2000

    def test_rejects_zero_trials(self):
        """At least one trial per hypothesis is required."""
        pol = uniform_policy(0.5, slices=2, r_ce=0.25)
        with pytest.raises(ValueError, match="trial"):
            monte_carlo(pol, trials_per_hypothesis=0, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_seed_outside_64_bits(self, seed):
        """The stream is keyed by 64 bits of the seed, so a seed outside
        [0, 2**64) would replay the trials of another seed."""
        pol = uniform_policy(0.5, slices=2, r_ce=0.25)
        with pytest.raises(ValueError, match="seed"):
            monte_carlo(pol, trials_per_hypothesis=100, seed=seed)
        largest = monte_carlo(pol, trials_per_hypothesis=100, seed=2**64 - 1)
        assert largest.seed == 2**64 - 1

    def test_report_validates_probability(self):
        """Out-of-range p_e is rejected by the report container."""
        with pytest.raises(ValueError, match="p_e"):
            MonteCarloReport(
                trials_per_hypothesis=10,
                error_counts=(0, 0),
                p_e=1.5,
                stderr=0.0,
                seed=0,
            )

    def test_bound_validation_on_realized_policy(self):
        """Realized near-optimal policies respect the exponent bound."""
        from pskexp.exponent import optimize_binary

        sol = optimize_binary(RATIOS_09)
        scale = SignalScale(alpha_sq=2.0, slices=50, grid_k=1)
        pol = realize_policy(sol.q_star, scale, BPSK, RATIOS_09)
        beta_realized = exponent_of(pol.type_distribution(), BPSK, RATIOS_09)
        report = monte_carlo(pol, trials_per_hypothesis=20_000, seed=5)
        bound = 0.5 * math.exp(-2.0 * beta_realized)
        relative_stderr = report.stderr / report.p_e if report.p_e > 0.0 else math.inf
        assert report.p_e <= bound * (1.0 + 5.0 * relative_stderr)


class TestExactErrorSmall:
    """Validate the exhaustive truncated-enumeration oracle."""

    def test_all_zero_policy_is_exactly_half(self):
        """The passive policy's exact Bayesian error is 1/2."""
        pol = uniform_policy(0.0, slices=2, r_ce=0.9)
        result = exact_error_small(pol)
        assert result.p_e == 0.5
        assert result.per_hypothesis == (0.0, 1.0)

    @pytest.mark.parametrize("num_states", [3, 4])
    def test_all_zero_policy_is_chance(self, num_states: int):
        """Without displacement every hypothesis looks alike: (M-1)/M."""
        pol = OpenLoopPolicy(
            displacements=(0.0j,) * 3,
            scale=SignalScale(alpha_sq=2.0, slices=3, grid_k=1),
            constellation=uniform_psk(num_states),
            ratios=RATIOS_09,
        )
        assert exact_error_small(pol).p_e == (num_states - 1) / num_states

    def test_exact_tie_goes_to_the_lowest_index(self):
        """Hypothesis 3 ties hypothesis 1 on every count and never wins."""
        result = exact_error_small(quaternary_tie_policy())
        assert result.per_hypothesis[3] == 1.0
        assert result.p_e == pytest.approx(QUATERNARY_TIE_PE, abs=1e-15)

    def test_single_slice_closed_form(self):
        """The single-slice case reduces to two Poisson CDF terms."""
        pol = single_slice_policy(1.0)
        result = exact_error_small(pol)
        want = 0.5 * (stats.poisson.sf(1, 0.02) + stats.poisson.cdf(1, 8.02))
        assert result.p_e == pytest.approx(want, abs=1e-12)
        assert result.p_e == pytest.approx(KENNEDY_EXACT_PE, abs=1e-12)
        assert result.tail_bound < 1e-12

    def test_slice_permutation_invariance(self):
        """Only the policy's type matters, not the slot order."""
        ratios = OperatingRatios(r_sn=0.01, r_ca=1.0, r_ce=0.9)
        scale = SignalScale(alpha_sq=2.0, slices=3, grid_k=1)
        a = OpenLoopPolicy(
            displacements=(0.8 + 0.0j, 0.2 + 0.0j, 0.5 + 0.0j),
            scale=scale,
            constellation=BPSK,
            ratios=ratios,
        )
        b = OpenLoopPolicy(
            displacements=(0.2 + 0.0j, 0.5 + 0.0j, 0.8 + 0.0j),
            scale=scale,
            constellation=BPSK,
            ratios=ratios,
        )
        assert exact_error_small(a).p_e == pytest.approx(
            exact_error_small(b).p_e, abs=1e-14
        )

    def test_box_guard(self):
        """Unenumerable boxes raise instead of exhausting memory."""
        # Ten distinct displacements give ten group axes of at least nine
        # totals each, far more than MAX_BOX_CELLS cells.
        scale = SignalScale(alpha_sq=2.0, slices=10, grid_k=1)
        pol = OpenLoopPolicy(
            displacements=tuple(complex(0.05 * k) for k in range(10)),
            scale=scale,
            constellation=BPSK,
            ratios=RATIOS_09,
        )
        with pytest.raises(ValueError, match="cells"):
            exact_error_small(pol)

    def test_many_slices_one_group(self):
        """Slice count does not limit the oracle: 200 equal slices are one
        group whose total is Poisson with the summed rate."""
        pol = uniform_policy(0.5, slices=200, r_ce=0.25)
        result = exact_error_small(pol)
        # One slice at alpha_sq = 2 has the same total rates.
        one = exact_error_small(single_slice_policy(0.5))
        assert len(result.y_max) == 1
        assert result.p_e == pytest.approx(one.p_e, abs=1e-14)

    @settings(deadline=None, max_examples=40)
    @given(
        num_states=st.sampled_from([2, 3, 4]),
        picks=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4),
        alpha_sq=st.floats(min_value=0.5, max_value=3.0),
    )
    def test_matches_per_slice_reference(
        self, num_states: int, picks: list[int], alpha_sq: float
    ):
        """Grouped enumeration agrees with the per-slice oracle to 1e-12."""
        # Few candidate points, so slices repeat and form groups.  No sum of
        # up to four of them is equidistant from two constellation points, so
        # no two hypotheses have equal rate totals: such a pair ties on the
        # all-zero count vector, and rounding, which differs between the two
        # oracles, would decide that tie.
        candidates = (0.31 + 0.07j, -0.23 + 0.41j, 0.52 - 0.19j, 0.13 - 0.57j)
        displacements = tuple(candidates[i] for i in picks)
        ratios = OperatingRatios(r_sn=0.01, r_ca=1.0, r_ce=1.0)
        pol = OpenLoopPolicy(
            displacements=displacements,
            scale=SignalScale(alpha_sq=alpha_sq, slices=len(picks), grid_k=1),
            constellation=uniform_psk(num_states),
            ratios=ratios,
        )
        result = exact_error_small(pol)
        p_e, per_hypothesis = reference_exact_error(pol)
        assert len(result.y_max) == len(set(picks))
        assert result.p_e == pytest.approx(p_e, abs=1e-12)
        np.testing.assert_allclose(result.per_hypothesis, per_hypothesis, atol=1e-12)

    def test_monotone_in_displacement(self):
        """Stronger displacement separates the rates and lowers the error."""
        errors = [
            exact_error_small(uniform_policy(v, slices=2, r_ce=1.0)).p_e
            for v in (0.2, 0.5, 0.8, 1.0)
        ]
        assert all(a > b for a, b in zip(errors, errors[1:]))
