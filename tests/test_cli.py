"""Tests for the command-line interface: exit codes, schemas, determinism."""

import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pskexp
from pins import OUTPUTS
from pskexp.cli import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    build_parser,
    main,
)

COUNTEREXAMPLE_ARGS = ["--r-sn", "0.01", "--r-ca", "1", "--r-ce", "0.9"]


def run_to_file(tmp_path, name, argv):
    """Run the CLI writing to a temp file; return (exit code, file text)."""
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    text = out.read_text(encoding="utf-8") if out.exists() else None
    return code, text


def parse_csv(text):
    """Split CSV text into (header, list of row-value lists)."""
    lines = text.strip().split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


class TestExitCodes:
    """Validate the documented exit-code contract."""

    def test_success_is_zero(self, tmp_path):
        """A well-formed exponent run exits 0."""
        code, _ = run_to_file(
            tmp_path, "out.json", ["exponent"] + COUNTEREXAMPLE_ARGS
        )
        assert code == EXIT_OK

    def test_missing_ratio_flag_is_usage_error(self):
        """Neither --r-sn nor --snr given: argparse usage failure, exit 1."""
        with pytest.raises(SystemExit) as exc:
            main(["exponent", "--r-ce", "0.9"])
        assert exc.value.code == EXIT_USAGE

    def test_conflicting_ratio_flags_is_usage_error(self):
        """--r-sn and --snr are mutually exclusive."""
        with pytest.raises(SystemExit) as exc:
            main(["exponent", "--r-sn", "0.01", "--snr", "100"])
        assert exc.value.code == EXIT_USAGE

    def test_negative_dark_ratio_is_usage_error(self, capsys):
        """Invalid parameter values exit 1 with a diagnostic."""
        assert main(["exponent", "--r-sn", "-0.01"]) == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_bad_phases_is_usage_error(self, capsys):
        """An unparseable --phases list exits 1."""
        code = main(["exponent", "--r-sn", "0.01", "--phases", "0,abc"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("phases", ["0,inf", "0,nan"])
    def test_non_finite_phase_is_usage_error(self, phases, capsys):
        """A non-finite phase exits 1 with one error line."""
        code = main(["exponent", "--r-sn", "0.01", "--phases", phases])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: phases must be finite")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["sweep-photon", "sweep-energy"])
    @pytest.mark.parametrize("flag", [["--psk", "4"], ["--phases", "0,3.14"]])
    def test_sweeps_take_no_constellation_flag(self, command, flag):
        """The sweeps are BPSK-only and accept no --psk or --phases."""
        with pytest.raises(SystemExit) as exc:
            main([command, "--r-sn", "0.01"] + flag)
        assert exc.value.code == EXIT_USAGE

    def test_infeasible_budget_is_exit_two(self, capsys):
        """r_ce > r_ca**2 is a constraint conflict, exit 2."""
        code = main(["exponent", "--r-sn", "0.01", "--r-ca", "0.5", "--r-ce", "0.5"])
        assert code == EXIT_INFEASIBLE
        assert "infeasible" in capsys.readouterr().err

    def test_control_lp_failure_is_one_error_line(self, monkeypatch, capsys):
        """A control LP that reaches the pivot cap exits 1 with one error
        line, not a traceback."""
        monkeypatch.setattr("pskexp.simplex.MAX_PIVOTS", 1)
        code = main(["exponent", "--psk", "4", "--r-sn", "0.01", "--r-ce", "0.9"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: control LP failed: pivot cap 1 reached\n"

    @pytest.mark.parametrize("flags", [["--format", "json"], []], ids=["json", "text"])
    def test_verify_failure_is_exit_three(self, tmp_path, monkeypatch, flags):
        """An impossible expected value makes verify exit 3, in JSON and in
        the default text report, which then ends on the failure line."""
        monkeypatch.setattr("pskexp.exponent.EXPECTED_COUNTEREXAMPLE", 2.5)
        code, text = run_to_file(tmp_path, "verify.out", ["verify", *flags])
        assert code == EXIT_VERIFY_FAILED
        if not flags:
            assert text.splitlines()[-1] == "one or more checks FAILED"

    @pytest.mark.parametrize(
        "where, message",
        [("missing/x.json", "No such file or directory"), ("sub", "Is a directory")],
    )
    def test_out_into_missing_directory_is_usage_error(
        self, tmp_path, capsys, where, message
    ):
        """--out into a directory that does not exist, or naming a directory
        (which fails only when the written temp file is moved there), exits 1
        with one error line, and leaves no temp file behind."""
        (tmp_path / "sub").mkdir()
        out = tmp_path / where
        code = main(["exponent", "--r-sn", "0.01", "--r-ce", "0", "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: cannot write {out}: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]
        assert list((tmp_path / "sub").iterdir()) == []


class TestSnrFlag:
    """--snr is the reciprocal of --r-sn, checked where it is parsed."""

    def test_snr_writes_reciprocal_dark_ratio(self, capsys):
        """--snr 100 reports r_sn = 0.01 and the --r-sn 0.01 exponent."""
        assert main(["exponent", "--snr", "100", "--r-ce", "0.9"]) == EXIT_OK
        by_snr = json.loads(capsys.readouterr().out)
        assert by_snr["parameters"]["r_sn"] == 0.01
        assert main(["exponent", "--r-sn", "0.01", "--r-ce", "0.9"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == by_snr

    @pytest.mark.parametrize("snr", ["0", "-5", "inf", "nan"])
    def test_rejects_non_positive_or_non_finite_snr(self, snr, capsys):
        """argparse refuses the value, exit 1, before any solve."""
        with pytest.raises(SystemExit) as exc:
            main(["exponent", "--snr", snr])
        assert exc.value.code == EXIT_USAGE
        assert "argument --snr: must be positive and finite" in capsys.readouterr().err


class TestOptionTable:
    """Guard the command-line surface against options added in passing."""

    #: Every option each command takes.  A new option is added here on
    #: purpose, or this test fails.
    OPTIONS = {
        "exponent": {
            "--r-sn", "--snr", "--r-ca", "--r-ce", "--psk", "--phases",
            "--grid-k", "--out",
        },
        "sweep-photon": {"--r-sn", "--snr", "--r-ca", "--r-ce", "--out"},
        "sweep-energy": {"--r-sn", "--snr", "--r-ca", "--alpha-sq", "--out"},
        "simulate": {
            "--r-sn", "--snr", "--r-ca", "--r-ce", "--psk", "--phases",
            "--alpha-sq", "--grid-k", "--slices", "--trials", "--seed",
            "--force-zero", "--out",
        },
        "verify": {"--out", "--format"},
    }

    def test_option_table(self):
        """Each command takes exactly the options in OPTIONS (and -h)."""
        parser = build_parser()
        (commands,) = [
            action.choices
            for action in parser._actions
            if isinstance(action.choices, dict)
        ]
        got = {
            name: {
                flag
                for action in command._actions
                for flag in action.option_strings
                if flag not in ("-h", "--help")
            }
            for name, command in commands.items()
        }
        assert got == self.OPTIONS


class TestExponentCommand:
    """Validate the exponent JSON document."""

    def test_counterexample_operating_point(self, tmp_path):
        """The reference run reports beta above the documented floor."""
        code, text = run_to_file(
            tmp_path, "exp.json", ["exponent"] + COUNTEREXAMPLE_ARGS
        )
        assert code == EXIT_OK
        doc = json.loads(text)
        assert doc["schema_version"] == "2"
        assert doc["command"] == "exponent"
        assert doc["beta"] >= 1.9812
        assert doc["certified"] is True
        assert doc["method"] == "binary-exact-grid"
        assert "wall_time_s" not in doc
        for atom in doc["q_star"]:
            assert set(atom) == {"re", "im", "weight"}
        total_weight = sum(a["weight"] for a in doc["q_star"])
        assert total_weight == pytest.approx(1.0, abs=1e-9)
        (pair_doc,) = doc["per_pair"]
        assert pair_doc["pair"] == [0, 1]
        assert 0.0 < pair_doc["s_star"] <= 0.5

    def test_byte_identical_reruns(self, tmp_path):
        """The same configuration produces byte-identical documents."""
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        argv = ["exponent"] + COUNTEREXAMPLE_ARGS
        assert main(argv + ["--out", str(a)]) == EXIT_OK
        assert main(argv + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_byte_identical_reruns_of_the_general_path(self, tmp_path):
        """The M-ary path, through the in-package LP, is as deterministic."""
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        argv = ["exponent", "--psk", "8", "--grid-k", "20"] + COUNTEREXAMPLE_ARGS
        assert main(argv + ["--out", str(a)]) == EXIT_OK
        assert main(argv + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_zero_budget_gives_zero_beta(self, tmp_path):
        """r_ce = 0 forces the passive policy."""
        code, text = run_to_file(
            tmp_path, "exp0.json", ["exponent", "--r-sn", "0.01", "--r-ce", "0"]
        )
        assert code == EXIT_OK
        assert json.loads(text)["beta"] == 0.0

    def test_quaternary_uses_general_path(self, tmp_path):
        """--psk 4 routes to the certified coordinate-ascent optimizer."""
        code, text = run_to_file(
            tmp_path,
            "exp4.json",
            ["exponent", "--r-sn", "0.01", "--r-ce", "0.5", "--psk", "4",
             "--grid-k", "8"],
        )
        assert code == EXIT_OK
        doc = json.loads(text)
        assert doc["method"] == "general-coordinate-ascent"
        assert doc["certified"] is True
        assert len(doc["per_pair"]) == 6

    def test_huge_phase_is_not_snapped_to_a_quarter_point(self, capsys):
        """Phase 1e300 reduces to about 5.56 rad, far from a quarter point;
        snapped on the unreduced phase it read beta = 0."""
        code = main(["exponent", "--r-sn", "0.01", "--phases", "0,1e300"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["beta"] > 1.0

    def test_writes_to_stdout_without_out(self, capsys):
        """Omitting --out streams the document to stdout."""
        code = main(["exponent", "--r-sn", "0.01", "--r-ce", "0"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["beta"] == 0.0

    def test_rejects_csv_format(self, capsys):
        """The exponent document is JSON-only and takes no --format."""
        with pytest.raises(SystemExit) as exc:
            main(["exponent", "--r-sn", "0.01", "--format", "csv"])
        assert exc.value.code == EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_rejects_zero_grid_k(self):
        """--grid-k below 1 is a usage error, also on the binary path."""
        with pytest.raises(SystemExit) as exc:
            main(["exponent", "--r-sn", "0.01", "--grid-k", "0"])
        assert exc.value.code == EXIT_USAGE


@pytest.fixture(scope="module")
def photon_sweep(tmp_path_factory):
    """One high-SNR photon sweep shared across assertions."""
    out = tmp_path_factory.mktemp("sweep") / "photon.csv"
    code = main(["sweep-photon", "--snr", "1e6", "--r-ce", "1.0", "--out", str(out)])
    return code, out.read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def energy_sweep(tmp_path_factory):
    """One low-SNR energy sweep shared across assertions."""
    out = tmp_path_factory.mktemp("sweep") / "energy.csv"
    code = main(["sweep-energy", "--r-sn", "1e-2", "--out", str(out)])
    return code, out.read_text(encoding="utf-8")


class TestSweepPhoton:
    """Validate the photon-number sweep CSV."""

    def test_header_and_shape(self, photon_sweep):
        """Exact header string and one row per grid point."""
        code, text = photon_sweep
        assert code == EXIT_OK
        header, rows = parse_csv(text)
        assert header == "alpha_sq,bound_ours,helstrom,homodyne"
        assert len(rows) == 16
        assert text.endswith("\n")

    def test_probability_ranges(self, photon_sweep):
        """All error columns lie in (0, 1]."""
        _, text = photon_sweep
        _, rows = parse_csv(text)
        for row in rows:
            for value in row[1:]:
                assert 0.0 < float(value) <= 1.0

    def test_high_snr_crossover_before_four_photons(self, photon_sweep):
        """At r_sn = 1e-6 the bound beats homodyne by alpha_sq = 4."""
        _, text = photon_sweep
        _, rows = parse_csv(text)
        last = rows[-1]
        assert float(last[0]) == pytest.approx(4.0)
        assert float(last[1]) < float(last[3])

    def test_rejects_json_format(self, capsys):
        """Sweeps are CSV-only and take no --format."""
        with pytest.raises(SystemExit) as exc:
            main(["sweep-photon", "--snr", "1e6", "--format", "json"])
        assert exc.value.code == EXIT_USAGE

    def test_rejects_format_before_solving(self, monkeypatch):
        """A stray --format is refused before the binary solve runs."""

        def solve(ratios):
            raise AssertionError("optimize_binary ran")

        monkeypatch.setattr("pskexp.cli.optimize_binary", solve)
        with pytest.raises(SystemExit) as exc:
            main(["sweep-photon", "--snr", "1e6", "--format", "json"])
        assert exc.value.code == EXIT_USAGE

    def test_byte_identical_reruns(self, tmp_path):
        """The same configuration produces byte-identical files."""
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        argv = ["sweep-photon", "--r-sn", "0.01", "--r-ce", "0.9"]
        assert main(argv + ["--out", str(a)]) == EXIT_OK
        assert main(argv + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


class TestSweepEnergy:
    """Validate the energy-budget sweep CSV."""

    @pytest.mark.parametrize("alpha_sq", ["-1", "nan"])
    def test_rejects_bad_alpha_sq(self, alpha_sq, capsys):
        """--alpha-sq must be a positive finite photon number."""
        with pytest.raises(SystemExit) as exc:
            main(["sweep-energy", "--r-sn", "0.01", "--alpha-sq", alpha_sq])
        assert exc.value.code == EXIT_USAGE
        assert "--alpha-sq" in capsys.readouterr().err

    def test_header_and_shape(self, energy_sweep):
        """Exact header string and the full 21-point budget grid."""
        code, text = energy_sweep
        assert code == EXIT_OK
        header, rows = parse_csv(text)
        assert header == "r_ce,beta,bound_ours,q_star_summary"
        assert len(rows) == 21
        np.testing.assert_allclose(
            [float(r[0]) for r in rows], np.linspace(0.0, 1.0, 21), atol=1e-15
        )

    def test_beta_nondecreasing(self, energy_sweep):
        """A larger energy budget never hurts the exponent."""
        _, text = energy_sweep
        _, rows = parse_csv(text)
        betas = [float(r[1]) for r in rows]
        assert all(b2 >= b1 - 1e-9 for b1, b2 in zip(betas, betas[1:]))
        assert betas[0] == 0.0
        assert betas[-1] == pytest.approx(2.14595769827296744, abs=1e-6)

    def test_log_bound_convex_near_full_budget(self, energy_sweep):
        """At r_sn = 1e-2 the log-bound bends convexly on [0.9, 1.0]."""
        _, text = energy_sweep
        _, rows = parse_csv(text)
        lo, mid, hi = (math.log(float(r[2])) for r in rows[-3:])
        assert float(rows[-3][0]) == pytest.approx(0.9, abs=1e-12)
        assert lo - 2.0 * mid + hi > 1e-3

    def test_q_star_summary_parses(self, energy_sweep):
        """Atom summaries decode as re|im|weight triples summing to one."""
        _, text = energy_sweep
        _, rows = parse_csv(text)
        for row in rows:
            atoms = [tuple(map(float, a.split("|"))) for a in row[3].split(";")]
            assert sum(w for _, _, w in atoms) == pytest.approx(1.0, abs=1e-9)

    def test_grid_respects_peak_constraint(self, tmp_path):
        """With r_ca < 1 the grid truncates at r_ca**2."""
        code, text = run_to_file(
            tmp_path,
            "energy_small.csv",
            ["sweep-energy", "--r-sn", "0.01", "--r-ca", "0.7"],
        )
        assert code == EXIT_OK
        _, rows = parse_csv(text)
        assert len(rows) == 10
        assert max(float(r[0]) for r in rows) <= 0.49 + 1e-12

    def test_small_disk_needs_no_budget(self, tmp_path):
        """The sweep sets its own budgets, so a disk with r_ca**2 below the
        --r-ce default of the other commands still sweeps: r_ca 0.5 gives
        the six budgets up to 0.25."""
        code, text = run_to_file(
            tmp_path,
            "energy_half.csv",
            ["sweep-energy", "--r-sn", "0.01", "--r-ca", "0.5"],
        )
        assert code == EXIT_OK
        _, rows = parse_csv(text)
        assert len(rows) == 6
        assert float(rows[-1][0]) == 0.25


class TestSimulate:
    """Validate the Monte Carlo bound-validation command."""

    SMALL = [
        "simulate", "--r-sn", "0.01", "--r-ce", "0.9", "--alpha-sq", "2",
        "--slices", "20", "--trials", "2000", "--seed", "3",
    ]

    def test_bound_validation_document(self, tmp_path):
        """A modest run reports the bound comparison and passes it."""
        code, text = run_to_file(tmp_path, "sim.json", self.SMALL)
        assert code == EXIT_OK
        doc = json.loads(text)
        assert doc["schema_version"] == "2"
        assert doc["command"] == "simulate"
        assert doc["bound_satisfied"] is True
        assert 0.0 <= doc["p_e"] <= 1.0
        assert doc["bound"] == pytest.approx(
            0.5 * math.exp(-2.0 * doc["beta_realized"]), rel=1e-12
        )
        assert doc["parameters"]["force_zero"] is False
        assert doc["mean_energy"] <= 0.9 + 1e-12

    @pytest.mark.parametrize("alpha_sq", ["-1", "nan"])
    def test_rejects_bad_alpha_sq(self, alpha_sq):
        """--alpha-sq must be a positive finite photon number."""
        argv = list(self.SMALL)
        argv[argv.index("--alpha-sq") + 1] = alpha_sq
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE

    def test_byte_identical_reruns(self, tmp_path):
        """Identical config and seed give byte-identical documents."""
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(self.SMALL + ["--out", str(a)]) == EXIT_OK
        assert main(self.SMALL + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_force_zero_policy(self, tmp_path):
        """The forced passive policy sits at the tie-convention error 1/2."""
        code, text = run_to_file(
            tmp_path,
            "zero.json",
            ["simulate", "--r-sn", "0.01", "--r-ce", "0.9", "--slices", "10",
             "--trials", "500", "--force-zero"],
        )
        assert code == EXIT_OK
        doc = json.loads(text)
        assert doc["p_e"] == 0.5
        assert doc["beta_realized"] == 0.0
        assert doc["bound"] == 0.5
        assert doc["bound_satisfied"] is True

    def test_rejects_too_few_trials(self, capsys):
        """Fewer than 100 trials per hypothesis is refused."""
        code = main(
            ["simulate", "--r-sn", "0.01", "--r-ce", "0.9", "--trials", "50"]
        )
        assert code == EXIT_USAGE

    def test_rejects_csv_format(self, capsys):
        """The simulation document is JSON-only and takes no --format."""
        with pytest.raises(SystemExit) as exc:
            main(self.SMALL + ["--format", "csv"])
        assert exc.value.code == EXIT_USAGE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_rejects_seed_outside_64_bits(self, seed, capsys):
        """A seed outside [0, 2**64) is a usage error: the stream keeps 64
        bits of it, so -1 would replay 2**64 - 1."""
        argv = list(self.SMALL)
        argv[argv.index("--seed") + 1] = seed
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        assert "--seed" in capsys.readouterr().err

    def test_rejects_zero_grid_k(self):
        """--grid-k below 1 is a usage error at parse time."""
        with pytest.raises(SystemExit) as exc:
            main(self.SMALL + ["--grid-k", "0"])
        assert exc.value.code == EXIT_USAGE


class TestVerify:
    """Validate the structural-check command."""

    def test_default_run_passes(self, tmp_path):
        """Default thresholds pass every check in human-readable form."""
        code, text = run_to_file(tmp_path, "verify.txt", ["verify"])
        assert code == EXIT_OK
        assert "all checks passed" in text
        assert text.count("[PASS]") == 4
        assert "[FAIL]" not in text
        # The bookkeeping discrepancy note is part of the report.
        assert "2.1460" in text
        assert "2.1359" in text

    def test_rejects_csv_format(self, monkeypatch, capsys):
        """verify writes JSON or text; --format csv is refused before the
        checks run."""

        def checks(*args, **kwargs):
            raise AssertionError("verify_claims ran")

        monkeypatch.setattr("pskexp.cli.verify_claims", checks)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--format", "csv"])
        assert exc.value.code == EXIT_USAGE
        assert "invalid choice: 'csv'" in capsys.readouterr().err

    def test_perturbed_json_fails_interior_mass_check(self, tmp_path, monkeypatch):
        """An impossible expectation fails exactly the optimizer check."""
        monkeypatch.setattr("pskexp.exponent.EXPECTED_COUNTEREXAMPLE", 2.5)
        code, text = run_to_file(
            tmp_path, "verify.json", ["verify", "--format", "json"]
        )
        assert code == EXIT_VERIFY_FAILED
        doc = json.loads(text)
        assert doc["schema_version"] == "2"
        assert doc["all_passed"] is False
        assert doc["parameters"]["expected_counterexample"] == 2.5
        by_name = {c["name"]: c["passed"] for c in doc["checks"]}
        failed = [name for name, passed in by_name.items() if not passed]
        assert failed == ["interior-mass-beats-time-sharing"]
        assert by_name["interior-mass-beats-time-sharing"] is False
        assert by_name["energy-convexity-margin-positive"] is True
        assert by_name["vanishing-dark-time-sharing"] is True
        assert any("2.1359" in note for note in doc["notes"])


def child_env(**overrides: str) -> dict:
    """This process's environment, with ``overrides``, for a child that
    imports this pskexp."""
    src = str(Path(pskexp.__file__).resolve().parents[1])
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_probe(code: str) -> str:
    """Run Python code in a fresh interpreter that imports this pskexp."""
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip()


class TestStartup:
    """Validate what every CLI process pays before it does any work."""

    def test_cli_import_leaves_scipy_stats_unloaded(self):
        """The CLI does not import scipy.stats at start-up."""
        probe = "import sys, pskexp.cli; print('scipy.stats' in sys.modules)"
        assert run_probe(probe) == "False"

    def test_exact_oracle_leaves_scipy_stats_unloaded(self):
        """The exact oracle computes its Poisson tails without scipy.stats."""
        probe = (
            "import sys\n"
            "from pskexp.constellation import OperatingRatios, SignalScale, bpsk\n"
            "from pskexp.receiver import OpenLoopPolicy, exact_error_small\n"
            "policy = OpenLoopPolicy((1 + 0j,), SignalScale(2.0, 1, 1), bpsk(),\n"
            "                        OperatingRatios(0.01, 1.0, 1.0))\n"
            "exact_error_small(policy)\n"
            "print('scipy.stats' in sys.modules)"
        )
        assert run_probe(probe) == "False"

    def test_cli_import_leaves_scipy_optimize_unloaded(self):
        """The CLI does not import scipy.optimize at start-up (no command
        imports it since the control LP is solved in-package)."""
        probe = "import sys, pskexp.cli; print('scipy.optimize' in sys.modules)"
        assert run_probe(probe) == "False"

    def test_mary_commands_leave_scipy_unloaded(self):
        """M-ary exponent and simulate commands import no part of scipy, nor
        numpy.ma (about 16 ms and 1.5 MB per process)."""
        probe = (
            "import contextlib, io, sys\n"
            "from pskexp.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    main(['exponent', '--psk', '8', '--grid-k', '10', '--r-sn', '0.01',\n"
            "          '--r-ce', '0.9'])\n"
            "    main(['simulate', '--psk', '4', '--r-sn', '0.01', '--r-ce', '0.9',\n"
            "          '--slices', '10', '--trials', '200'])\n"
            "print('scipy' in sys.modules, 'numpy.ma' in sys.modules)"
        )
        assert run_probe(probe) == "False False"

    def test_crosscheck_path_leaves_scipy_optimize_unloaded(self):
        """Building a policy, the exact oracle and Monte Carlo run no solver."""
        probe = (
            "import sys\n"
            "from pskexp.constellation import OperatingRatios, SignalScale, bpsk\n"
            "from pskexp.receiver import OpenLoopPolicy, exact_error_small, monte_carlo\n"
            "policy = OpenLoopPolicy((0.5 + 0j,) * 2, SignalScale(2.0, 2, 1), bpsk(),\n"
            "                        OperatingRatios(0.01, 1.0, 1.0))\n"
            "exact_error_small(policy)\n"
            "monte_carlo(policy, 100, seed=1)\n"
            "print('scipy.optimize' in sys.modules)"
        )
        assert run_probe(probe) == "False"

    def test_binary_commands_leave_scipy_optimize_unloaded(self):
        """The binary optimizer, the structural checks and the binary CLI
        commands (paper-point simulate included) run no scipy solver."""
        probe = (
            "import contextlib, io, sys\n"
            "from pskexp import OperatingRatios, optimize_binary\n"
            "from pskexp.cli import main\n"
            "from pskexp.exponent import verify_claims\n"
            "optimize_binary(OperatingRatios(1e-4, 1.0, 0.3))\n"
            "verify_claims()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    main(['exponent', '--r-sn', '0.01', '--r-ca', '1', '--r-ce', '0.9'])\n"
            "    main(['sweep-photon', '--snr', '100'])\n"
            "    main(['simulate', '--r-sn', '0.01', '--r-ca', '1', '--r-ce', '0.9',\n"
            "          '--alpha-sq', '2', '--slices', '200', '--trials', '200'])\n"
            "print('scipy.optimize' in sys.modules)"
        )
        assert run_probe(probe) == "False"

    def test_solvers_are_called_through_the_exponent_module(self, monkeypatch):
        """optimize_general looks up linprog on pskexp.exponent at call time,
        so a wrapper put there (as the benchmark tracer does) sees every LP;
        optimize_binary calls neither linprog nor minimize."""
        from pskexp import exponent
        from pskexp.constellation import OperatingRatios, uniform_psk

        calls = []
        solver = exponent.linprog

        def spy(*args, **kwargs):
            calls.append("linprog")
            return solver(*args, **kwargs)

        monkeypatch.setattr(exponent, "linprog", spy)
        monkeypatch.setattr(
            exponent, "minimize", lambda *args, **kwargs: calls.append("minimize")
        )
        ratios = OperatingRatios(r_sn=0.01, r_ca=1.0, r_ce=0.9)
        exponent.optimize_general(uniform_psk(4), ratios, grid_k=4)
        assert set(calls) == {"linprog"}
        calls.clear()
        exponent.optimize_binary(ratios)
        exponent.optimize_binary(OperatingRatios(r_sn=1e-4, r_ca=1.0, r_ce=0.3))
        assert calls == []


#: Command lines at the edges of the accepted range, with the exit code
#: each now gives.  Each once failed: a pivot cap after a primal/dual
#: ping-pong (4-PSK at r_sn 0.1), a refused second moment a rounding step
#: over a 9e9 budget, a budget above r_ca**2 at r_ca 1e-6 that was accepted,
#: pivot caps at r_ca 1e-6, v-grids of 763 MiB to 72.8 TiB, and float
#: overflows at r_ca 1e160 and 1.7e308 (the last two with a traceback).
#: The 64-, 128- and 300-PSK lines keep large M in bounds: while every pair
#: row went into the simplex, 128-PSK took 17.5 s and 1.5 GiB, and 300-PSK
#: asked for a 15 GiB LP matrix.  The 200-slice ``simulate`` line realized a
#: policy whose repair loop and constructor judged its energy with two
#: formulas a rounding step apart, and the constructor refused it.  The three
#: strict xfails are M-ary inputs a seeded random sweep found still exiting 1.
RANGE_CASES = [
    ("exponent --psk 4 --r-sn 0.1 --r-ce 0.9", EXIT_OK),
    ("exponent --psk 4 --r-sn 0.1 --r-ce 0.9 --grid-k 40", EXIT_OK),
    ("simulate --psk 4 --r-sn 0.1 --r-ce 0.9", EXIT_OK),
    ("exponent --psk 4 --grid-k 8 --r-sn 0.01 --r-ca 1e5 --r-ce 9e9", EXIT_OK),
    ("exponent --r-sn 0.01 --r-ca 1e-6 --r-ce 1.9e-12", EXIT_INFEASIBLE),
    ("exponent --psk 4 --grid-k 8 --r-ca 1e-6 --r-ce 9e-13 --r-sn 1e-300", EXIT_OK),
    ("exponent --psk 4 --grid-k 8 --r-ca 1e-6 --r-ce 9e-13 --r-sn 1e-30", EXIT_OK),
    ("exponent --psk 4 --grid-k 8 --r-ca 1e-6 --r-ce 9e-13 --r-sn 1e-12", EXIT_OK),
    ("exponent --r-sn 1e12 --r-ca 1e10 --r-ce 0.9", EXIT_OK),
    ("exponent --r-sn 0.01 --r-ca 1e10 --r-ce 9e19", EXIT_OK),
    ("exponent --psk 2 --r-sn 0.01 --r-ca 1e5 --r-ce 9e9", EXIT_OK),
    ("exponent --r-sn 1e30 --r-ca 1e10 --r-ce 0.9", EXIT_OK),
    ("exponent --psk 64 --r-sn 0.01 --r-ce 0.9", EXIT_OK),
    ("exponent --psk 128 --grid-k 8 --r-sn 0.01 --r-ce 0.9", EXIT_OK),
    ("exponent --psk 300 --grid-k 8 --r-sn 0.01 --r-ce 0.9", EXIT_OK),
    ("exponent --r-sn 0.01 --r-ca 1e160 --r-ce 1e307", EXIT_USAGE),
    ("exponent --r-sn 0.01 --r-ca 1.7e308 --r-ce 1e300", EXIT_USAGE),
    ("simulate --r-sn 0.02 --r-ce 0.2173001549950041 --slices 200 --trials 1000", EXIT_OK),
    pytest.param(
        "exponent --psk 8 --grid-k 8 --r-sn 0.12816468504764403 --r-ca 0.8 "
        "--r-ce 0.454842841827529",
        EXIT_OK,
        marks=pytest.mark.xfail(
            strict=True,
            reason="the basis inverse divides by zero, numpy warnings reach "
            "stderr, and the run ends 'control LP failed: infeasible'",
        ),
    ),
    pytest.param(
        "exponent --psk 6 --grid-k 6 --r-sn 0.00825309190163809 --r-ca 1.5 "
        "--r-ce 1.2019026054561004",
        EXIT_OK,
        marks=pytest.mark.xfail(
            strict=True, reason="control LP failed: unbounded"
        ),
    ),
    pytest.param(
        "exponent --psk 8 --grid-k 20 --r-sn 0.0030132021032696628 --r-ca 0.8 "
        "--r-ce 0.5710660303238018",
        EXIT_OK,
        marks=pytest.mark.xfail(
            strict=True,
            reason="second moment 0.5710660303244186 exceeds budget "
            "0.5710660303238018: dropping LP dust after the budget fix and "
            "renormalizing lifts the energy past the 1e-12 slack",
        ),
    ),
]

#: A log grid over the accepted range: binary and 4-PSK (grid_k 8)
#: ``exponent`` and ``simulate`` at each (r_sn, r_ca, r_ce), with r_ce at
#: 1e-12 * r_ca**2, 0.9 * min(1, r_ca**2) and r_ca**2.
RANGE_GRID = [
    f"{command} --r-sn {r_sn!r} --r-ca {r_ca!r} --r-ce {r_ce!r}"
    for command in (
        "exponent",
        "exponent --psk 4 --grid-k 8",
        "simulate --slices 20 --trials 1000",
        "simulate --psk 4 --grid-k 8 --slices 20 --trials 1000",
    )
    for r_sn in (1e-300, 1e-8, 1.0, 1e12)
    for r_ca in (1e-6, 1.0, 1e10)
    for r_ce in (1e-12 * r_ca**2, 0.9 * min(1.0, r_ca**2), r_ca**2)
]

#: Address space and wall time each range case may use.
RANGE_ADDRESS_SPACE = 3 << 30
RANGE_TIMEOUT_S = 30


def _cap_address_space():
    resource.setrlimit(
        resource.RLIMIT_AS, (RANGE_ADDRESS_SPACE, RANGE_ADDRESS_SPACE)
    )


def assert_feasible_records(records, params):
    """A JSON distribution is one, inside the disk and within the budget,
    each to 1e-12 of the bound."""
    points = np.array([complex(a["re"], a["im"]) for a in records])
    weights = np.array([a["weight"] for a in records])
    assert np.all(weights > 0.0) and abs(weights.sum() - 1.0) <= 1e-12
    assert np.all(np.abs(points) <= params["r_ca"] * (1.0 + 1e-12))
    assert weights @ np.abs(points) ** 2 <= params["r_ce"] * (1.0 + 1e-12)


#: Runs the command lines read from stdin (a JSON list) through ``main``
#: one after another, and prints [exit code, stdout, stderr] for each; an
#: exception that escapes ``main`` is reported as exit code None with its
#: traceback.  Warnings are reset per line, so each shows as it would in a
#: process of its own.
RANGE_RUNNER = """
import contextlib, io, json, sys, traceback, warnings
from pskexp.cli import main
results = []
for line in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(line.split())
            except SystemExit as exc:
                code = exc.code
            except BaseException:
                code = None
                err.write(traceback.format_exc())
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def run_capped(argv, stdin=None):
    """Run ``python argv`` with this pskexp under the range cases' address
    space cap and timeout, BLAS at one thread."""
    return subprocess.run(
        [sys.executable, *argv],
        env=child_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"),
        input=stdin,
        capture_output=True,
        text=True,
        timeout=RANGE_TIMEOUT_S,
        preexec_fn=_cap_address_space,
    )


def assert_answers(code, stdout, stderr):
    """Exit 0 with finite, in-range numbers, or exit 1 or 2 with one error
    line and no traceback."""
    if code != EXIT_OK:
        assert code in (EXIT_USAGE, EXIT_INFEASIBLE), stderr
        assert stderr.count("\n") == 1 and "Traceback" not in stderr
        return
    doc = json.loads(stdout)
    params = doc["parameters"]
    if doc["command"] == "exponent":
        assert math.isfinite(doc["beta"]) and doc["beta"] >= 0.0
        assert all(math.isfinite(e["value"]) for e in doc["per_pair"])
        assert_feasible_records(doc["q_star"], params)
    else:
        assert 0.0 <= doc["p_e"] <= 1.0
        assert math.isfinite(doc["beta_realized"]) and doc["beta_realized"] >= 0.0
        assert_feasible_records(doc["policy_type"], params)


def run_lines(lines):
    """Each command line's [exit code, stdout, stderr], all run through
    ``RANGE_RUNNER`` in one child under the address-space cap and timeout."""
    out = run_capped(["-c", RANGE_RUNNER], stdin=json.dumps(lines))
    assert out.returncode == 0, out.stderr
    return dict(zip(lines, json.loads(out.stdout)))


@pytest.fixture(scope="module")
def range_grid_results():
    """Each ``RANGE_GRID`` line's [exit code, stdout, stderr]."""
    return run_lines(RANGE_GRID)


class TestRange:
    """Every accepted input answers in bounded time and memory."""

    @pytest.mark.parametrize("line, code", RANGE_CASES)
    def test_answers_without_a_traceback(self, line, code):
        """Under a 3 GiB address-space cap and a 30 s timeout the command
        exits 0 with finite, in-range numbers, or exits 1 or 2 with one
        error line: here with the exit code ``code``."""
        out = run_capped(["-m", "pskexp.cli", *line.split()])
        assert out.returncode == code, out.stderr
        assert_answers(out.returncode, out.stdout, out.stderr)

    @pytest.mark.parametrize("line", RANGE_GRID)
    def test_grid_answers_without_a_traceback(self, line, range_grid_results):
        """Every grid point answers as a range case does."""
        assert_answers(*range_grid_results[line])

    def test_exact_oracle_refuses_a_huge_box(self):
        """Under the same cap, the exact oracle refuses a one-group BPSK
        policy at alpha_sq 1e8 (a mean of 4e8 counts) with its box error."""
        probe = (
            "from pskexp.constellation import OperatingRatios, SignalScale, bpsk\n"
            "from pskexp.receiver import OpenLoopPolicy, exact_error_small\n"
            "exact_error_small(OpenLoopPolicy((1 + 0j,), SignalScale(1e8, 1, 1),\n"
            "                  bpsk(), OperatingRatios(0.01, 1.0, 1.0)))\n"
        )
        last = run_capped(["-c", probe]).stderr.splitlines()[-1]
        assert last.startswith("ValueError: truncation box has at least")


class TestPinnedOutputs:
    """What the CLI prints, pinned line by line."""

    def test_every_line_prints_its_pinned_output(self):
        """Every command line of ``pinned_outputs.json`` (``pins.OUTPUTS``)
        exits, prints and warns as the file holds, on the machine that
        derived it."""
        assert OUTPUTS.moved() == []


#: Command lines whose output must not depend on the number of BLAS threads:
#: a 16-PSK solve at K = 40, whose LPs refactorize their bases, and a 4-PSK
#: simulation, which solves, realizes and samples its policy.
BLAS_THREAD_LINES = [
    "exponent --psk 16 --grid-k 40 --r-sn 0.005 --r-ce 0.9",
    "simulate --psk 4 --r-sn 0.01 --r-ce 0.9 --slices 50 --trials 20000 --seed 5",
]


class TestBlasThreads:
    """``linprog`` inverts its bases without LAPACK, so every output is the
    same for any number of BLAS threads."""

    @pytest.mark.parametrize("line", BLAS_THREAD_LINES)
    def test_one_and_two_threads_print_the_same(self, line):
        """The command prints the same stdout with BLAS and OpenMP at one
        thread and at two."""
        stdouts = [
            subprocess.run(
                [sys.executable, "-m", "pskexp.cli", *line.split()],
                env=child_env(OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n),
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for n in ("1", "2")
        ]
        assert stdouts[0] == stdouts[1]
