"""Tests for the command-line interface: exit codes, schemas, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pskexp
from pskexp.cli import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
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

    def test_verify_failure_is_exit_three(self, tmp_path):
        """An impossible expected value makes verify exit 3."""
        code, _ = run_to_file(
            tmp_path,
            "verify.json",
            ["verify", "--expected-counterexample", "2.5", "--format", "json"],
        )
        assert code == EXIT_VERIFY_FAILED


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

    def test_writes_to_stdout_without_out(self, capsys):
        """Omitting --out streams the document to stdout."""
        code = main(["exponent", "--r-sn", "0.01", "--r-ce", "0"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["beta"] == 0.0

    def test_rejects_csv_format(self, capsys):
        """The exponent document is JSON-only."""
        code = main(["exponent", "--r-sn", "0.01", "--format", "csv"])
        assert code == EXIT_USAGE
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
    code = main(
        ["sweep-energy", "--r-sn", "1e-2", "--r-ce", "1.0", "--out", str(out)]
    )
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
        """Sweeps are CSV-only."""
        code = main(["sweep-photon", "--snr", "1e6", "--format", "json"])
        assert code == EXIT_USAGE

    def test_rejects_format_before_solving(self, monkeypatch):
        """A wrong --format is refused before the binary solve runs."""

        def solve(ratios):
            raise AssertionError("optimize_binary ran")

        monkeypatch.setattr("pskexp.cli.optimize_binary", solve)
        code = main(["sweep-photon", "--snr", "1e6", "--format", "json"])
        assert code == EXIT_USAGE

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
            ["sweep-energy", "--r-sn", "0.01", "--r-ca", "0.7", "--r-ce", "0.4"],
        )
        assert code == EXIT_OK
        _, rows = parse_csv(text)
        assert len(rows) == 10
        assert max(float(r[0]) for r in rows) <= 0.49 + 1e-12


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
        """The simulation document is JSON-only."""
        code = main(self.SMALL + ["--format", "csv"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().out == ""

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
        assert main(["verify", "--format", "csv"]) == EXIT_USAGE
        assert "verify emits JSON or text" in capsys.readouterr().err

    def test_perturbed_json_fails_interior_mass_check(self, tmp_path):
        """An impossible expectation fails exactly the optimizer check."""
        code, text = run_to_file(
            tmp_path,
            "verify.json",
            ["verify", "--expected-counterexample", "2.5", "--format", "json"],
        )
        assert code == EXIT_VERIFY_FAILED
        doc = json.loads(text)
        assert doc["schema_version"] == "2"
        assert doc["all_passed"] is False
        by_name = {c["name"]: c["passed"] for c in doc["checks"]}
        assert by_name["interior-mass-beats-time-sharing"] is False
        assert by_name["energy-convexity-margin-positive"] is True
        assert by_name["vanishing-dark-time-sharing"] is True
        assert any("2.1359" in note for note in doc["notes"])


def run_probe(code: str) -> str:
    """Run Python code in a fresh interpreter that imports this pskexp."""
    src = str(Path(pskexp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
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
        """M-ary exponent and simulate commands import no part of scipy."""
        probe = (
            "import contextlib, io, sys\n"
            "from pskexp.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    main(['exponent', '--psk', '8', '--grid-k', '10', '--r-sn', '0.01',\n"
            "          '--r-ce', '0.9'])\n"
            "    main(['simulate', '--psk', '4', '--r-sn', '0.01', '--r-ce', '0.9',\n"
            "          '--slices', '10', '--trials', '200'])\n"
            "print('scipy' in sys.modules)"
        )
        assert run_probe(probe) == "False"

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
            "verify_claims(OperatingRatios(1e-6, 1.0, 0.9),\n"
            "              OperatingRatios(1e-2, 1.0, 0.9))\n"
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
