"""Command-line interface: exponents, figure sweeps, simulation, verification.

Commands
--------
exponent      optimal open-loop exponent for the configured operating point
sweep-photon  CSV of error-probability curves versus mean photon number
sweep-energy  CSV of exponent and bound versus the energy budget
simulate      Monte Carlo validation of the exponent bound for one policy
verify        structural checks (convexity margin, tilt range, optimizer
              vs time-sharing) at fixed reference points

``exponent`` and ``simulate`` write JSON and the sweeps write CSV; ``verify``
writes a text report, or JSON with ``--format json``.  Exit codes: 0
success, 1 malformed arguments, an unwritable ``--out``, a failed control
LP, or a solve that runs out of memory or overflows a float, 2 infeasible
constraints, 3 verification failure.  Outputs are
deterministic for a fixed seed; files are written atomically (temp file +
rename).  CSV is UTF-8 with LF line endings and full-precision scientific
notation; JSON documents carry a schema_version field and sorted keys.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict
from typing import Optional, Sequence

import numpy as np

from . import exponent
from .baselines import helstrom_binary, homodyne_binary, theorem_bound
from .constellation import (
    InfeasibleRatiosError,
    OperatingRatios,
    PskConstellation,
    SignalScale,
    bpsk,
    uniform_psk,
)
from .exponent import (
    ControlDistribution,
    ControlLPError,
    ExponentSolution,
    exponent_of,
    optimize_binary,
    optimize_general,
    verify_claims,
)
from .receiver import monte_carlo, realize_policy

SCHEMA_VERSION = "2"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY_FAILED = 3


class _Parser(argparse.ArgumentParser):
    """argparse flavor whose usage errors exit with code 1, not 2."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _add_ratio_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--r-sn", type=float, help="dark-count rate ratio (dark rate / alpha^2)"
    )
    group.add_argument(
        "--snr",
        type=_positive_float,
        help="signal-to-noise ratio (reciprocal of --r-sn)",
    )
    parser.add_argument(
        "--r-ca", type=float, default=1.0, help="control disk radius (default 1)"
    )


def _add_budget_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--r-ce", type=float, default=1.0, help="mean control energy budget (default 1)"
    )


def _add_constellation_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--psk", type=int, metavar="M", help="uniform M-ary PSK (default 2)"
    )
    group.add_argument(
        "--phases",
        type=str,
        metavar="a,b,...",
        help="explicit phases in radians, comma-separated",
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {value}")
    return value


def _add_grid_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--grid-k",
        type=_positive_int,
        default=20,
        help="control grid fineness (default 20)",
    )


def _add_alpha_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--alpha-sq",
        type=_positive_float,
        default=2.0,
        help="mean photon number (default 2)",
    )


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"must lie in [0, 2**64), got {value}")
    return value


def _add_out_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", type=str, default=None, help="output file path")


def build_parser() -> _Parser:
    parser = _Parser(prog="pskexp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser(
        "exponent", help="optimal constrained open-loop exponent"
    )
    _add_ratio_flags(p_exp)
    _add_budget_flag(p_exp)
    _add_constellation_flags(p_exp)
    _add_grid_flag(p_exp)
    _add_out_flag(p_exp)

    p_photon = sub.add_parser(
        "sweep-photon", help="error curves vs mean photon number (binary)"
    )
    _add_ratio_flags(p_photon)
    _add_budget_flag(p_photon)
    _add_out_flag(p_photon)

    p_energy = sub.add_parser(
        "sweep-energy", help="exponent and bound vs energy budget (binary)"
    )
    _add_ratio_flags(p_energy)
    # No --r-ce: the sweep sets its own budgets, from 0 up.
    p_energy.set_defaults(r_ce=0.0)
    _add_alpha_flag(p_energy)
    _add_out_flag(p_energy)

    p_sim = sub.add_parser(
        "simulate", help="Monte Carlo validation of the exponent bound"
    )
    _add_ratio_flags(p_sim)
    _add_budget_flag(p_sim)
    _add_constellation_flags(p_sim)
    _add_alpha_flag(p_sim)
    _add_grid_flag(p_sim)
    p_sim.add_argument(
        "--slices", type=int, default=200, help="time slices N (default 200)"
    )
    p_sim.add_argument(
        "--trials",
        type=int,
        default=100_000,
        help="Monte Carlo trials per hypothesis (default 100000)",
    )
    p_sim.add_argument(
        "--seed", type=_seed, default=0, help="RNG seed in [0, 2**64) (default 0)"
    )
    p_sim.add_argument(
        "--force-zero",
        action="store_true",
        help="simulate the all-zero-displacement policy instead of the optimizer",
    )
    _add_out_flag(p_sim)

    p_ver = sub.add_parser("verify", help="run the structural checks")
    _add_out_flag(p_ver)
    p_ver.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default text)",
    )

    return parser


def _ratios(args: argparse.Namespace) -> OperatingRatios:
    r_sn = args.r_sn if args.snr is None else 1.0 / args.snr
    return OperatingRatios(r_sn=r_sn, r_ca=args.r_ca, r_ce=args.r_ce)


def _constellation(args: argparse.Namespace) -> PskConstellation:
    if args.phases is not None:
        try:
            phases = tuple(float(p) for p in args.phases.split(","))
        except ValueError as exc:
            raise ValueError(f"bad --phases value: {exc}") from exc
        return PskConstellation(phases=phases)
    m = args.psk if args.psk is not None else 2
    if m == 2:
        return bpsk()
    return uniform_psk(m)


def _optimize(
    constellation: PskConstellation, ratios: OperatingRatios, grid_k: int
) -> ExponentSolution:
    if constellation.phases == bpsk().phases:
        return optimize_binary(ratios)
    return optimize_general(constellation, ratios, grid_k=grid_k)


def _q_summary(q: ControlDistribution) -> str:
    return ";".join(
        f"{p.real:.17e}|{p.imag:.17e}|{w:.17e}" for p, w in q.atoms
    )


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pskexp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_doc(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _csv_doc(header: str, rows: list) -> str:
    return "\n".join([header] + rows) + "\n"


def cmd_exponent(args: argparse.Namespace) -> int:
    ratios = _ratios(args)
    constellation = _constellation(args)
    solution = _optimize(constellation, ratios, args.grid_k)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "exponent",
        "parameters": {
            "r_sn": ratios.r_sn,
            "r_ca": ratios.r_ca,
            "r_ce": ratios.r_ce,
            "phases": list(constellation.phases),
            "grid_k": args.grid_k,
        },
        "beta": solution.beta,
        "q_star": solution.q_star.records(),
        "per_pair": [
            {"pair": list(pair), "s_star": s_star, "value": value}
            for pair, s_star, value in solution.per_pair
        ],
        "method": solution.method,
        "certified": True,
    }
    _write_text(args.out, _json_doc(payload))
    return EXIT_OK


def cmd_sweep_photon(args: argparse.Namespace) -> int:
    beta = optimize_binary(_ratios(args)).beta
    grid = np.linspace(0.25, 4.0, 16)
    rows = [
        ",".join(
            f"{x:.17e}"
            for x in (
                a,
                theorem_bound(beta, a, 2),
                helstrom_binary(a),
                homodyne_binary(a),
            )
        )
        for a in grid
    ]
    _write_text(args.out, _csv_doc("alpha_sq,bound_ours,helstrom,homodyne", rows))
    return EXIT_OK


def cmd_sweep_energy(args: argparse.Namespace) -> int:
    ratios = _ratios(args)
    rows = []
    for r_ce in np.linspace(0.0, 1.0, 21).tolist():
        if not ratios.in_disk(math.sqrt(r_ce)):
            continue
        point = OperatingRatios(r_sn=ratios.r_sn, r_ca=ratios.r_ca, r_ce=r_ce)
        solution = optimize_binary(point)
        bound = theorem_bound(solution.beta, args.alpha_sq, 2)
        rows.append(
            f"{r_ce:.17e},{solution.beta:.17e},{bound:.17e},"
            + _q_summary(solution.q_star)
        )
    _write_text(args.out, _csv_doc("r_ce,beta,bound_ours,q_star_summary", rows))
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.trials < 100:
        raise ValueError("at least 100 trials per hypothesis required")
    ratios = _ratios(args)
    constellation = _constellation(args)
    scale = SignalScale(
        alpha_sq=args.alpha_sq, slices=args.slices, grid_k=args.grid_k
    )
    if args.force_zero:
        q = ControlDistribution.point_mass(0.0)
    else:
        q = _optimize(constellation, ratios, args.grid_k).q_star
    policy = realize_policy(q, scale, constellation, ratios)
    realized_type = policy.type_distribution()
    beta_realized = exponent_of(realized_type, constellation, ratios)
    report = monte_carlo(policy, args.trials, args.seed)
    bound = theorem_bound(beta_realized, args.alpha_sq, constellation.num_states)
    slack = 1.0 + 5.0 * (
        report.stderr / report.p_e if report.p_e > 0.0 else 0.0
    )
    passed = report.p_e <= bound * slack
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "simulate",
        "parameters": {
            "r_sn": ratios.r_sn,
            "r_ca": ratios.r_ca,
            "r_ce": ratios.r_ce,
            "alpha_sq": args.alpha_sq,
            "slices": args.slices,
            "trials": args.trials,
            "seed": args.seed,
            "phases": list(constellation.phases),
            "force_zero": bool(args.force_zero),
        },
        "policy_type": realized_type.records(),
        "mean_energy": realized_type.second_moment(),
        "beta_realized": beta_realized,
        "bound": bound,
        "p_e": report.p_e,
        "stderr": report.stderr,
        "error_counts": list(report.error_counts),
        "bound_satisfied": bool(passed),
    }
    _write_text(args.out, _json_doc(payload))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    report = verify_claims()
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "parameters": {
            "expected_counterexample": exponent.EXPECTED_COUNTEREXAMPLE,
            "expected_time_sharing": exponent.EXPECTED_TIME_SHARING,
            "min_margin": exponent.MIN_MARGIN,
            "ratios_high": asdict(exponent.VERIFY_RATIOS_HIGH),
            "ratios_low": asdict(exponent.VERIFY_RATIOS_LOW),
        },
        **report,
    }
    if args.format == "json":
        _write_text(args.out, _json_doc(payload))
    else:
        lines = []
        for check in report["checks"]:
            tag = "PASS" if check["passed"] else "FAIL"
            detail = ", ".join(f"{k}={v}" for k, v in check["details"].items())
            lines.append(f"[{tag}] {check['name']}: {detail}")
        for note in report["notes"]:
            lines.append(f"note: {note}")
        lines.append(
            "all checks passed"
            if report["all_passed"]
            else "one or more checks FAILED"
        )
        _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK if report["all_passed"] else EXIT_VERIFY_FAILED


_COMMANDS = {
    "exponent": cmd_exponent,
    "sweep-photon": cmd_sweep_photon,
    "sweep-energy": cmd_sweep_energy,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(over="raise"):
            return _COMMANDS[args.command](args)
    except InfeasibleRatiosError as exc:
        sys.stderr.write(f"infeasible: {exc}\n")
        return EXIT_INFEASIBLE
    except (ValueError, ControlLPError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (MemoryError, OverflowError, FloatingPointError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        target = args.out or "stdout"
        sys.stderr.write(f"error: cannot write {target}: {exc.strerror}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
