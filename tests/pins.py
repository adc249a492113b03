"""The bit-for-bit pins: each ``pinned_*.json`` file, its keys, and how its
records are derived.  A pin holds what the program computes, right or
wrong; a change that moves a record re-derives the file and pastes the
``--check`` lines into CHANGES.md:

    PYTHONPATH=src python tests/pins.py --check   # one line per moved record
    PYTHONPATH=src python tests/pins.py --write   # re-derive every file

Both end with one line per file: how many of its records moved, and the
largest relative fall and rise of beta among them.
"""

import argparse
import functools
import hashlib
import importlib.util
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from pskexp import (
    OperatingRatios,
    SignalScale,
    exponent_of,
    optimize_binary,
    optimize_general,
    realize_policy,
    uniform_psk,
)

TESTS = Path(__file__).resolve().parent
BENCH = TESTS.parent / "bench"

#: Not pins, and re-derived by no tool: tolerance floors from the L-BFGS-B
#: polish the binary optimizer once had, and one control LP's input.
ORACLES = ("pinned_binary_betas.json", "pinned_stall_lp_tilts.json")


def load_bench_module(name):
    """Load bench/<name>.py by path under its own name, so that the bench
    modules' imports of one another resolve."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


@dataclass(frozen=True)
class Pin:
    """A pin file: it holds ``record(key)`` under ``id(key)`` for each key."""

    path: Path
    keys: tuple
    id: Callable
    record: Callable

    @functools.cached_property
    def pinned(self) -> dict:
        return json.loads(self.path.read_text())

    def derive(self) -> dict:
        return {self.id(key): self.record(key) for key in self.keys}

    def moved(self, new: dict | None = None) -> list[str]:
        """This file's ``--check`` lines: "file id: change" per record that
        moved from the file to ``new`` (by default derived afresh)."""
        old, new = self.pinned, self.derive() if new is None else new
        lines = ((key, change(old.get(key), new.get(key))) for key in {**old, **new})
        return [f"{self.path.name} {key}: {line}" for key, line in lines if line]

    def summary(self, new: dict) -> str:
        """This file's closing ``--check`` line: how many records moved to
        ``new``, and the largest relative fall and rise of beta among them."""
        old = self.pinned
        keys = [key for key in {**old, **new} if old.get(key) != new.get(key)]
        shifts = [(beta_shift(old.get(key), new.get(key)), key) for key in keys]
        falls = [shift for shift in shifts if shift[0] is not None and shift[0] < 0.0]
        rises = [shift for shift in shifts if shift[0] is not None and shift[0] > 0.0]
        return "; ".join([
            f"{self.path.name}: {len(keys)} of {len(new)} records moved",
            "largest beta fall {:+.2e} ({})".format(*min(falls)) if falls else "no beta fell",
            "largest beta rise {:+.2e} ({})".format(*max(rises)) if rises else "no beta rose",
        ])


def solve_record(solution) -> dict:
    """beta, ``q_star``'s atoms ("re im weight") and ``per_pair`` ("l m
    s_star value") of a solve, in hex."""
    atoms = [f"{p.real.hex()} {p.imag.hex()} {w.hex()}" for p, w in solution.q_star.atoms]
    pairs = [f"{l} {m} {s.hex()} {v.hex()}" for (l, m), s, v in solution.per_pair]
    return {"beta": solution.beta.hex(), "q_star": atoms, "per_pair": pairs}


@functools.cache
def output_records() -> dict:
    """Each pinned command line's exit code, stdout sha256 and stderr, all
    run in the range cases' capped child (imported late: test_cli imports
    this module)."""
    from test_cli import run_lines

    return {
        line: {
            "exit_code": code,
            "stdout_sha256": hashlib.sha256(stdout.encode("utf-8")).hexdigest(),
            "stderr": stderr,
        }
        for line, (code, stdout, stderr) in run_lines(list(OUTPUTS.keys)).items()
    }


@functools.cache
def solve_psk(m, r_sn, r_ce, grid_k):
    """``optimize_general`` on M-PSK at r_ca = 1, once per process."""
    ratios = OperatingRatios(r_sn, 1.0, r_ce)
    return optimize_general(uniform_psk(m), ratios, grid_k=grid_k)


def frozen_record(key) -> dict:
    """A ``FROZEN_MARY_BETA`` solve's record, with each LP's pivots and
    basis refactorizations in place of ``per_pair``."""
    solution = solve_psk(*key, 40)
    record = solve_record(solution)
    del record["per_pair"]
    for name in ("lp_pivots", "lp_refactorizations"):
        record[name] = solution.diagnostics[name]
    return record


def binary_record(key) -> dict:
    r_sn, r_ca, fraction = key
    ratios = OperatingRatios(r_sn, r_ca, fraction * r_ca * r_ca)
    return solve_record(optimize_binary(ratios))


def mary_range_record(key) -> dict:
    """A solve's record, or ``{"error": message}``.  No LP pivots: an LP
    solved in several rounds of row generation may pivot differently and
    reach the same optimum."""
    m, grid_k, r_ca, r_sn, fraction = key
    ratios = OperatingRatios(r_sn, r_ca, fraction * r_ca * r_ca)
    try:
        return solve_record(optimize_general(uniform_psk(m), ratios, grid_k=grid_k))
    except (ValueError, RuntimeError) as error:
        return {"error": str(error)}


def realized_record(key) -> dict:
    """``realize_policy`` on a solve's ``q_star`` at N slices: the realized
    type's exponent and atoms ("re im weight"), in hex, and its repair
    moves.  K None is the binary optimizer's ``q_star``."""
    m, r_sn, r_ce, grid_k, slices = key
    ratios = OperatingRatios(r_sn, 1.0, r_ce)
    if grid_k is None:
        q = optimize_binary(ratios).q_star
    else:
        q = solve_psk(m, r_sn, r_ce, grid_k).q_star
    scale = SignalScale(alpha_sq=2.0, slices=slices, grid_k=grid_k or 1)
    constellation = uniform_psk(m)
    policy = realize_policy(q, scale, constellation, ratios)
    realized = policy.type_distribution()
    return {
        "beta": exponent_of(realized, constellation, ratios).hex(),
        "type": [f"{p.real.hex()} {p.imag.hex()} {w.hex()}" for p, w in realized.atoms],
        "repair_moves": policy._repair_moves,
    }


#: The benchmark's CLI operations, README's examples, range edges,
#: subnormal dark ratios and the options no other line uses.
OUTPUTS = Pin(
    TESTS / "pinned_outputs.json",
    tuple(json.loads((TESTS / "pinned_outputs.json").read_text())),
    str,
    lambda line: output_records()[line],
)
#: (M, r_sn, r_ce) at r_ca 1 and grid_k 40.
CENSUS = Pin(
    TESTS / "pinned_census.json",
    tuple(load_bench_module("workloads").FROZEN_MARY_BETA),
    lambda key: "psk{}-{}-{}".format(*key),
    frozen_record,
)
#: (r_sn, r_ca, fraction) with r_ce = fraction * r_ca**2, as in the next.
BINARY_CENSUS = Pin(
    TESTS / "pinned_binary_census.json",
    tuple(
        (r_sn, r_ca, fraction)
        for r_sn in (1e-300, 1e-6, 0.01, 1.0, 1e6, 1e12)
        for r_ca in (1e-6, 1.0, 1.25, 1e3, 1e10)
        for fraction in (0.0, 1e-300, 0.1, 0.5, 0.9, 1.0)
    ),
    lambda key: "{!r}-{!r}-{!r}".format(*key),
    binary_record,
)
#: (M, grid_k, r_ca, r_sn, fraction), off the r_ca = 1 axis of the others.
MARY_RANGE_CENSUS = Pin(
    TESTS / "pinned_mary_range_census.json",
    tuple(
        (m, grid_k, r_ca, r_sn, fraction)
        for m in (3, 5, 6, 8)
        for grid_k in (6, 12)
        for r_ca in (0.8, 1.5, 3.0)
        for r_sn, fraction in ((1e-4, 0.3), (0.05, 0.9))
    ),
    lambda key: "psk{}-k{}-{!r}-{!r}-{!r}".format(*key),
    mary_range_record,
)
#: (M, r_sn, r_ce, grid_k) at r_ca 1.
GENERAL = Pin(
    TESTS / "pinned_general_solutions.json",
    ((4, 0.01, 0.9, 20), (8, 0.02, 0.85, 40), (16, 0.005, 0.75, 40)),
    lambda key: f"psk{key[0]}-k{key[3]}",
    lambda key: solve_record(solve_psk(*key)),
)
#: (M, r_sn, r_ce, K, N) at r_ca 1: the census solves, 4-PSK at K 20 and
#: binary census solves (K None), each realized on N slices.
REALIZED = Pin(
    TESTS / "pinned_realized_types.json",
    tuple(
        [(*key, 40, n) for key in CENSUS.keys for n in (50, 200, 1000)]
        + [(4, 0.01, 0.9, 20, n) for n in (1, 7, 50, 200, 1000)]
        + [
            (2, r_sn, fraction, None, n)
            for r_sn, fraction in [
                *((r_sn, f) for r_sn in (1e-6, 0.01, 1.0) for f in (0.1, 0.5, 0.9)),
                (0.01, 1e-300),
            ]
            for n in (1, 7, 50, 200)
        ]
    ),
    lambda key: "psk{}-{!r}-{!r}-{}-n{}".format(
        *key[:3], "binary" if key[3] is None else f"k{key[3]}", key[4]
    ),
    realized_record,
)
PINS = (OUTPUTS, CENSUS, BINARY_CENSUS, MARY_RANGE_CENSUS, GENERAL, REALIZED)


def _outcome(record: dict) -> str:
    if "error" in record:
        return f"error {record['error']!r}"
    return f"beta {float.fromhex(record['beta'])!r}"


def beta_shift(old: dict | None, new: dict | None) -> float | None:
    """beta's relative change between two solve records, or None unless
    both hold a beta."""
    if not (old and new and "beta" in old and "beta" in new):
        return None
    a, b = float.fromhex(old["beta"]), float.fromhex(new["beta"])
    return (b - a) / a if a else (float("inf") if b else 0.0)


def change(old: dict | None, new: dict | None) -> str | None:
    """How a record moved, in one line, or None if it did not."""
    if old == new:
        return None
    if old is None or new is None:
        return "new record" if old is None else "record gone"
    if "exit_code" in old:
        moved = [f"{f} {old[f]!r} → {new[f]!r}" for f in old if old[f] != new[f]]
        return "; ".join(moved)
    line = f"{_outcome(old)} → {_outcome(new)}"
    relative = beta_shift(old, new)
    if relative is not None:
        notes = [f"{relative:+.2e} relative"]
        notes += [f"{f} moved" for f in old if f != "beta" and old[f] != new.get(f)]
        line += f" ({'; '.join(notes)})"
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Check or re-derive the pin files.")
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--check", action="store_true", help="exit 1 if a record moved")
    action.add_argument("--write", action="store_true", help="re-derive every file")
    args = parser.parse_args(argv)
    derived = [pin.derive() for pin in PINS]
    moved = [line for pin, new in zip(PINS, derived) for line in pin.moved(new)]
    for line in moved + [pin.summary(new) for pin, new in zip(PINS, derived)]:
        print(line)
    if args.write:
        for pin, new in zip(PINS, derived):
            pin.path.write_text(json.dumps(new, indent=1) + "\n")
    return int(args.check and bool(moved))


if __name__ == "__main__":
    sys.exit(main())
