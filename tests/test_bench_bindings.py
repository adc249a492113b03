"""The benchmark's tracer wraps pskexp names by module and attribute, and
its checks hold pskexp to frozen values; a rename or a numeric change in
pskexp would break benchmark runs, so check both here."""

import functools
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pskexp
from pskexp import OperatingRatios, optimize_binary, optimize_general, uniform_psk

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    """Load bench/tracing.py by path; it imports only the standard library."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_bench_module(name):
    """Load bench/<name>.py by path under its own name, so that the bench
    modules' imports of one another resolve."""
    if name not in sys.modules:
        path = TRACING.parent / f"{name}.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


FROZEN_KEYS = list(load_bench_module("workloads").FROZEN_MARY_BETA)


def census_id(key):
    """A ``FROZEN_MARY_BETA`` key (M, r_sn, r_ce) as a test id and
    ``pinned_census.json`` key."""
    return "psk{}-{}-{}".format(*key)


@functools.cache
def solve_frozen(key):
    """``optimize_general``'s solve at a ``FROZEN_MARY_BETA`` point, at
    r_ca = 1 and grid_k = 40, once per test session."""
    m, r_sn, r_ce = key
    ratios = OperatingRatios(r_sn=r_sn, r_ca=1.0, r_ce=r_ce)
    return optimize_general(uniform_psk(m), ratios, grid_k=40)


def census_record(solution):
    """beta and ``q_star``'s atoms ("re im weight") in hex, and each LP's
    pivots and basis refactorizations, as ``pinned_census.json`` holds them
    for every ``FROZEN_MARY_BETA`` solve.  Re-derive the file with
    ``PYTHONPATH=src:tests python -c "import json, test_bench_bindings as t; print(
    json.dumps({t.census_id(k): t.census_record(t.solve_frozen(k)) for k in
    t.FROZEN_KEYS}, indent=1))" > tests/pinned_census.json``."""
    diagnostics = solution.diagnostics
    return {
        "beta": solution.beta.hex(),
        "q_star": [
            f"{p.real.hex()} {p.imag.hex()} {w.hex()}" for p, w in solution.q_star.atoms
        ],
        "lp_pivots": diagnostics["lp_pivots"],
        "lp_refactorizations": diagnostics["lp_refactorizations"],
    }


PINNED_CENSUS = json.loads(
    (Path(__file__).with_name("pinned_census.json")).read_text()
)


@pytest.mark.parametrize("key", FROZEN_KEYS, ids=census_id)
def test_frozen_mary_beta_holds(key):
    """Each M-ary exponent the benchmark froze at grid_k = 40 may only
    rise."""
    frozen = load_bench_module("workloads").FROZEN_MARY_BETA[key]
    assert solve_frozen(key).beta >= frozen - 1e-9


@pytest.mark.parametrize("key", FROZEN_KEYS, ids=census_id)
def test_census_solve_is_pinned(key):
    """Each ``FROZEN_MARY_BETA`` solve gives, bit for bit, the beta and
    ``q_star`` of ``pinned_census.json``, with the same pivots and
    refactorizations in every LP.  Like the other ``pinned_*.json`` files it
    pins what the program computes, right or wrong: a change that moves a
    solve re-derives the file (see ``census_record``) and names the solve in
    CHANGES.md."""
    assert census_record(solve_frozen(key)) == PINNED_CENSUS[census_id(key)]


def test_frozen_paper_beta_holds():
    """The paper point's exponent holds to 1e-9 of the benchmark's value."""
    checks = load_bench_module("checks")
    beta = optimize_binary(OperatingRatios(r_sn=0.01, r_ca=1.0, r_ce=0.9)).beta
    assert beta == pytest.approx(checks.FROZEN_PAPER_BETA, abs=checks.FROZEN_TOL)


def test_every_traced_name_resolves():
    """Each (module, attribute) the tracer wraps exists in pskexp."""
    targets = load_tracing().TARGETS
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in targets
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert targets
    assert missing == []


def test_crosscheck_runs():
    """bench/crosscheck.py runs against this pskexp and prints one JSON
    document, so an API change that breaks it fails here first."""
    crosscheck = TRACING.parent / "crosscheck.py"
    src = str(Path(pskexp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, str(crosscheck), "--seed", "1", "--trials", "100"],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert len(doc["cases"]) == 9
