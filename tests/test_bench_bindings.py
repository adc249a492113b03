"""The benchmark's tracer wraps pskexp names by module and attribute, and
its checks hold pskexp to frozen values; a rename or a numeric change in
pskexp would break benchmark runs, so check both here."""

import importlib
import json
import subprocess
import sys

import pytest

from pins import BENCH, CENSUS, load_bench_module, solve_psk
from pskexp import OperatingRatios, optimize_binary
from test_cli import child_env


@pytest.mark.parametrize("key", CENSUS.keys, ids=CENSUS.id)
def test_frozen_mary_beta_holds(key):
    """Each M-ary exponent the benchmark froze at grid_k = 40 may only
    rise."""
    frozen = load_bench_module("workloads").FROZEN_MARY_BETA[key]
    assert solve_psk(*key, 40).beta >= frozen - 1e-9


@pytest.mark.parametrize("key", CENSUS.keys, ids=CENSUS.id)
def test_census_solve_is_pinned(key):
    """Each ``FROZEN_MARY_BETA`` solve gives, bit for bit, the beta and
    ``q_star`` of ``pinned_census.json``, with the same pivots and
    refactorizations in every LP (``pins.CENSUS``)."""
    assert CENSUS.record(key) == CENSUS.pinned[CENSUS.id(key)]


def test_frozen_paper_beta_holds():
    """The paper point's exponent holds to 1e-9 of the benchmark's value."""
    checks = load_bench_module("checks")
    beta = optimize_binary(OperatingRatios(r_sn=0.01, r_ca=1.0, r_ce=0.9)).beta
    assert beta == pytest.approx(checks.FROZEN_PAPER_BETA, abs=checks.FROZEN_TOL)


def test_every_traced_name_resolves():
    """Each (module, attribute) the tracer wraps exists in pskexp."""
    targets = load_bench_module("tracing").TARGETS
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
    crosscheck = BENCH / "crosscheck.py"
    out = subprocess.run(
        [sys.executable, str(crosscheck), "--seed", "1", "--trials", "100"],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert len(doc["cases"]) == 9
