"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys

import pytest

import checks
import run
import tracing
import workloads

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _quiet(argv, crosscheck=False, label=None):
    """An operation whose output is accepted as long as it exits 0."""
    return workloads.Op(
        label or argv[0], "exponent_s", tuple(argv), "accept", crosscheck=crosscheck
    )


@pytest.fixture(autouse=True)
def _accept(monkeypatch):
    monkeypatch.setattr(checks, "accept", lambda text: [], raising=False)


SMALL_OPS = [
    _quiet(["exponent", "--r-sn", "0.01", "--r-ce", "0.9"], label="exponent-binary"),
    _quiet(["exponent", "--psk", "4", "--grid-k", "8", "--r-sn", "0.01", "--r-ce", "0.9"],
           label="exponent-psk4"),
    _quiet(["simulate", "--psk", "4", "--r-sn", "0.01", "--r-ce", "0.9",
            "--slices", "20", "--trials", "500", "--seed", "3"]),
    _quiet(["--seed", "2", "--trials", "200"], crosscheck=True, label="crosscheck"),
]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_same_inputs(name):
    first = [op.argv for op in workloads.make(name, 17)]
    assert first == [op.argv for op in workloads.make(name, 17)]
    others = {tuple(op.argv for op in workloads.make(name, s)) for s in range(8)}
    assert len(others) > 1


def test_metric_names_match_the_pattern_and_benchmark_json():
    tracer_names = set(tracing.Tracer().metrics())
    names = (
        set(run.END_TO_END) | set(run.PER_LAYER) | set(run.OP_METRICS) | tracer_names
        | set(run.parse_importtime(""))
    )
    assert all(NAME.fullmatch(n) for n in names)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


def test_injected_failure_raises_fail_rate_and_the_run_goes_on(monkeypatch, tmp_path):
    bad = _quiet(["exponent", "--r-sn", "-1"], label="bad")
    good = _quiet(["exponent", "--r-sn", "0.01", "--r-ce", "0.9"], label="good")
    monkeypatch.setattr(workloads, "make", lambda name, seed: [bad, good])
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    store = run.HashStore()
    metrics, attempted, failed = run.measure(
        "binary-design", 0, 0, store, run.time.perf_counter()
    )
    assert [o.label for o in attempted] == ["setup", "bad", "good"]
    assert [o.label for o in failed] == ["bad"]
    assert metrics["fail_rate"]["median"] == pytest.approx(1 / 3)
    line = json.loads(run.result_line(metrics, run.END_TO_END, attempted, failed))
    assert line["correct"] is False and line["failed"] == 1


def test_a_changed_output_fails_the_determinism_check(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    store = run.HashStore()
    op = SMALL_OPS[0]
    assert run.judge(op, 0, '{"a": 1, "wall_time_s": 1.0}', "k", store, "") == []
    assert run.judge(op, 0, '{"a": 1, "wall_time_s": 2.0}', "k", store, "") == []
    assert run.judge(op, 0, '{"a": 2, "wall_time_s": 2.0}', "k", store, "")


def test_traced_counts_repeat_exactly(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "make", lambda name, seed: SMALL_OPS)
    monkeypatch.setattr(run, "IMPORT_PROBES", 1)
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    runs = []
    for _ in range(2):
        metrics, attempted, failed = run.traced(
            "mc-psk", 0, run.HashStore(), run.time.perf_counter()
        )
        assert not failed
        runs.append(metrics)
    counts = [n for n, unit in run.PER_LAYER.items() if unit == "count"]
    assert {n: runs[0][n] for n in counts} == {n: runs[1][n] for n in counts}
    assert runs[0]["exponent.optimize_binary.chernoff_calls"] > 0
    assert runs[0]["exponent.linprog.nit"] > 0
    assert runs[0]["receiver.exact_error_small.calls"] == 9


def test_known_defect_probes_count_apart_from_failures(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    other = _quiet(["exponent", "--r-sn", "-1"], label="other")
    probes = workloads.KNOWN_DEFECT_PROBES
    monkeypatch.setattr(workloads, "KNOWN_DEFECT_PROBES", (*probes, other))
    known, outcomes = run.probe_known_defects("mc-psk", 0, run.HashStore())
    assert [o.label for o in outcomes] == [op.label for op in probes] + ["other"]
    # A probe that no longer fails is checked instead of counted.
    assert [o.label for o in outcomes if o.problems] == ["other"]
    assert 0 <= known <= len(probes)


def test_exact_error_matches_a_direct_sum():
    # One slice at v = 0.5 under BPSK; ML decides 0 where score 0 >= score 1.
    l0, l1 = 2.0 * (0.25 + 0.01), 2.0 * (2.25 + 0.01)
    p_err = 0.0
    for k in range(80):
        pmf0 = l0**k * math.exp(-l0) / math.factorial(k)
        pmf1 = l1**k * math.exp(-l1) / math.factorial(k)
        decide0 = k * math.log(l0) - l0 >= k * math.log(l1) - l1
        p_err += 0.5 * (pmf1 if decide0 else pmf0)
    got = checks.exact_error([0.5], [1], [math.pi, 0.0], 0.01, 2.0, 1)
    assert got.mean() == pytest.approx(p_err, abs=1e-12)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-psk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
