"""The benchmark's tracer wraps pskexp names by module and attribute; a
rename in pskexp would break traced benchmark runs, so check them here."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pskexp

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    """Load bench/tracing.py by path; it imports only the standard library."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
