"""The benchmark's tracer wraps pskexp names by module and attribute; a
rename in pskexp would break traced benchmark runs, so check them here."""

import importlib
import importlib.util
from pathlib import Path

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
