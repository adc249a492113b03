"""Tests for the package's public surface."""

import ast
from pathlib import Path

import pskexp

#: Names no package code calls: the benchmark's tracer binds them, so they
#: stay defined in ``pskexp.divergence`` or ``pskexp.exponent``.
TRACER_ONLY = ("golden_section_max", "minimize", "max_chernoff", "pair_exponent")


def test_all_names_resolve_sorted_and_unique():
    """Every name in ``pskexp.__all__`` exists, listed once, in sorted order."""
    names = pskexp.__all__
    assert [name for name in names if not hasattr(pskexp, name)] == []
    assert names == sorted(names)
    assert len(set(names)) == len(names)


def test_root_leaves_out_the_scalar_search():
    """``golden_section_max``, which no package code calls, is not exported
    from the root; ``pskexp.divergence`` and ``pskexp.exponent`` still bind
    it for the benchmark's tracer."""
    assert not hasattr(pskexp, "golden_section_max")
    assert pskexp.exponent.golden_section_max is pskexp.divergence.golden_section_max


def test_divergence_exports_functions_only():
    """Per-pair results are arrays, so ``pskexp.divergence`` defines no
    record type, and the root exports only its three functions."""
    module = pskexp.divergence
    assert [v for v in vars(module).values() if isinstance(v, type)] == []
    from_divergence = [
        name for name in pskexp.__all__ if getattr(pskexp, name).__module__ == module.__name__
    ]
    assert from_divergence == ["chernoff_values", "max_chernoff", "max_chernoff_mixtures"]


def test_tracer_only_names_have_no_caller():
    """No call in the package's source names ``golden_section_max``,
    ``minimize``, ``max_chernoff`` or ``pair_exponent``, as a bare name or
    an attribute, and each is still bound where the tracer looks for it."""
    calls = []
    for path in sorted(Path(pskexp.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in TRACER_ONLY:
                    calls.append(f"{path.name}:{node.lineno} {name}")
    assert calls == []
    assert callable(pskexp.divergence.golden_section_max)
    assert callable(pskexp.divergence.max_chernoff)
    assert callable(pskexp.exponent.minimize)
    assert callable(pskexp.exponent.pair_exponent)
