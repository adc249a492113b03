"""Tests for the package's public surface."""

import pskexp


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
