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
