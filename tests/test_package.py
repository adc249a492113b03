"""Tests for the package's public surface."""

import pskexp


def test_all_names_resolve_sorted_and_unique():
    """Every name in ``pskexp.__all__`` exists, listed once, in sorted order."""
    names = pskexp.__all__
    assert [name for name in names if not hasattr(pskexp, name)] == []
    assert names == sorted(names)
    assert len(set(names)) == len(names)
