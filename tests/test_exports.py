"""The package's export list names exactly what the package binds."""

from __future__ import annotations

import types

import uncrossed


def test_all_is_sorted_unique_and_matches_the_public_names():
    exported = uncrossed.__all__
    assert exported == sorted(exported)
    assert len(set(exported)) == len(exported)
    public = {
        name for name, value in vars(uncrossed).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(exported) == public
