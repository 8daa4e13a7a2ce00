"""The package's public surface: what `banalg.__all__` promises exists."""

import banalg


def test_all_names_resolve_on_the_package():
    missing = [name for name in banalg.__all__ if not hasattr(banalg, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(banalg.__all__) == len(set(banalg.__all__))
