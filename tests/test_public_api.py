"""The package's export list: sorted, without duplicates, and every name resolves."""

import zonofit


def test_all_is_sorted_without_duplicates():
    assert zonofit.__all__ == sorted(set(zonofit.__all__))


def test_every_exported_name_resolves():
    missing = [name for name in zonofit.__all__ if not hasattr(zonofit, name)]
    assert missing == []
