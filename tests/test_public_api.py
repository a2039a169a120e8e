"""The package's export list names each public object once, and each resolves."""

import collections

import kvtrace


def test_every_export_resolves():
    missing = [name for name in kvtrace.__all__ if not hasattr(kvtrace, name)]
    assert missing == []


def test_every_export_listed_once():
    counts = collections.Counter(kvtrace.__all__)
    assert [name for name, n in counts.items() if n > 1] == []
