"""The reachability allowlist (``benchmarks/reach_allowlist.txt``) is
well formed: ``benchmarks/reach.py`` reads it as the list of functions
that stay although no run enters them."""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest

from benchmarks import reach


@pytest.fixture(scope="module")
def entries():
    return reach.allowlist()


def test_every_entry_has_a_reason(entries):
    assert entries
    assert [(f, q) for f, q, reason in entries if not reason] == []


def test_every_entry_names_a_defined_function(entries):
    defined = {
        (Path(path).relative_to(reach.SRC).as_posix(), qualname)
        for path, _line, qualname in reach.defined()
    }
    assert [(f, q) for f, q, _ in entries if (f, q) not in defined] == []


def test_no_entry_is_listed_twice(entries):
    counts = Counter((f, q) for f, q, _ in entries)
    assert [key for key, n in counts.items() if n > 1] == []
