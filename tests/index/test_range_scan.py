"""Range-scan tests for the B-Tree baseline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Domain, KeySet, uniform_keyset
from repro.index import BTree


@pytest.fixture
def keyset(rng):
    return uniform_keyset(1000, Domain(0, 19_999), rng)


class TestBtreeRange:
    def test_matches_ground_truth(self, keyset):
        tree = BTree.bulk_load(keyset.keys, min_degree=8)
        lo, hi = 4000, 8000
        truth = keyset.keys[(keyset.keys >= lo) & (keyset.keys <= hi)]
        assert tree.range_scan(lo, hi) == truth.tolist()

    def test_empty_and_inverted(self, keyset):
        tree = BTree.bulk_load(keyset.keys)
        assert tree.range_scan(3, 2) == []

    def test_single_key_range(self, keyset):
        tree = BTree.bulk_load(keyset.keys)
        key = int(keyset.keys[500])
        assert tree.range_scan(key, key) == [key]


@given(st.lists(st.integers(min_value=0, max_value=5_000), min_size=5,
                max_size=200, unique=True),
       st.integers(min_value=0, max_value=5_000),
       st.integers(min_value=0, max_value=5_000))
@settings(max_examples=50, deadline=None)
def test_btree_agrees_with_filtering_on_ranges(raw, a, b):
    """Property: the B-Tree and plain filtering return identical
    ranges for arbitrary bounds."""
    lo, hi = min(a, b), max(a, b)
    ks = KeySet(raw)
    truth = [k for k in sorted(raw) if lo <= k <= hi]
    tree = BTree.bulk_load(ks.keys, min_degree=3)
    assert tree.range_scan(lo, hi) == truth
