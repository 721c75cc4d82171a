"""Unit tests for the sorted record store and its last-mile search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import SortedStore


@pytest.fixture
def store():
    return SortedStore(np.array([10, 20, 30, 40, 50, 60, 70, 80]))


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SortedStore(np.array([], dtype=np.int64))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            SortedStore(np.array([3, 1, 2]))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            SortedStore(np.array([1, 2, 2, 3]))

    def test_len(self, store):
        assert len(store) == 8

    def test_keys_readonly(self, store):
        with pytest.raises(ValueError):
            store.keys[0] = 5


def _search(store, key, predicted, max_error):
    """One query through the batched window search."""
    out = store.search_window_batch(np.asarray([key]),
                                    np.asarray([predicted]), max_error)
    return bool(out.found[0]), int(out.positions[0]), int(out.probes[0])


class TestWindowSearch:
    def test_finds_with_exact_prediction(self, store):
        assert _search(store, 30, predicted=2, max_error=0) == (True, 2, 1)

    def test_finds_within_window(self, store):
        found, position, _ = _search(store, 70, predicted=3, max_error=4)
        assert found
        assert position == 6

    def test_miss_outside_window(self, store):
        found, position, _ = _search(store, 80, predicted=0, max_error=2)
        assert not found
        assert position == -1

    def test_absent_key_reports_not_found(self, store):
        found, _, _ = _search(store, 35, predicted=2, max_error=8)
        assert not found

    def test_window_clamped_to_array(self, store):
        found, position, _ = _search(store, 10, predicted=0, max_error=100)
        assert found
        assert position == 0

    def test_probe_count_logarithmic(self, store):
        _, _, probes = _search(store, 50, predicted=4, max_error=4)
        # window of 9 cells -> at most ceil(log2(9)) + 1 = 5 probes
        assert probes <= 5


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1,
                max_size=200, unique=True),
       st.data())
@settings(max_examples=60, deadline=None)
def test_window_search_finds_key_when_window_covers_truth(raw, data):
    """Property: window search succeeds whenever |pred - true| <= e."""
    keys = np.array(sorted(raw), dtype=np.int64)
    store = SortedStore(keys)
    true_pos = data.draw(st.integers(min_value=0,
                                     max_value=keys.size - 1))
    error = data.draw(st.integers(min_value=0, max_value=keys.size))
    predicted = data.draw(st.integers(
        min_value=max(0, true_pos - error),
        max_value=min(keys.size - 1, true_pos + error)))
    found, position, _ = _search(store, int(keys[true_pos]), predicted,
                                 error)
    assert found
    assert position == true_pos
