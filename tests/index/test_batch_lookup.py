"""Batched lookups against the scalar search oracle.

Every lookup is batched to remove interpreter overhead, never to
change a measured cost: `windowed_search_batch` must reproduce the
key-reading binary search of `search_oracle` bit for bit (same
midpoints, same early exit, same probe count), and every index's
`lookup_batch` must agree with the oracle's scalar lookup for that
index element for element.
"""

import numpy as np
import pytest

from repro.data.keyset import Domain
from repro.data.synthetic import lognormal_keyset, uniform_keyset
from repro.index import (
    BTree,
    DynamicLearnedIndex,
    LinearLearnedIndex,
    RecursiveModelIndex,
    SortedStore,
    windowed_search_batch,
)
from search_oracle import (
    dynamic_lookup,
    linear_lookup,
    rmi_lookup,
    search_window,
)


@pytest.fixture(scope="module")
def keyset():
    rng = np.random.default_rng(71)
    return uniform_keyset(2_000, Domain.of_size(40_000), rng)


@pytest.fixture(scope="module")
def queries(keyset):
    """Stored keys, absent keys, and out-of-range extremes."""
    rng = np.random.default_rng(72)
    stored = rng.choice(keyset.keys, size=300, replace=False)
    absent = np.setdiff1d(
        rng.integers(0, 40_000, size=400), keyset.keys)[:300]
    edges = np.asarray([0, 39_999, int(keyset.keys[0]),
                        int(keyset.keys[-1])])
    return np.concatenate([stored, absent, edges])


#: Batch sizes either side of the walk's interpreted small-batch cut.
BATCH_SIZES = (1, 16, 17, 200)

#: The even keys 0, 2, ..., 798: every odd number is a gap.
TABLE = np.arange(0, 800, 2, dtype=np.int64)


def _in_batches(size, search, *columns):
    """Positions and probes of ``search`` over ``columns``, called on
    consecutive batches of ``size``."""
    outs = [search(*(column[at:at + size] for column in columns))
            for at in range(0, columns[0].size, size)]
    return (np.concatenate([out.positions for out in outs]),
            np.concatenate([out.probes for out in outs]))


def _search_table(*columns):
    return windowed_search_batch(TABLE, *columns)


def _window_cases():
    """Every window width from 1 to 300 inside ``TABLE``, with a query
    at every stored offset and in every gap (the two gaps just outside
    the window included), plus a query below and above the key range;
    and the oracle's ``search_window`` answer of each.  A window
    ``[lo, hi]`` is the oracle's search of the table cut at ``hi``,
    predicted at ``hi`` with error ``hi - lo``: clipping at the cut
    end leaves exactly that window over the same indices."""
    rows = []
    for width in range(1, 301):
        lo = 7 + width % 5
        hi = lo + width - 1
        cut = TABLE[:hi + 1]
        stored = TABLE[lo:hi + 1]
        gaps = TABLE[lo:hi + 2] - 1
        for query in np.concatenate([stored, gaps, [-5, 805]]).tolist():
            ref = search_window(cut, query, hi, width - 1)
            rows.append((query, lo, hi, ref.position, ref.probes))
    return np.asarray(rows, dtype=np.int64).T


class TestWindowedSearchBatch:
    @pytest.fixture(scope="class")
    def cases(self):
        return _window_cases()

    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_every_width_offset_and_gap(self, cases, size):
        queries, lo, hi, positions, probes = cases
        got = _in_batches(size, _search_table, queries, lo, hi)
        assert np.array_equal(got[0], positions)
        assert np.array_equal(got[1], probes)

    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_windows_clipped_at_either_end(self, size):
        store = SortedStore(TABLE)
        n = TABLE.size
        grid = [(q, p, e)
                for p in (0, 1, 2, 150, n - 3, n - 2, n - 1)
                for e in (0, 1, 2, 7, 150, 299, 300, 1_000)
                for q in (-5, 0, 1, 2, 13, 300, 301, 2 * n - 3, 2 * n - 2,
                          2 * n - 1, 2 * n + 5)]
        want = [search_window(TABLE, q, p, e) for q, p, e in grid]
        got = _in_batches(size, store.search_window_batch,
                          *np.asarray(grid, dtype=np.int64).T)
        assert np.array_equal(got[0], [r.position for r in want])
        assert np.array_equal(got[1], [r.probes for r in want])

    def test_matches_scalar_search_window(self, keyset, queries):
        store = SortedStore(keyset.keys)
        rng = np.random.default_rng(73)
        predicted = rng.integers(0, len(store), size=queries.size)
        errors = rng.integers(0, 400, size=queries.size)
        batch = store.search_window_batch(queries, predicted, errors)
        for i, (q, p, e) in enumerate(zip(queries, predicted, errors)):
            scalar = search_window(store.keys, int(q), int(p), int(e))
            assert batch.positions[i] == scalar.position
            assert batch.probes[i] == scalar.probes
            assert batch.found[i] == scalar.found

    def test_scalar_max_error_broadcasts(self, keyset, queries):
        store = SortedStore(keyset.keys)
        predicted = np.full(queries.shape, len(store) // 2)
        batch = store.search_window_batch(queries, predicted, 50)
        for i, q in enumerate(queries):
            scalar = search_window(store.keys, int(q), len(store) // 2, 50)
            assert batch.probes[i] == scalar.probes

    def test_empty_window_reports_nothing(self):
        keys = np.arange(0, 100, 2, dtype=np.int64)
        out = windowed_search_batch(keys, np.asarray([10, 11]),
                                    np.asarray([5, 8]),
                                    np.asarray([4, 2]))  # lo > hi
        assert (out.positions == -1).all()
        assert (out.probes == 0).all()
        # Width 0 and below, anywhere, at every batch size.
        rng = np.random.default_rng(76)
        queries = rng.integers(-10, 810, size=300)
        hi = rng.integers(-1, TABLE.size, size=300)
        lo = hi + rng.integers(1, 4, size=300)
        for size in BATCH_SIZES:
            positions, probes = _in_batches(size, _search_table,
                                            queries, lo, hi)
            assert (positions == -1).all()
            assert (probes == 0).all()

    def test_empty_batch(self):
        keys = np.arange(10, dtype=np.int64)
        empty = np.empty(0, dtype=np.int64)
        out = windowed_search_batch(keys, empty, empty, empty)
        assert len(out) == 0


class TestRMIBatch:
    @pytest.fixture(scope="class", params=["uniform", "lognormal"])
    def rmi(self, request, keyset):
        if request.param == "lognormal":
            rng = np.random.default_rng(74)
            keyset = lognormal_keyset(2_000, Domain.of_size(200_000), rng)
        return RecursiveModelIndex.build_equal_size(keyset, 40)

    def test_matches_scalar_lookup(self, rmi, queries):
        batch = rmi.lookup_batch(queries)
        for i, q in enumerate(queries):
            scalar = rmi_lookup(rmi, int(q))
            assert batch.found[i] == scalar.found
            assert batch.positions[i] == scalar.position
            assert batch.probes[i] == scalar.probes
            assert batch.model_index[i] == scalar.model_index

    def test_all_stored_keys_found(self, rmi):
        batch = rmi.lookup_batch(rmi.store.keys)
        assert batch.found.all()
        assert np.array_equal(batch.positions,
                              np.arange(len(rmi.store)))

    def test_lookup_cost_unchanged(self, rmi, queries):
        scalar_mean = float(np.mean(
            [rmi_lookup(rmi, int(q)).probes for q in queries]))
        assert rmi.lookup_cost(queries) == scalar_mean


class TestLinearBatch:
    @pytest.fixture(scope="class")
    def index(self, keyset):
        return LinearLearnedIndex(keyset)

    def test_positions_match_scalar(self, index, queries):
        """Found flags, positions and probes per element: the probes
        ``LinearBackend`` serves and ``lookup_cost`` averages."""
        batch = index.lookup_batch(queries)
        for i, q in enumerate(queries):
            scalar = linear_lookup(index, int(q))
            assert batch.found[i] == scalar.found
            assert batch.positions[i] == scalar.position
            assert batch.probes[i] == scalar.probes

    def test_error_bound_covers_every_stored_key(self, index):
        batch = index.lookup_batch(index.store.keys)
        assert batch.found.all()
        assert batch.probes.max() <= int(
            np.ceil(np.log2(2 * index.max_error + 2))) + 1

    def test_lookup_cost_matches_scalar_mean(self, index, queries):
        scalar_mean = float(np.mean(
            [linear_lookup(index, int(q)).probes for q in queries]))
        assert index.lookup_cost(queries) == scalar_mean

    def test_max_error_positive(self, index):
        assert index.max_error >= 1


class TestDynamicBatch:
    @pytest.fixture(scope="class")
    def loaded(self, keyset):
        index = DynamicLearnedIndex(keyset, n_models=40,
                                    retrain_threshold=0.5)
        rng = np.random.default_rng(75)
        fresh = np.setdiff1d(
            rng.integers(0, 40_000, size=500), keyset.keys)[:150]
        index.insert_batch(fresh)
        assert index.delta_size > 0  # the delta path must be exercised
        return index, fresh

    def test_matches_scalar_lookup(self, loaded, queries):
        index, _ = loaded
        batch = index.lookup_batch(queries)
        for i, q in enumerate(queries):
            scalar = dynamic_lookup(index, int(q))
            assert batch.found[i] == scalar.found
            assert batch.positions[i] == scalar.position
            assert batch.probes[i] == scalar.probes
            assert batch.model_index[i] == scalar.model_index

    def test_delta_keys_found(self, loaded):
        index, fresh = loaded
        batch = index.lookup_batch(fresh)
        assert batch.found.all()
        # Delta positions sit past the base array.
        assert (batch.positions >= index.rmi.store.keys.size).all()

    def test_lookup_cost_matches_scalar_mean(self, loaded, queries):
        index, _ = loaded
        scalar_mean = float(np.mean(
            [dynamic_lookup(index, int(q)).probes for q in queries]))
        assert index.lookup_cost(queries) == scalar_mean


class TestBTreeBatch:
    def test_matches_scalar_search(self, keyset, queries):
        tree = BTree.bulk_load(keyset.keys)
        found, comparisons, visits = tree.search_batch(queries)
        for i, q in enumerate(queries):
            scalar = tree.search(int(q))
            assert found[i] == scalar.found
            assert comparisons[i] == scalar.comparisons
            assert visits[i] == scalar.node_visits
