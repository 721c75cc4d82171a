"""Unit tests for the two-stage recursive model index."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RMIAttackerCapability, poison_rmi
from repro.data import Domain, KeySet, lognormal_keyset, uniform_keyset
from repro.index import (
    PiecewiseLinearRoot,
    RecursiveModelIndex,
)


@pytest.fixture
def keyset(rng):
    return uniform_keyset(2000, Domain(0, 39_999), rng)


class TestBuildEqualSize:
    def test_model_count(self, keyset):
        rmi = RecursiveModelIndex.build_equal_size(keyset, 20)
        assert rmi.n_models == 20

    def test_every_stored_key_found(self, keyset):
        rmi = RecursiveModelIndex.build_equal_size(keyset, 20)
        keys = keyset.keys[::37]
        result = rmi.lookup_batch(keys)
        assert result.found.all()
        assert (result.probes >= 1).all()
        assert np.array_equal(rmi.store.keys[result.positions], keys)

    def test_absent_keys_not_found(self, keyset):
        rmi = RecursiveModelIndex.build_equal_size(keyset, 20)
        rng = np.random.default_rng(0)
        probes = rng.integers(0, 40_000, size=100)
        absent = probes[~np.isin(probes, keyset.keys)]
        result = rmi.lookup_batch(absent)
        assert not result.found.any()
        assert (result.positions == -1).all()

    def test_routing_respects_partitions(self, keyset):
        rmi = RecursiveModelIndex.build_equal_size(keyset, 10)
        parts = keyset.partition(10)
        mids = [int(part.keys[part.n // 2]) for part in parts]
        assert rmi.lookup_batch(mids).model_index.tolist() == list(range(10))

    def test_second_stage_mse_nonnegative(self, keyset):
        rmi = RecursiveModelIndex.build_equal_size(keyset, 20)
        assert np.all(rmi.second_stage_mse() >= 0.0)

    def test_invalid_model_count(self, keyset):
        with pytest.raises(ValueError):
            RecursiveModelIndex.build_equal_size(keyset, 0)
        with pytest.raises(ValueError):
            RecursiveModelIndex.build_equal_size(keyset, keyset.n + 1)

    def test_single_model(self, keyset):
        rmi = RecursiveModelIndex.build_equal_size(keyset, 1)
        assert rmi.lookup_batch(keyset.keys[::101]).found.all()

    def test_accepts_raw_array(self):
        rmi = RecursiveModelIndex.build_equal_size(
            np.arange(0, 1000, 5), 4)
        assert rmi.lookup_batch([250]).found.all()


class TestBuildWithRoot:
    def test_piecewise_root_lookups(self, keyset):
        rmi = RecursiveModelIndex.build_with_root(
            keyset, 20, PiecewiseLinearRoot(32))
        assert rmi.lookup_batch(keyset.keys[::53]).found.all()

    def test_lognormal_keys(self, rng):
        ks = lognormal_keyset(2000, Domain.of_size(200_000), rng)
        rmi = RecursiveModelIndex.build_with_root(
            ks, 25, PiecewiseLinearRoot(64))
        assert rmi.lookup_batch(ks.keys[::41]).found.all()

    def test_empty_experts_tolerated(self, rng):
        """A root that routes nothing to some experts must still work."""
        ks = lognormal_keyset(500, Domain.of_size(100_000), rng)
        rmi = RecursiveModelIndex.build_with_root(
            ks, 50, PiecewiseLinearRoot(8))
        assert rmi.n_models == 50
        assert rmi.lookup_batch(ks.keys[::29]).found.all()


class TestErrorWindows:
    def test_windows_cover_training_errors(self, keyset):
        rmi = RecursiveModelIndex.build_equal_size(keyset, 10)
        positions = np.arange(keyset.n, dtype=np.float64)
        parts = np.array_split(np.arange(keyset.n), 10)
        for model, piece in zip(rmi.models, parts):
            keys = keyset.keys[piece].astype(np.float64)
            errors = positions[piece] - model.predict(keys)
            assert errors.min() >= model.err_lo - 1e-9
            assert errors.max() <= model.err_hi + 1e-9

    def test_max_search_window(self, keyset):
        rmi = RecursiveModelIndex.build_equal_size(keyset, 10)
        assert rmi.max_search_window() == max(
            m.window for m in rmi.models)

    def test_poisoning_widens_windows(self, keyset):
        """End-to-end: the attack inflates the last-mile windows."""
        capability = RMIAttackerCapability(poisoning_percentage=10.0,
                                           alpha=3.0)
        attack = poison_rmi(keyset, 20, capability, max_exchanges=20)
        poisoned = keyset.insert(attack.poison_keys)
        clean_rmi = RecursiveModelIndex.build_equal_size(keyset, 20)
        dirty_rmi = RecursiveModelIndex.build_equal_size(poisoned, 20)
        assert (dirty_rmi.max_search_window()
                > clean_rmi.max_search_window())

    def test_poisoning_raises_lookup_cost(self, keyset):
        capability = RMIAttackerCapability(poisoning_percentage=10.0,
                                           alpha=3.0)
        attack = poison_rmi(keyset, 20, capability, max_exchanges=20)
        poisoned = keyset.insert(attack.poison_keys)
        clean_rmi = RecursiveModelIndex.build_equal_size(keyset, 20)
        dirty_rmi = RecursiveModelIndex.build_equal_size(poisoned, 20)
        queries = keyset.keys[::17]
        assert (dirty_rmi.lookup_cost(queries)
                > clean_rmi.lookup_cost(queries))


class TestLookupCost:
    def test_empty_queries_rejected(self, keyset):
        rmi = RecursiveModelIndex.build_equal_size(keyset, 10)
        with pytest.raises(ValueError):
            rmi.lookup_cost(np.array([]))

    def test_cost_positive(self, keyset):
        rmi = RecursiveModelIndex.build_equal_size(keyset, 10)
        assert rmi.lookup_cost(keyset.keys[:50]) >= 1.0


@given(st.lists(st.integers(min_value=0, max_value=50_000), min_size=10,
                max_size=300, unique=True),
       st.integers(min_value=1, max_value=10))
@settings(max_examples=40, deadline=None)
def test_rmi_total_lookup_correctness(raw, n_models):
    """Property: every stored key is always found, any shape."""
    ks = KeySet(raw)
    n_models = min(n_models, ks.n)
    rmi = RecursiveModelIndex.build_equal_size(ks, n_models)
    keys = ks.keys[::max(1, ks.n // 23)]
    result = rmi.lookup_batch(keys)
    assert result.found.all()
    assert np.array_equal(rmi.store.keys[result.positions], keys)
