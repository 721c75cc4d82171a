"""Unit tests for the dynamic (updatable) learned index."""

import numpy as np
import pytest

from repro.data import Domain, uniform_keyset
from repro.index import DynamicLearnedIndex
from repro.workload.backends import make_backend


@pytest.fixture
def index(rng):
    keyset = uniform_keyset(1000, Domain(0, 19_999), rng)
    return DynamicLearnedIndex(keyset, n_models=10,
                               retrain_threshold=0.05), keyset


class TestConstruction:
    def test_threshold_validated(self, rng):
        keyset = uniform_keyset(100, Domain(0, 999), rng)
        with pytest.raises(ValueError):
            DynamicLearnedIndex(keyset, 5, retrain_threshold=0.0)
        with pytest.raises(ValueError):
            DynamicLearnedIndex(keyset, 5, retrain_threshold=1.5)

    def test_initial_state(self, index):
        dyn, keyset = index
        assert dyn.n_keys == keyset.n
        assert dyn.delta_size == 0
        assert dyn.retrain_count == 0


class TestInsertAndLookup:
    def test_inserted_key_immediately_findable(self, index):
        dyn, keyset = index
        probe = next(x for x in range(20_000)
                     if not dyn.contains(x))
        dyn.insert(probe)
        result = dyn.lookup(probe)
        assert result.found

    def test_base_keys_still_findable_after_inserts(self, index, rng):
        dyn, keyset = index
        fresh = [x for x in rng.integers(0, 20_000, size=200).tolist()
                 if not dyn.contains(x)][:30]
        for key in fresh:
            dyn.insert(key)
        for key in keyset.keys[::53]:
            assert dyn.lookup(int(key)).found

    def test_duplicate_rejected(self, index):
        dyn, keyset = index
        with pytest.raises(ValueError):
            dyn.insert(int(keyset.keys[0]))

    def test_duplicate_of_buffered_key_rejected(self, index):
        dyn, _ = index
        probe = next(x for x in range(20_000) if not dyn.contains(x))
        dyn.insert(probe)
        with pytest.raises(ValueError):
            dyn.insert(probe)

    def test_absent_key_not_found(self, index):
        dyn, _ = index
        probe = next(x for x in range(20_000) if not dyn.contains(x))
        assert not dyn.lookup(probe).found

    def test_n_keys_tracks_inserts(self, index):
        dyn, keyset = index
        before = dyn.n_keys
        probe = next(x for x in range(20_000) if not dyn.contains(x))
        dyn.insert(probe)
        assert dyn.n_keys == before + 1


class TestRetraining:
    def test_threshold_triggers_retrain(self, index):
        dyn, _ = index
        # threshold 5% of 1000 -> 50 buffered keys trip a retrain.
        fresh = iter(x for x in range(20_000) if not dyn.contains(x))
        retrained = False
        for _ in range(50):
            retrained = dyn.insert(next(fresh)) or retrained
        assert retrained
        assert dyn.retrain_count == 1
        assert dyn.delta_size < 50

    def test_retrain_absorbs_delta_into_base(self, index):
        dyn, _ = index
        fresh = [x for x in range(20_000) if not dyn.contains(x)][:50]
        dyn.insert_batch(np.asarray(fresh))
        assert dyn.delta_size == 0
        for key in fresh[::7]:
            assert dyn.lookup(key).found

    def test_flush_forces_retrain(self, index):
        dyn, _ = index
        probe = next(x for x in range(20_000) if not dyn.contains(x))
        dyn.insert(probe)
        dyn.flush()
        assert dyn.delta_size == 0
        assert dyn.retrain_count == 1

    def test_flush_noop_on_empty_buffer(self, index):
        dyn, _ = index
        dyn.flush()
        assert dyn.retrain_count == 0

    def test_failed_retrain_changes_nothing(self):
        """A retrain whose screen keeps fewer keys than models raises
        before any state moves.  Dropping TRIM's rejects shrinks the
        key set at every retrain, so one fresh insert at a time gets
        there on the 14th."""
        backend = make_backend("dynamic", np.arange(0, 1000, 10),
                               rebuild_threshold=0.05,
                               trim_keep_fraction=0.6,
                               quarantine_rejects=False, model_size=7)
        dyn = backend._index
        keys = iter(range(5, 1000, 10))
        with pytest.raises(ValueError, match="kept 10 of 17 keys, too "
                                             "few for 14 models"):
            for inserts, key in enumerate(keys, start=1):
                before = (dyn.rmi.store.keys, dyn.delta_keys,
                          dyn.quarantine_keys, dyn.retrain_count)
                dyn.insert(key)
        assert inserts == 14
        base, delta, quarantine, retrains = before
        assert np.array_equal(dyn.rmi.store.keys, base)
        assert np.array_equal(dyn.delta_keys, np.append(delta, key))
        assert np.array_equal(dyn.quarantine_keys, quarantine)
        assert dyn.retrain_count == retrains
        assert dyn.n_keys == base.size + delta.size + 1
        assert dyn.lookup_batch(np.append(base, key)).found.all()

    def test_delta_lookups_cost_extra(self, index):
        """Buffered keys pay the delta binary search."""
        dyn, keyset = index
        fresh = [x for x in range(20_000) if not dyn.contains(x)][:30]
        for key in fresh:
            dyn.insert(key)
        base_cost = dyn.lookup_cost(keyset.keys[:100])
        delta_cost = dyn.lookup_cost(np.asarray(fresh))
        assert delta_cost > base_cost
