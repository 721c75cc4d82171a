"""Unit tests for the single-model learned index."""

import numpy as np
import pytest

from repro.core import greedy_poison
from repro.data import Domain, uniform_keyset
from repro.index import LinearLearnedIndex


@pytest.fixture
def index(medium_keyset):
    return LinearLearnedIndex(medium_keyset)


class TestLookup:
    def test_all_stored_keys_found(self, medium_keyset, index):
        keys = medium_keyset.keys[::13]
        result = index.lookup_batch(keys)
        assert result.found.all()
        assert np.array_equal(index.store.keys[result.positions], keys)

    def test_absent_key_not_found(self, medium_keyset, index):
        stored = set(medium_keyset.keys.tolist())
        probe = next(x for x in range(10_000) if x not in stored)
        assert not index.lookup_batch([probe]).found.any()

    def test_accepts_raw_array(self):
        index = LinearLearnedIndex(np.arange(0, 100, 2))
        assert index.lookup_batch([42]).found.all()

    def test_prediction_clamped(self, index):
        """Keys far outside the key range are predicted at an array
        end, so their window still holds cells to search."""
        result = index.lookup_batch([-10**9, 10**9])
        assert not result.found.any()
        assert (result.probes >= 1).all()


class TestModelQuality:
    def test_mse_matches_core_regression(self, medium_keyset):
        """Index MSE (0-based positions) == core MSE (1-based ranks)."""
        from repro.core import fit_cdf_regression
        index = LinearLearnedIndex(medium_keyset)
        core = fit_cdf_regression(medium_keyset)
        # Shifting the response by 1 only changes the intercept.
        assert index.mse == pytest.approx(core.mse, rel=1e-9)
        assert index.model.slope == pytest.approx(core.model.slope,
                                                  rel=1e-9)

    def test_near_linear_cdf_cheap_lookups(self, rng):
        ks = uniform_keyset(1000, Domain(0, 9_999), rng)
        index = LinearLearnedIndex(ks)
        assert index.lookup_cost(ks.keys[::11]) < 15.0

    def test_poisoning_increases_cost(self, rng):
        """The attack's end goal: more probes per lookup."""
        ks = uniform_keyset(500, Domain(0, 9_999), rng)
        attack = greedy_poison(ks, 75)
        poisoned = ks.insert(attack.poison_keys)
        clean_cost = LinearLearnedIndex(ks).lookup_cost(ks.keys)
        dirty_cost = LinearLearnedIndex(poisoned).lookup_cost(ks.keys)
        assert dirty_cost > clean_cost

    def test_empty_queries_rejected(self, index):
        with pytest.raises(ValueError):
            index.lookup_cost(np.array([]))
