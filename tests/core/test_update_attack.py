"""Tests for poisoning through the update channel (Sec. VI extension)."""

import pytest

from repro.core import poison_via_updates
from repro.data import Domain, uniform_keyset
from repro.index import DynamicLearnedIndex


@pytest.fixture
def live_index(rng):
    keyset = uniform_keyset(1000, Domain(0, 19_999), rng)
    return DynamicLearnedIndex(keyset, n_models=10,
                               retrain_threshold=0.05), keyset


class TestPoisonViaUpdates:
    def test_damage_lands_after_retrain(self, live_index):
        dyn, _ = live_index
        result = poison_via_updates(dyn, poisoning_percentage=10.0)
        assert result.retrains_triggered >= 1
        assert result.ratio_loss > 1.5
        assert dyn.delta_size == 0  # everything merged

    def test_matches_static_rmi_attack_keys(self, live_index):
        """One retrain window == the static pre-training attack."""
        from repro.core import RMIAttackerCapability, poison_rmi
        dyn, keyset = live_index
        capability = RMIAttackerCapability(poisoning_percentage=10.0,
                                           alpha=3.0)
        static = poison_rmi(keyset, 10, capability, max_exchanges=10)
        update = poison_via_updates(dyn, poisoning_percentage=10.0)
        assert sorted(update.injected_keys.tolist()) == \
            static.poison_keys.tolist()
        # Same poisoned merge -> same per-model damage direction.
        assert update.mse_after > update.mse_before

    def test_index_remains_correct(self, live_index):
        dyn, keyset = live_index
        poison_via_updates(dyn, poisoning_percentage=10.0)
        assert dyn.lookup_batch(keyset.keys[::91]).found.all()

    def test_lookup_cost_rises(self, rng):
        keyset = uniform_keyset(1000, Domain(0, 19_999), rng)
        clean = DynamicLearnedIndex(keyset, n_models=10)
        dirty = DynamicLearnedIndex(keyset, n_models=10)
        poison_via_updates(dirty, poisoning_percentage=15.0)
        queries = keyset.keys[::11]
        assert dirty.lookup_cost(queries) > clean.lookup_cost(queries)

    def test_percentage_validated(self, live_index):
        dyn, _ = live_index
        with pytest.raises(ValueError):
            poison_via_updates(dyn, poisoning_percentage=0.0)
        with pytest.raises(ValueError):
            poison_via_updates(dyn, poisoning_percentage=25.0)

    def test_budget_respected(self, live_index):
        dyn, keyset = live_index
        result = poison_via_updates(dyn, poisoning_percentage=5.0)
        assert result.injected_keys.size == keyset.n * 5 // 100
