"""Cross-module integration tests: the full attack-to-impact pipeline."""

import numpy as np

from repro.core import (
    RMIAttackerCapability,
    fit_cdf_regression,
    greedy_poison,
    poison_rmi,
)
from repro.data import Domain, miami_salaries, uniform_keyset
from repro.defense import flag_densest_keys, score_detection, trim_cdf
from repro.index import BTree, LinearLearnedIndex, RecursiveModelIndex


class TestEndToEndRegressionAttack:
    """Generate data -> attack -> rebuild index -> measure slowdown."""

    def test_full_pipeline(self, rng):
        keyset = uniform_keyset(1000, Domain(0, 19_999), rng)
        attack = greedy_poison(keyset, 100)
        assert attack.ratio_loss > 3.0

        poisoned = keyset.insert(attack.poison_keys)
        clean_index = LinearLearnedIndex(keyset)
        dirty_index = LinearLearnedIndex(poisoned)

        # Every legitimate key still resolvable in both indexes.
        legit = keyset.keys[::97]
        assert clean_index.lookup_batch(legit).found.all()
        assert dirty_index.lookup_batch(legit).found.all()

        # And lookups on legitimate keys got more expensive.
        queries = keyset.keys[::11]
        assert (dirty_index.lookup_cost(queries)
                > clean_index.lookup_cost(queries))


class TestEndToEndRMIAttack:
    def test_rmi_pipeline_with_btree_crossover(self, rng):
        keyset = uniform_keyset(3000, Domain(0, 59_999), rng)
        capability = RMIAttackerCapability(poisoning_percentage=15.0,
                                           alpha=3.0)
        attack = poison_rmi(keyset, 15, capability, max_exchanges=30)
        assert attack.rmi_ratio_loss > 1.5

        poisoned = keyset.insert(attack.poison_keys)
        clean_rmi = RecursiveModelIndex.build_equal_size(keyset, 15)
        dirty_rmi = RecursiveModelIndex.build_equal_size(poisoned, 15)
        tree = BTree.bulk_load(keyset.keys)

        queries = keyset.keys[::7]
        clean_cost = clean_rmi.lookup_cost(queries)
        dirty_cost = dirty_rmi.lookup_cost(queries)
        btree_cost = float(np.mean(
            [tree.search(int(k)).comparisons for k in queries]))

        # Clean learned index beats the B-Tree; poisoning narrows (and
        # at paper scale can flip) the gap.
        assert clean_cost < btree_cost
        assert dirty_cost > clean_cost

    def test_poisoned_index_remains_correct(self, rng):
        """Poisoning degrades speed, never correctness."""
        keyset = uniform_keyset(2000, Domain(0, 39_999), rng)
        capability = RMIAttackerCapability(poisoning_percentage=10.0)
        attack = poison_rmi(keyset, 10, capability, max_exchanges=10)
        poisoned = keyset.insert(attack.poison_keys)
        rmi = RecursiveModelIndex.build_equal_size(poisoned, 10)
        keys = poisoned.keys[::41]
        result = rmi.lookup_batch(keys)
        assert result.found.all()
        assert np.array_equal(rmi.store.keys[result.positions], keys)


class TestAttackVsDefensePipeline:
    def test_defense_stack_on_real_attack(self, rng):
        keyset = uniform_keyset(400, Domain(0, 7_999), rng)
        attack = greedy_poison(keyset, 60)
        poisoned = keyset.insert(attack.poison_keys)

        # Density detector: sees the clusters, imperfect precision.
        flagged = flag_densest_keys(poisoned.keys, 60, window=4)
        detection = score_detection(flagged, attack.poison_keys)
        assert detection.recall > 0.0

        # Rank-aware TRIM: reduces but rarely eliminates the damage.
        trimmed = trim_cdf(poisoned.keys, n_keep=keyset.n)
        poisoned_loss = fit_cdf_regression(poisoned).mse
        assert trimmed.final_loss <= poisoned_loss


class TestRealisticDatasetScenario:
    def test_salary_attack_story(self, rng):
        """The paper's Fig. 7 scenario at reduced scale."""
        salaries = miami_salaries(rng, n=1000)
        capability = RMIAttackerCapability(poisoning_percentage=10.0,
                                           alpha=3.0)
        attack = poison_rmi(salaries, 10, capability, max_exchanges=10)
        assert attack.rmi_ratio_loss > 1.0
        assert attack.total_injected <= capability.budget(salaries.n)
        # Injected salaries are plausible (inside the observed range).
        assert attack.poison_keys.min() >= salaries.keys.min()
        assert attack.poison_keys.max() <= salaries.keys.max()


class TestDeterminism:
    def test_same_seed_same_attack(self):
        a = uniform_keyset(300, Domain(0, 5_999),
                           np.random.default_rng(42))
        b = uniform_keyset(300, Domain(0, 5_999),
                           np.random.default_rng(42))
        attack_a = greedy_poison(a, 30)
        attack_b = greedy_poison(b, 30)
        assert attack_a.poison_keys.tolist() == attack_b.poison_keys.tolist()
        assert attack_a.loss_after == attack_b.loss_after

    def test_rmi_attack_deterministic(self):
        ks = uniform_keyset(500, Domain(0, 9_999),
                            np.random.default_rng(7))
        capability = RMIAttackerCapability(poisoning_percentage=10.0)
        r1 = poison_rmi(ks, 5, capability, max_exchanges=10)
        r2 = poison_rmi(ks, 5, capability, max_exchanges=10)
        assert r1.poison_keys.tolist() == r2.poison_keys.tolist()
        assert r1.rmi_ratio_loss == r2.rmi_ratio_loss
