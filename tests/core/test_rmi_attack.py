"""Unit tests for Algorithm 2 (the two-stage RMI attack)."""

import numpy as np
import pytest

import repro.core.rmi_attack as rmi_attack
from repro.core import (
    RMIAttackerCapability,
    fit_cdf_regression,
    poison_rmi,
)
from repro.data import Domain, KeySet, lognormal_keyset, uniform_keyset


@pytest.fixture
def keyset(rng):
    return uniform_keyset(1000, Domain(0, 19_999), rng)


@pytest.fixture
def capability():
    return RMIAttackerCapability(poisoning_percentage=10.0, alpha=3.0)


class TestBudgetAccounting:
    def test_total_budget_conserved(self, keyset, capability):
        result = poison_rmi(keyset, 10, capability)
        budgets = sum(r.budget for r in result.reports)
        assert budgets == capability.budget(keyset.n) == 100

    def test_threshold_respected(self, keyset, capability):
        result = poison_rmi(keyset, 10, capability)
        for report in result.reports:
            assert report.budget <= result.threshold
        assert result.threshold == capability.per_model_threshold(
            keyset.n, 10) == 30

    def test_injected_at_most_budget(self, keyset, capability):
        result = poison_rmi(keyset, 10, capability)
        for report in result.reports:
            assert report.n_injected <= report.budget

    def test_alpha_one_means_uniform(self, keyset):
        capability = RMIAttackerCapability(poisoning_percentage=10.0,
                                           alpha=1.0)
        result = poison_rmi(keyset, 10, capability)
        assert result.exchanges == 0  # no slack to exchange into
        assert all(r.budget == 10 for r in result.reports)

    def test_threshold_below_uniform_share_rejected(self, keyset):
        # 10% of 1000 keys over 8 models -> shares of 13 with
        # remainder; alpha=1 gives threshold 12 < 13.
        capability = RMIAttackerCapability(poisoning_percentage=10.0,
                                           alpha=1.0)
        with pytest.raises(ValueError):
            poison_rmi(keyset, 8, capability)


class TestAttackEffect:
    def test_loss_increases(self, keyset, capability):
        result = poison_rmi(keyset, 10, capability)
        assert result.rmi_loss_after > result.rmi_loss_before
        assert result.rmi_ratio_loss > 1.0

    def test_exchanges_never_hurt(self, keyset, capability):
        flat = poison_rmi(keyset, 10, capability, max_exchanges=0)
        greedy = poison_rmi(keyset, 10, capability, max_exchanges=50)
        assert greedy.rmi_loss_after >= flat.rmi_loss_after - 1e-9

    def test_poison_keys_disjoint_from_legitimate(self, keyset,
                                                  capability):
        result = poison_rmi(keyset, 10, capability)
        assert not np.isin(result.poison_keys, keyset.keys).any()
        assert np.unique(result.poison_keys).size == result.total_injected

    def test_per_model_loss_matches_refit(self, keyset, capability):
        """Each report's loss_after equals an independent refit."""
        result = poison_rmi(keyset, 5, capability, max_exchanges=0)
        partitions = keyset.partition(5)
        for part, report in zip(partitions, result.reports):
            in_part = result.poison_keys[
                (result.poison_keys >= part.keys[0])
                & (result.poison_keys <= part.keys[-1])]
            assert in_part.size == report.n_injected
            refit = fit_cdf_regression(part.insert(in_part)).mse
            assert report.loss_after == pytest.approx(refit, rel=1e-7)

    def test_rank_shift_decomposition_is_exact(self, keyset, capability):
        """Global-rank RMI loss == sum of partition-local losses.

        Poisoning partition i shifts later partitions' global ranks
        uniformly; the intercept absorbs it, so the decomposition the
        attack relies on introduces no error.
        """
        result = poison_rmi(keyset, 4, capability, max_exchanges=0)
        poisoned = keyset.insert(result.poison_keys)
        # Build global-rank second-stage losses over the *poisoned*
        # equal-rank partition boundaries implied by the attack.
        partitions = keyset.partition(4)
        global_losses = []
        for part in partitions:
            in_part_mask = ((poisoned.keys >= part.keys[0])
                            & (poisoned.keys <= part.keys[-1]))
            keys = poisoned.keys[in_part_mask].astype(float)
            ranks = poisoned.ranks[in_part_mask].astype(float)
            global_losses.append(fit_cdf_regression(keys, ranks).mse)
        local_losses = [r.loss_after for r in result.reports]
        assert np.allclose(global_losses, local_losses, rtol=1e-7)


class TestAlgorithm1Runs:
    def test_an_applied_exchange_reruns_only_changed_sides(
            self, keyset, capability, monkeypatch):
        """The CHANGELOSS table keeps the results behind each entry.

        The initial table costs ``N`` runs for the uniform allocation
        and ``4(N-1)`` for the entries; an applied exchange then
        re-runs Algorithm 1 for the changed side of each of the six
        refreshed entries, so six runs, never the kept ones.  Counting
        through the module attribute also pins that every run looks
        ``greedy_poison`` up at call time.
        """
        calls = []
        real = rmi_attack.greedy_poison

        def counting(local, budget, *args, **kwargs):
            calls.append(budget)
            return real(local, budget, *args, **kwargs)

        monkeypatch.setattr(rmi_attack, "greedy_poison", counting)
        n_models = 10
        result = poison_rmi(keyset, n_models, capability)
        assert result.exchanges > 0
        assert calls
        assert len(calls) <= (n_models + 4 * (n_models - 1)
                              + 6 * result.exchanges)


class TestResultAggregates:
    def test_ratio_definitions(self, keyset, capability):
        result = poison_rmi(keyset, 10, capability)
        before = np.mean([r.loss_before for r in result.reports])
        after = np.mean([r.loss_after for r in result.reports])
        assert result.rmi_loss_before == pytest.approx(before)
        assert result.rmi_loss_after == pytest.approx(after)
        assert result.rmi_ratio_loss == pytest.approx(after / before)

    def test_per_model_ratios_shape(self, keyset, capability):
        result = poison_rmi(keyset, 10, capability)
        assert result.per_model_ratios.shape == (10,)

    def test_report_ratio_handles_zero_clean_loss(self):
        """A perfectly linear partition has zero clean loss."""
        ks = KeySet(np.arange(0, 1000, 2))  # uniform stride
        capability = RMIAttackerCapability(poisoning_percentage=10.0,
                                           alpha=2.0)
        result = poison_rmi(ks, 5, capability, max_exchanges=0)
        # Clean losses are ~0; ratios must be inf, not NaN.
        for report in result.reports:
            if report.loss_before == 0.0 and report.loss_after > 0:
                assert report.ratio_loss == float("inf")


class TestDistributions:
    def test_lognormal_dense_clusters_still_work(self, rng):
        keyset = lognormal_keyset(2000, Domain.of_size(200_000), rng)
        capability = RMIAttackerCapability(poisoning_percentage=5.0,
                                           alpha=3.0)
        result = poison_rmi(keyset, 20, capability, max_exchanges=20)
        assert result.rmi_ratio_loss >= 1.0
        assert result.total_injected <= capability.budget(keyset.n)

    def test_larger_models_larger_ratios(self, rng):
        """Fig. 6 trend: model size up -> attack effect up."""
        keyset = uniform_keyset(4000, Domain.of_size(400_000), rng)
        capability = RMIAttackerCapability(poisoning_percentage=10.0,
                                           alpha=3.0)
        small_models = poison_rmi(keyset, 40, capability,
                                  max_exchanges=0)  # 100 keys/model
        large_models = poison_rmi(keyset, 8, capability,
                                  max_exchanges=0)  # 500 keys/model
        assert (large_models.rmi_ratio_loss
                > small_models.rmi_ratio_loss)


class TestEdgeCases:
    def test_single_model_degenerates_to_algorithm1(self, rng):
        keyset = uniform_keyset(200, Domain(0, 3_999), rng)
        capability = RMIAttackerCapability(poisoning_percentage=10.0,
                                           alpha=2.0)
        result = poison_rmi(keyset, 1, capability)
        assert len(result.reports) == 1
        assert result.exchanges == 0
        assert result.total_injected == 20

    def test_zero_percentage(self, keyset):
        capability = RMIAttackerCapability(poisoning_percentage=0.0)
        result = poison_rmi(keyset, 10, capability)
        assert result.total_injected == 0
        assert result.rmi_ratio_loss == pytest.approx(1.0)

    def test_exchange_cap_zero_is_uniform_allocation(self, keyset,
                                                     capability):
        result = poison_rmi(keyset, 10, capability, max_exchanges=0)
        assert result.exchanges == 0
        assert all(r.budget == 10 for r in result.reports)
