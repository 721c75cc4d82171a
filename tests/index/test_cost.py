"""Unit tests for the lookup-cost comparison harness."""

import numpy as np
import pytest

from repro.core import greedy_poison
from repro.data import Domain, uniform_keyset
from repro.index import (
    BTree,
    LinearLearnedIndex,
    RecursiveModelIndex,
    btree_cost,
    compare_costs,
    linear_index_cost,
    rmi_cost,
)


@pytest.fixture
def keyset(rng):
    return uniform_keyset(2000, Domain(0, 39_999), rng)


class TestIndividualCosts:
    def test_rmi_cost_report(self, keyset):
        rmi = RecursiveModelIndex.build_equal_size(keyset, 20)
        report = rmi_cost(rmi, keyset.keys[:100])
        assert report.structure == "rmi"
        assert report.mean_cost >= 1.0
        assert report.max_cost >= report.mean_cost
        assert report.n_queries == 100

    def test_btree_cost_report(self, keyset):
        tree = BTree.bulk_load(keyset.keys)
        report = btree_cost(tree, keyset.keys[:100])
        assert report.mean_cost >= 1.0

    def test_linear_index_cost_report(self, keyset):
        index = LinearLearnedIndex(keyset)
        report = linear_index_cost(index, keyset.keys[:100])
        assert report.mean_cost >= 1.0

    def test_row_renders(self, keyset):
        rmi = RecursiveModelIndex.build_equal_size(keyset, 20)
        row = rmi_cost(rmi, keyset.keys[:10]).row()
        assert "mean=" in row and "max=" in row


class TestCompareCosts:
    def test_three_reports(self, keyset):
        reports = compare_costs(keyset.keys, keyset.keys, 20,
                                n_queries=200)
        labels = [r.structure for r in reports]
        assert labels == ["rmi (clean)", "rmi (poisoned)",
                          "btree (clean)"]

    def test_clean_rmi_beats_btree_on_uniform(self, keyset):
        """The learned-index promise that poisoning erodes."""
        reports = compare_costs(keyset.keys, keyset.keys, 20,
                                n_queries=300)
        by_label = {r.structure: r for r in reports}
        assert (by_label["rmi (clean)"].mean_cost
                < by_label["btree (clean)"].mean_cost)

    def test_poisoned_rmi_costlier_than_clean(self, keyset):
        attack = greedy_poison(keyset, 200)
        poisoned = keyset.insert(attack.poison_keys)
        reports = compare_costs(keyset.keys, poisoned.keys, 10,
                                n_queries=300)
        by_label = {r.structure: r for r in reports}
        assert (by_label["rmi (poisoned)"].mean_cost
                > by_label["rmi (clean)"].mean_cost)


@pytest.mark.filterwarnings("error")
class TestEmptyQueries:
    """An empty batch is a named error, raised before any mean or max
    is taken (so no "Mean of empty slice" warning either)."""

    EMPTY = np.empty(0, dtype=np.int64)

    def test_rmi_cost(self, keyset):
        rmi = RecursiveModelIndex.build_equal_size(keyset, 20)
        with pytest.raises(ValueError, match="need at least one key"):
            rmi_cost(rmi, self.EMPTY)

    def test_linear_index_cost(self, keyset):
        index = LinearLearnedIndex(keyset)
        with pytest.raises(ValueError, match="need at least one key"):
            linear_index_cost(index, self.EMPTY)

    def test_btree_cost(self, keyset):
        tree = BTree.bulk_load(keyset.keys)
        with pytest.raises(ValueError, match="need at least one key"):
            btree_cost(tree, self.EMPTY)

    def test_compare_costs_without_queries(self, keyset):
        with pytest.raises(ValueError, match="need at least one key"):
            compare_costs(keyset.keys, keyset.keys, 10, n_queries=0)
