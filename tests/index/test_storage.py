"""Unit tests for the storage accounting module."""

import pytest

from repro.data import Domain, uniform_keyset
from repro.index import BTree, RecursiveModelIndex
from repro.index.storage import (
    btree_storage,
    polynomial_stage_storage,
    rmi_storage,
)


@pytest.fixture
def keyset(rng):
    return uniform_keyset(10_000, Domain(0, 199_999), rng)


class TestRmiStorage:
    def test_scales_with_model_count(self, keyset):
        small = rmi_storage(RecursiveModelIndex.build_equal_size(
            keyset, 10))
        large = rmi_storage(RecursiveModelIndex.build_equal_size(
            keyset, 100))
        assert large.total_bytes == 10 * small.total_bytes

    def test_two_float_two_int_per_model(self, keyset):
        report = rmi_storage(RecursiveModelIndex.build_equal_size(
            keyset, 100))
        assert report.model_bytes == 100 * (2 * 8 + 2 * 8)

    def test_row_renders(self, keyset):
        report = rmi_storage(RecursiveModelIndex.build_equal_size(
            keyset, 10))
        assert "total=" in report.row()


class TestBtreeStorage:
    def test_counts_all_keys(self, keyset):
        tree = BTree.bulk_load(keyset.keys, min_degree=16)
        report = btree_storage(tree)
        assert report.model_bytes == keyset.n * 8
        assert report.auxiliary_bytes > 0

    def test_learned_index_much_smaller(self, keyset):
        """The paper's memory argument: RMI params << B-Tree nodes."""
        tree = BTree.bulk_load(keyset.keys, min_degree=16)
        rmi = RecursiveModelIndex.build_equal_size(keyset, 100)
        assert rmi_storage(rmi).total_bytes \
            < 0.1 * btree_storage(tree).total_bytes


class TestPolynomialStorage:
    def test_grows_with_degree(self):
        linearish = polynomial_stage_storage(100, 1)
        cubic = polynomial_stage_storage(100, 3)
        assert cubic.total_bytes > linearish.total_bytes

    def test_validation(self):
        with pytest.raises(ValueError):
            polynomial_stage_storage(0, 1)
        with pytest.raises(ValueError):
            polynomial_stage_storage(10, 0)

    def test_cubic_stage_outweighs_the_rmi(self, keyset):
        """Sec. VI's hardening spends the learned index's memory win."""
        rmi = RecursiveModelIndex.build_equal_size(keyset, 100)
        assert (polynomial_stage_storage(100, 3).total_bytes
                > rmi_storage(rmi).total_bytes)

    def test_sec6_tradeoff_quantified(self):
        """Hardening with degree 3 costs ~1.6x the stage storage."""
        linear = polynomial_stage_storage(1000, 1)
        cubic = polynomial_stage_storage(1000, 3)
        assert 1.2 < cubic.total_bytes / linear.total_bytes < 2.0
