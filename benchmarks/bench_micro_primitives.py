"""Microbenchmarks of the attack and index primitives.

These run in normal pytest-benchmark mode (many rounds) and document
the practical costs behind the complexity claims: the single-point
attack is linear in n, a greedy step is O(n), RMI builds and lookups
are cheap, B-Tree search is logarithmic.
"""

import numpy as np
import pytest

from repro.core import greedy_poison, optimal_single_point
from repro.data import Domain, uniform_keyset
from repro.index import BTree, RecursiveModelIndex


@pytest.fixture(scope="module")
def keyset_1k():
    return uniform_keyset(1_000, Domain(0, 9_999),
                          # repro: allow[REP001] -- a fixed corpus keeps rounds and runs comparable
                          np.random.default_rng(0))


@pytest.fixture(scope="module")
def keyset_10k():
    return uniform_keyset(10_000, Domain(0, 99_999),
                          # repro: allow[REP001] -- a fixed corpus keeps rounds and runs comparable
                          np.random.default_rng(0))


def test_single_point_1k(benchmark, keyset_1k):
    result = benchmark(lambda: optimal_single_point(keyset_1k))
    assert result.loss_after > result.loss_before


def test_single_point_10k(benchmark, keyset_10k):
    result = benchmark(lambda: optimal_single_point(keyset_10k))
    assert result.loss_after > result.loss_before


def test_greedy_100_points_on_1k(benchmark, keyset_1k):
    result = benchmark(lambda: greedy_poison(keyset_1k, 100))
    assert result.n_injected == 100


def test_rmi_build_10k(benchmark, keyset_10k):
    rmi = benchmark(
        lambda: RecursiveModelIndex.build_equal_size(keyset_10k, 100))
    assert rmi.n_models == 100


def test_rmi_lookup_10k(benchmark, keyset_10k):
    rmi = RecursiveModelIndex.build_equal_size(keyset_10k, 100)
    queries = keyset_10k.keys[::97]

    def lookups():
        return sum(rmi.lookup(int(k)).probes for k in queries)

    total = benchmark(lookups)
    assert total >= queries.size


def test_btree_bulk_load_10k(benchmark, keyset_10k):
    tree = benchmark(lambda: BTree.bulk_load(keyset_10k.keys))
    assert len(tree) == keyset_10k.n


def test_btree_search_10k(benchmark, keyset_10k):
    tree = BTree.bulk_load(keyset_10k.keys)
    queries = keyset_10k.keys[::97]

    def searches():
        return sum(tree.search(int(k)).comparisons for k in queries)

    total = benchmark(searches)
    assert total >= queries.size
