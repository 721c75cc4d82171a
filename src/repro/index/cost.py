"""Implementation-independent lookup-cost comparison.

The original LIS benchmark (nanoseconds, custom C++) is not public, so
the paper evaluates with the Ratio Loss.  As an end-to-end complement
this module compares a (possibly poisoned) learned index against the
B-Tree baseline on a shared axis: the number of *probed cells /
compared keys* per lookup, which tracks memory traffic — the dominant
cost for in-memory indexes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .btree import BTree
from .linear_index import LinearLearnedIndex
from .rmi import RecursiveModelIndex

__all__ = ["CostReport", "rmi_cost", "linear_index_cost", "btree_cost",
           "compare_costs"]


@dataclass(frozen=True)
class CostReport:
    """Mean lookup cost of one structure over a query batch."""

    structure: str
    mean_cost: float
    max_cost: float
    n_queries: int

    def row(self) -> str:
        """Formatted table row."""
        return (f"{self.structure:<24} mean={self.mean_cost:8.2f} "
                f"max={self.max_cost:8.0f} over {self.n_queries} lookups")


def _sample_queries(keys: np.ndarray, n_queries: int,
                    rng: np.random.Generator) -> np.ndarray:
    if n_queries >= keys.size:
        return keys
    return rng.choice(keys, size=n_queries, replace=False)


def _report(label: str, costs: np.ndarray) -> CostReport:
    if costs.size == 0:
        raise ValueError("need at least one key to measure cost")
    return CostReport(label, float(costs.mean()), float(costs.max()),
                      int(costs.size))


def rmi_cost(index: RecursiveModelIndex, queries: np.ndarray,
             label: str = "rmi") -> CostReport:
    """Probe-count cost of an RMI over the given stored-key queries."""
    return _report(label, index.lookup_batch(queries).probes)


def linear_index_cost(index: LinearLearnedIndex, queries: np.ndarray,
                      label: str = "linear-index") -> CostReport:
    """Probe-count cost of the single-model learned index."""
    return _report(label, index.lookup_batch(queries).probes)


def btree_cost(tree: BTree, queries: np.ndarray,
               label: str = "btree") -> CostReport:
    """Comparison-count cost of the B-Tree baseline."""
    return _report(label, tree.search_batch(queries)[1])


def compare_costs(stored_keys: np.ndarray, poisoned_keys: np.ndarray,
                  n_models: int, n_queries: int = 2000,
                  seed: int = 0) -> list[CostReport]:
    """Clean RMI vs poisoned RMI vs B-Tree on the same legitimate queries.

    ``poisoned_keys`` is the *full* poisoned key array (legitimate +
    injected); queries are drawn from the legitimate keys only, since
    the attacker's goal is to slow down everyone else's lookups.
    """
    rng = np.random.default_rng(seed)
    queries = _sample_queries(np.asarray(stored_keys, dtype=np.int64),
                              n_queries, rng)
    clean_rmi = RecursiveModelIndex.build_equal_size(stored_keys, n_models)
    dirty_rmi = RecursiveModelIndex.build_equal_size(poisoned_keys, n_models)
    tree = BTree.bulk_load(np.asarray(stored_keys, dtype=np.int64))
    return [
        rmi_cost(clean_rmi, queries, "rmi (clean)"),
        rmi_cost(dirty_rmi, queries, "rmi (poisoned)"),
        btree_cost(tree, queries, "btree (clean)"),
    ]
