"""Index substrate: learned indexes and the traditional B-Tree baseline."""

from .batch import BatchLookupResult, BatchProbeResult, windowed_search_batch
from .btree import BTree, BTreeSearchResult
from .cost import (
    CostReport,
    btree_cost,
    compare_costs,
    linear_index_cost,
    rmi_cost,
)
from .dynamic import DynamicLearnedIndex
from .first_stage import LinearRoot, MLPRoot, PiecewiseLinearRoot, RootModel
from .linear_index import LinearLearnedIndex
from .rmi import BoundaryRoot, RecursiveModelIndex, SecondStageModel
from .sorted_store import SortedStore

__all__ = [
    "SortedStore",
    "BatchProbeResult",
    "BatchLookupResult",
    "windowed_search_batch",
    "LinearLearnedIndex",
    "RootModel",
    "LinearRoot",
    "PiecewiseLinearRoot",
    "MLPRoot",
    "BoundaryRoot",
    "SecondStageModel",
    "RecursiveModelIndex",
    "BTree",
    "BTreeSearchResult",
    "DynamicLearnedIndex",
    "CostReport",
    "rmi_cost",
    "linear_index_cost",
    "btree_cost",
    "compare_costs",
]
