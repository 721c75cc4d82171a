"""Stateful (model-based) hypothesis tests.

Each machine drives a structure through random operation sequences
while checking it against a trivially-correct Python model — the
strongest form of invariant testing for stateful substrates.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.data import Domain, KeySet
from repro.index import BTree, DynamicLearnedIndex

_KEYS = st.integers(min_value=0, max_value=2_000)


class BTreeMachine(RuleBasedStateMachine):
    """B-Tree vs a Python set under random inserts and searches."""

    def __init__(self):
        super().__init__()
        self.tree = BTree(min_degree=3)
        self.model: set[int] = set()

    @rule(key=_KEYS)
    def insert(self, key):
        if key in self.model:
            try:
                self.tree.insert(key)
                raise AssertionError("duplicate insert must fail")
            except ValueError:
                pass
        else:
            self.tree.insert(key)
            self.model.add(key)

    @rule(key=_KEYS)
    def search(self, key):
        assert (key in self.tree) == (key in self.model)

    @rule(a=_KEYS, b=_KEYS)
    def range_scan(self, a, b):
        lo, hi = min(a, b), max(a, b)
        expected = sorted(k for k in self.model if lo <= k <= hi)
        assert self.tree.range_scan(lo, hi) == expected

    @invariant()
    def structural_invariants(self):
        self.tree.check_invariants()
        assert len(self.tree) == len(self.model)

    @invariant()
    def sorted_iteration(self):
        assert list(self.tree.items()) == sorted(self.model)


class DynamicIndexMachine(RuleBasedStateMachine):
    """Dynamic learned index vs a Python set, across retrain cycles."""

    def __init__(self):
        super().__init__()
        base = np.arange(0, 400, 4, dtype=np.int64)  # 100 seed keys
        self.index = DynamicLearnedIndex(
            KeySet(base, Domain(0, 2_000)), n_models=5,
            retrain_threshold=0.08)
        self.model = set(base.tolist())

    @rule(key=_KEYS)
    def insert(self, key):
        if key in self.model:
            try:
                self.index.insert(key)
                raise AssertionError("duplicate insert must fail")
            except ValueError:
                pass
        else:
            self.index.insert(key)
            self.model.add(key)

    @rule(key=_KEYS)
    def lookup(self, key):
        assert self.index.lookup_batch([key]).found[0] == (key in self.model)

    @rule()
    def flush(self):
        self.index.flush()
        assert self.index.delta_size == 0

    @invariant()
    def count_matches(self):
        assert self.index.n_keys == len(self.model)


TestBTreeStateful = BTreeMachine.TestCase
TestBTreeStateful.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None)

TestDynamicIndexStateful = DynamicIndexMachine.TestCase
TestDynamicIndexStateful.settings = settings(
    max_examples=15, stateful_step_count=30, deadline=None)
