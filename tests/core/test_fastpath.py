"""Tests pinning the allocation-free workspace to the reference path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import KeySpaceExhausted
from repro.core._fastpath import GreedyWorkspace
from repro.core.single_point import (
    _interior_endpoints_raw,
    _poisoning_losses_raw,
)
from repro.data import Domain, uniform_keyset


class TestWorkspaceBasics:
    def test_keys_view_tracks_insertions(self):
        ws = GreedyWorkspace(np.array([10, 20, 30], dtype=np.int64), 2)
        ws.insert(25)
        assert ws.keys.tolist() == [10, 20, 25, 30]
        ws.insert(15)
        assert ws.keys.tolist() == [10, 15, 20, 25, 30]

    def test_capacity_enforced(self):
        ws = GreedyWorkspace(np.array([1, 5], dtype=np.int64), 1)
        ws.insert(3)
        with pytest.raises(RuntimeError):
            ws.insert(4)

    def test_exhausted_interior(self):
        ws = GreedyWorkspace(np.array([4, 5, 6], dtype=np.int64), 1)
        with pytest.raises(KeySpaceExhausted):
            ws.best_candidate()


class TestWorkspaceMisuse:
    """A key no gap holds is a named error, and changes nothing."""

    @pytest.mark.parametrize("key", [20, 45, 5, 10, 30])
    def test_insert_outside_every_gap_names_the_key(self, key):
        ws = GreedyWorkspace(np.array([10, 20, 30], dtype=np.int64), 3)
        with pytest.raises(ValueError, match=f"key {key} is not"):
            ws.insert(key)
        assert ws.keys.tolist() == [10, 20, 30]
        assert ws.gap_table[0].tolist() == [11, 19, 21, 29]

    def test_capacity_error_comes_first(self):
        ws = GreedyWorkspace(np.array([1, 5], dtype=np.int64), 1)
        ws.insert(3)
        with pytest.raises(RuntimeError, match="capacity"):
            ws.insert(5)

    @pytest.mark.parametrize("keys, named", [
        ([10, 30, 20], "key 20 follows 30"),
        ([10, 20, 20, 30], "key 20 follows 20"),
    ])
    def test_unsorted_or_duplicate_initial_keys(self, keys, named):
        with pytest.raises(ValueError, match=named):
            GreedyWorkspace(np.array(keys, dtype=np.int64), 1)


def assert_table_matches(ws: GreedyWorkspace) -> None:
    """The kept gap table equals one derived from the keys."""
    cand, at, rank = ws.gap_table
    assert cand.tolist() == _interior_endpoints_raw(ws.keys).tolist()
    want = ws.keys.searchsorted(cand)
    assert at.tolist() == want.tolist()
    assert rank.tolist() == (want + 1).astype(np.float64).tolist()


class TestGapTable:
    def test_greedy_choices_to_exhaustion(self):
        keys = np.array([0, 2, 3, 7, 8, 9, 15, 16, 30], dtype=np.int64)
        slots = 31 - keys.size  # every unoccupied key of [0, 30]
        ws = GreedyWorkspace(keys, slots)
        assert_table_matches(ws)
        for _ in range(slots):
            key, _ = ws.best_candidate()
            ws.insert(key)
            assert_table_matches(ws)
        assert ws.keys.tolist() == list(range(31))
        assert ws.gap_table[0].size == 0
        with pytest.raises(KeySpaceExhausted):
            ws.best_candidate()

    def test_inserts_off_the_endpoints_split_a_gap(self):
        ws = GreedyWorkspace(np.array([10, 20, 30], dtype=np.int64), 2)
        for key in (25, 15):
            ws.insert(key)
            assert_table_matches(ws)
        assert ws.gap_table[0].tolist() == [11, 14, 16, 19,
                                            21, 24, 26, 29]

    def test_single_slot_gaps_close(self):
        ws = GreedyWorkspace(np.array([1, 3, 5, 7], dtype=np.int64), 3)
        for key in (4, 2, 6):
            ws.insert(key)
            assert_table_matches(ws)
        assert ws.keys.tolist() == list(range(1, 8))
        with pytest.raises(KeySpaceExhausted):
            ws.best_candidate()

    def test_first_and_last_gaps(self):
        ws = GreedyWorkspace(np.array([0, 5, 10], dtype=np.int64), 6)
        for key in (1, 9, 4, 6, 2, 8):
            ws.insert(key)
            assert_table_matches(ws)
        assert ws.gap_table[0].tolist() == [3, 3, 7, 7]


class TestWorkspaceVsReference:
    def test_single_step_matches_reference(self, rng):
        ks = uniform_keyset(100, Domain(0, 1500), rng)
        ws = GreedyWorkspace(ks.keys, 1)
        key_ws, loss_ws = ws.best_candidate()
        cands = _interior_endpoints_raw(ks.keys)
        losses = _poisoning_losses_raw(ks.keys, cands)
        assert loss_ws == pytest.approx(float(losses.max()), rel=1e-9)
        ref_at_choice = losses[np.searchsorted(cands, key_ws)]
        assert ref_at_choice == pytest.approx(float(losses.max()),
                                              rel=1e-9)

    def test_sequence_of_steps_matches(self, rng):
        ks = uniform_keyset(60, Domain(0, 900), rng)
        ws = GreedyWorkspace(ks.keys, 10)
        raw = ks.keys.copy()
        for _ in range(10):
            cands = _interior_endpoints_raw(raw)
            losses = _poisoning_losses_raw(raw, cands)
            got_key, got_loss = ws.best_candidate()
            assert got_loss == pytest.approx(float(losses.max()),
                                             rel=1e-9)
            ws.insert(got_key)
            raw = np.insert(raw, int(np.searchsorted(raw, got_key)),
                            got_key)


@given(st.lists(st.integers(min_value=0, max_value=3_000), min_size=4,
                max_size=80, unique=True))
@settings(max_examples=50, deadline=None)
def test_workspace_matches_reference_on_random_keysets(raw):
    """Property: in-place math == straightforward math, bit for bit."""
    keys = np.unique(np.asarray(raw, dtype=np.int64))
    cands = _interior_endpoints_raw(keys)
    ws = GreedyWorkspace(keys, 1)
    if cands.size == 0:
        with pytest.raises(KeySpaceExhausted):
            ws.best_candidate()
        return
    losses = _poisoning_losses_raw(keys, cands)
    ref_max = float(losses.max())
    got_key, got_loss = ws.best_candidate()
    # The two code paths may differ in the last ulp, so require the
    # workspace to achieve the reference maximum (and pick a key whose
    # reference loss is that maximum), not bit-equality.
    tol = 1e-9 * max(1.0, abs(ref_max))
    assert abs(got_loss - ref_max) <= tol
    ref_at_choice = float(losses[np.searchsorted(cands, got_key)])
    assert abs(ref_at_choice - ref_max) <= tol
