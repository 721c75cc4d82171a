"""Tests pinning the fast attack to the brute-force oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    KeySpaceExhausted,
    brute_force_single_point,
    exhaustive_multi_point,
    fit_cdf_regression,
    greedy_poison,
    optimal_single_point,
)
from repro.data import Domain, KeySet, uniform_keyset


class TestBruteForceSinglePoint:
    def test_equals_fast_attack(self, small_keyset):
        fast = optimal_single_point(small_keyset)
        slow = brute_force_single_point(small_keyset)
        assert fast.key == slow.key
        assert fast.loss_after == pytest.approx(slow.loss_after, rel=1e-9)

    def test_multiple_seeds(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            ks = uniform_keyset(40, Domain(0, 400), rng)
            fast = optimal_single_point(ks)
            slow = brute_force_single_point(ks)
            assert fast.key == slow.key, f"seed {seed}"
            assert fast.loss_after == pytest.approx(slow.loss_after,
                                                    rel=1e-9)

    def test_exhausted_raises(self):
        with pytest.raises(KeySpaceExhausted):
            brute_force_single_point(KeySet([1, 2, 3]))

    def test_non_interior_mode(self):
        ks = KeySet([4, 5, 6], Domain(0, 9))
        fast = optimal_single_point(ks, interior_only=False)
        slow = brute_force_single_point(ks, interior_only=False)
        assert fast.key == slow.key


class TestExhaustiveMultiPoint:
    def test_single_point_case_matches(self, tiny_keyset):
        best_set, best_loss = exhaustive_multi_point(tiny_keyset, 1)
        single = optimal_single_point(tiny_keyset)
        assert best_set.tolist() == [single.key]
        assert best_loss == pytest.approx(single.loss_after, rel=1e-9)

    def test_greedy_close_to_exhaustive_pairs(self):
        """Sec. IV-D: greedy empirically matches the brute force."""
        for seed in range(5):
            rng = np.random.default_rng(seed)
            ks = uniform_keyset(12, Domain(0, 60), rng)
            _, best_loss = exhaustive_multi_point(ks, 2)
            greedy = greedy_poison(ks, 2)
            assert greedy.loss_after >= 0.85 * best_loss, f"seed {seed}"

    def test_refuses_explosive_search(self, medium_keyset):
        with pytest.raises(ValueError):
            exhaustive_multi_point(medium_keyset, 5)

    def test_insufficient_candidates(self):
        ks = KeySet([1, 3])  # a single unoccupied slot
        with pytest.raises(KeySpaceExhausted):
            exhaustive_multi_point(ks, 2)


@given(st.lists(st.integers(min_value=0, max_value=600), min_size=4,
                max_size=40, unique=True))
@settings(max_examples=30, deadline=None)
@example([0, 130, 131, 173, 174, 304])
def test_fast_attack_is_never_beaten_by_brute_force(raw):
    """Property: the O(n) attack achieves the brute-force maximum.

    Keys that tie in exact arithmetic (132 and 172 on the
    mirror-symmetric example) may resolve either way in floating
    point, so the fast attack's key is re-scored with the brute
    force's own refit rather than compared to the brute force's key.
    """
    ks = KeySet(raw)
    try:
        fast = optimal_single_point(ks)
    except KeySpaceExhausted:
        return
    slow = brute_force_single_point(ks)
    assert fast.loss_after == pytest.approx(slow.loss_after, rel=1e-9)
    refit = fit_cdf_regression(ks.insert(np.asarray([fast.key]))).mse
    assert refit == pytest.approx(slow.loss_after, rel=1e-12)
