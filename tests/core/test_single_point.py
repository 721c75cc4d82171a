"""Unit + property tests for the optimal single-point attack."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    KeySpaceExhausted,
    discrete_derivative,
    find_gaps,
    fit_cdf_regression,
    loss_landscape,
    optimal_single_point,
    poisoning_losses,
)
from repro.data import Domain, KeySet, uniform_keyset


class TestPoisoningLosses:
    def test_matches_direct_refit(self, small_keyset):
        """Vectorised O(1)-per-candidate loss equals refit from scratch."""
        candidates = loss_landscape(small_keyset)[0][:25]
        fast = poisoning_losses(small_keyset, candidates)
        for cand, loss in zip(candidates, fast):
            direct = fit_cdf_regression(
                small_keyset.insert([int(cand)])).mse
            assert loss == pytest.approx(direct, rel=1e-9, abs=1e-9)

    def test_empty_candidates(self, small_keyset):
        got = poisoning_losses(small_keyset, np.array([], dtype=np.int64))
        assert got.size == 0

    def test_losses_nonnegative(self, medium_keyset):
        _, losses = loss_landscape(medium_keyset)
        assert np.all(losses >= 0.0)

    def test_narrow_band_large_magnitude(self):
        """Numerical stability at second-stage scale (keys near 1e9)."""
        base = 1_000_000_000
        keys = base + np.array([0, 3, 7, 11, 19, 23, 31, 40])
        ks = KeySet(keys)
        cand = np.array([base + 1, base + 12, base + 30])
        fast = poisoning_losses(ks, cand)
        for c, loss in zip(cand, fast):
            direct = fit_cdf_regression(ks.insert([int(c)])).mse
            assert loss == pytest.approx(direct, rel=1e-6, abs=1e-6)


class TestOptimalSinglePoint:
    def test_increases_loss(self, small_keyset, rng):
        large = uniform_keyset(10_000, Domain(0, 99_999), rng)
        for keyset in (small_keyset, large):
            result = optimal_single_point(keyset)
            assert result.loss_after > result.loss_before
            assert result.ratio_loss > 1.0

    def test_key_is_unoccupied_and_interior(self, small_keyset):
        result = optimal_single_point(small_keyset)
        assert result.key not in small_keyset
        assert small_keyset.keys[0] < result.key < small_keyset.keys[-1]

    def test_exhausted_interior_raises(self):
        with pytest.raises(KeySpaceExhausted):
            optimal_single_point(KeySet([4, 5, 6, 7]))

    def test_interior_false_uses_boundary_gaps(self):
        ks = KeySet([4, 5, 6, 7], Domain(0, 10))
        result = optimal_single_point(ks, interior_only=False)
        assert result.key in set(range(0, 4)) | set(range(8, 11))

    def test_beats_every_other_candidate(self, small_keyset):
        result = optimal_single_point(small_keyset)
        _, losses = loss_landscape(small_keyset)
        assert result.loss_after == pytest.approx(float(losses.max()),
                                                  rel=1e-12)

    def test_ratio_loss_with_zero_before(self):
        """A perfectly linear CDF has zero loss; ratio degrades to inf."""
        ks = KeySet([0, 10, 20, 30, 40])
        result = optimal_single_point(ks)
        assert result.loss_before == pytest.approx(0.0, abs=1e-12)
        assert result.ratio_loss == float("inf")

    def test_two_keys_minimal_input(self):
        ks = KeySet([0, 10])
        result = optimal_single_point(ks)
        assert 0 < result.key < 10


class TestLossLandscape:
    def test_covers_every_interior_slot(self, tiny_keyset):
        candidates, losses = loss_landscape(tiny_keyset)
        assert candidates.tolist() == [3, 4, 5, 8, 9, 10, 11]
        assert losses.shape == candidates.shape

    def test_convexity_within_each_gap(self, medium_keyset):
        """Theorem 2: second difference >= 0 inside every gap."""
        candidates, losses = loss_landscape(medium_keyset)
        gaps = find_gaps(medium_keyset)
        for lo, hi in zip(gaps.lefts, gaps.rights):
            mask = (candidates >= lo) & (candidates <= hi)
            piece = losses[mask]
            if piece.size < 3:
                continue
            second = discrete_derivative(discrete_derivative(piece))
            assert second.min() >= -1e-6 * max(1.0, abs(piece).max())

    def test_gap_maximum_at_endpoint(self, medium_keyset):
        """Corollary of Theorem 2 — the basis of the O(n) attack."""
        candidates, losses = loss_landscape(medium_keyset)
        gaps = find_gaps(medium_keyset)
        for lo, hi in zip(gaps.lefts, gaps.rights):
            mask = (candidates >= lo) & (candidates <= hi)
            piece = losses[mask]
            if piece.size == 0:
                continue
            interior_max = float(piece.max())
            endpoint_max = max(float(piece[0]), float(piece[-1]))
            assert endpoint_max == pytest.approx(interior_max, rel=1e-12)


@given(st.lists(st.integers(min_value=0, max_value=3_000), min_size=3,
                max_size=80, unique=True))
@settings(max_examples=50, deadline=None)
def test_vectorised_loss_equals_refit_everywhere(raw):
    """Property: equations (13) == refit, for every unoccupied key."""
    ks = KeySet(raw)
    candidates, losses = loss_landscape(ks)
    if candidates.size == 0:
        return
    # Spot-check up to 10 random positions to keep runtime bounded.
    picks = np.linspace(0, candidates.size - 1,
                        min(10, candidates.size)).astype(int)
    for i in picks:
        direct = fit_cdf_regression(ks.insert([int(candidates[i])])).mse
        assert losses[i] == pytest.approx(direct, rel=1e-7, abs=1e-7)


@given(st.lists(st.integers(min_value=0, max_value=1_500), min_size=3,
                max_size=60, unique=True))
@settings(max_examples=50, deadline=None)
def test_optimum_never_below_any_candidate(raw):
    """Property: the chosen key's loss is the global maximum."""
    ks = KeySet(raw)
    try:
        result = optimal_single_point(ks)
    except KeySpaceExhausted:
        return
    _, losses = loss_landscape(ks)
    assert result.loss_after >= float(losses.max()) - 1e-9
