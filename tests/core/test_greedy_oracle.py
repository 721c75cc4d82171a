"""Whole Algorithm-1 runs equal the recomputing workspace, bit for bit.

``greedy_poison`` keeps a gap table across steps; the oracle in
``tests/greedy_oracle.py`` re-derives the gaps and ranks every step,
in the same float op order.  Each run must return the same keys, the
same loss bits (compared as ``float64`` bytes, not within a
tolerance) and stop at the same exhaustion point.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedy_oracle import recomputing_greedy
from repro.core import greedy_poison
from repro.data import KeySet
from repro.runtime import stable_seed_words


def loss_bits(losses) -> list[bytes]:
    return [np.float64(x).tobytes() for x in losses]


def assert_same_run(keys: np.ndarray, budget: int) -> None:
    want_keys, want_losses, want_exhausted = recomputing_greedy(keys,
                                                                budget)
    got = greedy_poison(KeySet(keys), budget)
    assert got.poison_keys.tolist() == want_keys
    assert loss_bits(got.losses) == loss_bits(want_losses)
    assert got.exhausted == want_exhausted


def keys_from_steps(offset: int, steps) -> np.ndarray:
    """Sorted unique keys: ``offset`` then each step past the last."""
    return offset + np.cumsum([0] + list(steps)).astype(np.int64)


# A step of 1 extends a contiguous run, 2 leaves a single-slot gap.
gap_steps = st.lists(st.one_of(st.integers(1, 3), st.integers(4, 400)),
                     min_size=1, max_size=80)
offsets = st.one_of(st.just(0), st.integers(0, 10_000),
                    st.integers(2**40 - 10_000, 2**40))


@given(offsets, gap_steps, st.integers(0, 120))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_whole_runs_match_the_oracle(offset, gaps, budget):
    assert_same_run(keys_from_steps(offset, gaps), budget)


class TestSeededFuzzLoop:
    """Seeded runs, reproducible from the printed seed alone."""

    @pytest.mark.parametrize("seed", range(30))
    def test_random_runs_match_the_oracle(self, seed):
        rng = np.random.default_rng(stable_seed_words("greedy-oracle",
                                                      seed))
        n = int(rng.integers(2, 600))
        # Every third run is dense (contiguous runs and single-slot
        # gaps) with a budget that outruns its interior, so it
        # exhausts; the others mix in wide gaps.
        exhausts = seed % 3 == 0
        widest = 3 if exhausts else int(rng.choice([3, 12, 200]))
        gaps = rng.integers(1, widest + 1, size=n - 1)
        offset = int(rng.choice([0, 2**40 - int(gaps.sum())]))
        keys = keys_from_steps(offset, gaps)
        interior = int(keys[-1] - keys[0] + 1) - n
        budget = (interior + int(rng.integers(1, 20)) if exhausts
                  else int(rng.integers(0, min(interior, 300) + 1)))
        assert_same_run(keys, budget)

    def test_large_keyset_long_run(self, rng):
        keys = np.sort(rng.choice(100_000, size=5_000,
                                  replace=False)).astype(np.int64)
        assert_same_run(keys, 600)
