"""Optimal single-point poisoning of a CDF regression (Section IV-C).

The fundamental question of the paper: *which single key insertion
maximises the MSE of the re-trained linear regression on the CDF?*

The answer exploits three observations (see :mod:`repro.core.sequences`):
only gap endpoints need evaluation (per-gap convexity, Theorem 2), and
every evaluation is O(1) given prefix/suffix sums of the legitimate
keys.  This module vectorises all candidate evaluations into one numpy
pass, which keeps the overall attack at the paper's O(n) complexity
with tiny constants.

The key algebra (equations (13) of the paper): inserting candidate
``x`` with insertion rank ``t = |{k < x}| + 1`` into a keyset of size
``n`` produces an augmented set of ``n + 1`` points whose rank multiset
is always ``{1, ..., n+1}``.  Hence ``mean(R)`` and ``mean(R^2)`` are
constants, and only three statistics vary with ``x``:

    sum(K)   -> sum(K) + x
    sum(K^2) -> sum(K^2) + x^2
    sum(K*R) -> sum(K*R) + (sum of keys > x)  +  x * t

The middle term is the *compound effect*: every legitimate key above
``x`` has its rank bumped by one, contributing its own value to the
key-rank cross moment.  Keys are mean-centred before any of this to
keep the arithmetic stable for narrow key bands at large magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.keyset import KeySet
from .cdf_regression import fit_cdf_regression
from .exceptions import KeySpaceExhausted
from .sequences import all_unoccupied_keys, candidate_endpoints

__all__ = [
    "SinglePointResult",
    "poisoning_losses",
    "optimal_single_point",
    "loss_landscape",
]


@dataclass(frozen=True)
class SinglePointResult:
    """Outcome of one optimal poisoning insertion.

    Attributes
    ----------
    key:
        The chosen poisoning key ``k_OPT``.
    loss_before:
        MSE of the regression trained on the legitimate keys.
    loss_after:
        MSE of the regression re-trained on the augmented keyset.
    """

    key: int
    loss_before: float
    loss_after: float

    @property
    def ratio_loss(self) -> float:
        """The paper's evaluation metric: poisoned MSE / clean MSE."""
        if self.loss_before == 0.0:
            return float("inf") if self.loss_after > 0.0 else 1.0
        return self.loss_after / self.loss_before


def _poisoning_losses_raw(keys: np.ndarray,
                          candidates: np.ndarray) -> np.ndarray:
    """Vectorised candidate losses over a raw sorted key array.

    Hot path shared by the public wrapper and the greedy driver
    (which maintains a plain sorted array to avoid re-validating a
    :class:`KeySet` on every insertion).
    """
    n = keys.size
    big_n = n + 1

    # Mean-centre keys (loss is translation invariant).
    centre = float(keys.mean())
    shifted = keys.astype(np.float64) - centre
    cand = candidates.astype(np.float64) - centre

    ranks = np.arange(1, n + 1, dtype=np.float64)
    sum_k = float(shifted.sum())
    sum_k2 = float(shifted @ shifted)
    sum_kr = float(shifted @ ranks)

    # suffix[j] = sum of shifted keys with 0-based index >= j, i.e. the
    # total mass of keys whose rank the insertion bumps by one.
    suffix = np.concatenate(
        [np.cumsum(shifted[::-1])[::-1], np.zeros(1, dtype=np.float64)])

    insert_at = np.searchsorted(keys, candidates, side="left")
    insert_rank = insert_at.astype(np.float64) + 1.0

    tot_k = sum_k + cand
    tot_k2 = sum_k2 + cand * cand
    tot_kr = sum_kr + suffix[insert_at] + cand * insert_rank

    mean_k = tot_k / big_n
    mean_k2 = tot_k2 / big_n
    mean_kr = tot_kr / big_n
    # Rank moments are independent of the candidate: ranks are always
    # exactly {1..n+1} after the insertion.
    mean_r = (big_n + 1) / 2.0
    mean_r2 = (big_n + 1) * (2 * big_n + 1) / 6.0

    var_k = mean_k2 - mean_k * mean_k
    var_r = mean_r2 - mean_r * mean_r
    cov = mean_kr - mean_k * mean_r

    losses = var_r - cov * cov / var_k
    return np.maximum(losses, 0.0)


def poisoning_losses(keyset: KeySet, candidates: np.ndarray) -> np.ndarray:
    """Augmented-regression MSE for every candidate key, vectorised.

    ``candidates`` must contain only unoccupied keys; each entry is
    evaluated as if it were inserted alone.  Runs in O(n + c) for
    ``c`` candidates after an O(n) precomputation.
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    if candidates.size == 0:
        return np.empty(0, dtype=np.float64)
    return _poisoning_losses_raw(keyset.keys, candidates)


def _interior_endpoints_raw(keys: np.ndarray) -> np.ndarray:
    """Gap endpoints of a raw sorted key array (interior gaps only).

    Endpoints are emitted in sorted order without a sort: for the
    i-th gap, ``left_i <= right_i < left_{i+1}``, so interleaving the
    two endpoint arrays is already monotone.  Length-1 gaps emit their
    single slot twice, which is harmless for the argmax (the first
    occurrence wins, preserving smallest-key tie-breaking).
    """
    diffs = np.diff(keys)
    inner = np.nonzero(diffs > 1)[0]
    if inner.size == 0:
        return np.empty(0, dtype=np.int64)
    out = np.empty(2 * inner.size, dtype=np.int64)
    out[0::2] = keys[inner] + 1
    out[1::2] = keys[inner + 1] - 1
    return out


def optimal_single_point(keyset: KeySet,
                         interior_only: bool = True) -> SinglePointResult:
    """Find the poisoning key that maximises the re-trained MSE.

    Only gap endpoints are evaluated (Theorem 2); ties break toward
    the smallest key.  Raises :class:`KeySpaceExhausted` when no
    unoccupied in-range key exists.
    """
    candidates = candidate_endpoints(keyset, interior_only)
    if candidates.size == 0:
        raise KeySpaceExhausted(
            "no unoccupied candidate key inside the legitimate key range")
    losses = poisoning_losses(keyset, candidates)
    best = int(np.argmax(losses))
    loss_before = fit_cdf_regression(keyset).mse
    return SinglePointResult(key=int(candidates[best]),
                             loss_before=loss_before,
                             loss_after=float(losses[best]))


def loss_landscape(keyset: KeySet, interior_only: bool = True
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Loss sequence ``L(kp)`` over every unoccupied key (Fig. 3).

    Returns the candidate keys and their losses; O(m) memory, meant
    for small illustrative domains and for validating the endpoint
    shortcut against exhaustive evaluation.
    """
    candidates = all_unoccupied_keys(keyset, interior_only)
    return candidates, poisoning_losses(keyset, candidates)
