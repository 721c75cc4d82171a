"""Single-model learned index: one linear regression over the CDF.

The simplest learned index — the building block Section IV attacks
directly.  One line predicts the position of every key; a lookup
binary-searches the window of the recorded training error around the
prediction, so the index is always correct for stored keys and its
cost grows with the model error.
"""

from __future__ import annotations

import numpy as np

from ..core.cdf_regression import LinearModel, fit_cdf_regression
from ..data.keyset import KeySet
from .batch import BatchProbeResult
from .sorted_store import SortedStore

__all__ = ["LinearLearnedIndex"]


class LinearLearnedIndex:
    """A learned index backed by a single :class:`LinearModel`."""

    def __init__(self, keyset: KeySet | np.ndarray):
        keys = keyset.keys if isinstance(keyset, KeySet) else np.asarray(
            keyset, dtype=np.int64)
        self._store = SortedStore(keys)
        # Fit on 0-based positions (rank - 1): position == memory slot.
        fit = fit_cdf_regression(keys, np.arange(keys.size, dtype=np.float64))
        self._model = fit.model
        self._mse = fit.mse
        # Worst observed position error over the training keys (+1 for
        # rounding slack) — the window a lookup searches.
        errors = (np.arange(keys.size, dtype=np.float64)
                  - fit.model.predict(keys))
        self._max_error = int(np.ceil(np.abs(errors).max())) + 1

    @property
    def model(self) -> LinearModel:
        """The fitted two-parameter model."""
        return self._model

    @property
    def mse(self) -> float:
        """Training MSE (position scale) — the attack's target."""
        return self._mse

    @property
    def store(self) -> SortedStore:
        """The backing sorted array."""
        return self._store

    @property
    def max_error(self) -> int:
        """Recorded worst-case position error (with rounding slack)."""
        return self._max_error

    def lookup_batch(self, keys: np.ndarray) -> BatchProbeResult:
        """Locate keys: clamped prediction + windowed last-mile search.

        The window is the *recorded* training error bound around each
        prediction, so every stored key is inside it, and the probe
        counts follow the windowed-search cost model of the RMI.
        """
        keys = np.asarray(keys, dtype=np.int64)
        n = len(self._store)
        predicted = np.rint(self._model.predict(keys)).astype(np.int64)
        predicted = np.clip(predicted, 0, n - 1)
        return self._store.search_window_batch(keys, predicted,
                                               self._max_error)

    def lookup_cost(self, keys: np.ndarray) -> float:
        """Mean probes over a batch — rises as poisoning inflates MSE."""
        keys = np.asarray(keys)
        if keys.size == 0:
            raise ValueError("need at least one key to measure cost")
        return float(self.lookup_batch(keys).probes.mean())
