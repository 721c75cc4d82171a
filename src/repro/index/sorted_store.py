"""Sorted in-memory record store with last-mile local search.

The learned-index substrate of Section III-A: key-record pairs live in
a dense, sorted, in-memory array (fixed-length records, logical paging
over a contiguous region).  A learned model predicts a *position*; the
store then performs the "last mile" search around that prediction to
land on the exact slot.

The one local search is :meth:`SortedStore.search_window_batch`: a
binary search within each query's error window ``[pred - max_err,
pred + max_err]``, the strategy the original LIS paper uses when
per-model error bounds are stored.  It counts *probed cells*, the
implementation-independent cost proxy used by :mod:`repro.index.cost`
(the paper's nanosecond benchmark is not public, see Sec. III-C).
"""

from __future__ import annotations

import numpy as np

from .batch import BatchProbeResult, windowed_search_batch

__all__ = ["SortedStore"]


class SortedStore:
    """A dense sorted array of unique int64 keys (records implied).

    Records are fixed length, so the rank of a key *is* its memory
    location up to a constant factor — exactly the reduction the
    learned index exploits.
    """

    __slots__ = ("_keys",)

    def __init__(self, keys: np.ndarray):
        arr = np.asarray(keys, dtype=np.int64)
        if arr.size == 0:
            raise ValueError("store must hold at least one key")
        if np.any(np.diff(arr) <= 0):
            raise ValueError("store keys must be strictly increasing")
        self._keys = arr
        self._keys.setflags(write=False)

    @property
    def keys(self) -> np.ndarray:
        """The stored keys (read-only view)."""
        return self._keys

    def __len__(self) -> int:
        return int(self._keys.size)

    def search_window_batch(self, keys: np.ndarray,
                            predicted: np.ndarray,
                            max_error: np.ndarray | int,
                            ) -> BatchProbeResult:
        """Binary-search each key inside ``[predicted - e, predicted + e]``.

        ``predicted`` aligns with ``keys``; ``max_error`` is the
        model's worst-case position error, a scalar or per-query
        array, and the window is clipped to the array.  Larger
        post-poisoning errors directly inflate the probe count (log of
        the window plus verification).
        """
        n = self._keys.size
        keys = np.asarray(keys, dtype=np.int64)
        predicted = np.asarray(predicted, dtype=np.int64)
        err = np.broadcast_to(np.asarray(max_error, dtype=np.int64),
                              keys.shape)
        lo = np.maximum(0, predicted - err)
        hi = np.minimum(n - 1, predicted + err)
        return windowed_search_batch(self._keys, keys, lo, hi)
