"""Vectorized batched lookups: the online-serving hot path.

The scalar lookup APIs (`SortedStore.search_window`,
`RecursiveModelIndex.lookup`, ...) pay Python-interpreter overhead per
key, which dominates once a workload replays millions of queries.
This module vectorizes the *identical* algorithm: a batch of windowed
binary searches advances all active queries one comparison per numpy
pass, so the per-key cost collapses to a handful of ufunc launches per
``log2(window)`` rounds.

Equivalence contract
--------------------
:func:`windowed_search_batch` performs, per element, exactly the loop
of :meth:`repro.index.sorted_store.SortedStore.search_window`: same
midpoint sequence, same early exit on a hit, same probe count.  The
batched index lookups built on it therefore return bit-identical
positions and probes to their scalar counterparts — pinned by
``tests/index/test_batch_lookup.py`` — which is what lets the serving
simulator batch queries without changing any measured cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BatchProbeResult", "BatchLookupResult",
           "windowed_search_batch", "side_table_search", "merge_disjoint",
           "drop_sorted"]


@dataclass(frozen=True)
class BatchProbeResult:
    """Vector analogue of :class:`~repro.index.sorted_store.ProbeResult`.

    Attributes
    ----------
    positions:
        0-based slot per query, ``-1`` where absent.
    probes:
        Array cells touched per query (the lookup cost proxy).
    """

    positions: np.ndarray
    probes: np.ndarray

    @property
    def found(self) -> np.ndarray:
        """Boolean mask of queries that landed on a stored key."""
        return self.positions >= 0

    def __len__(self) -> int:
        return int(self.positions.size)


@dataclass(frozen=True)
class BatchLookupResult:
    """Vector analogue of :class:`~repro.index.rmi.LookupResult`."""

    found: np.ndarray
    positions: np.ndarray
    probes: np.ndarray
    model_index: np.ndarray

    def __len__(self) -> int:
        return int(self.positions.size)


def side_table_search(side: np.ndarray, queries: np.ndarray,
                      found: np.ndarray, probes: np.ndarray,
                      positions: np.ndarray | None = None,
                      offset: int = 0) -> None:
    """Binary-search a sorted side table for the still-missing queries.

    The shared miss-path idiom of every structure that pairs a model
    with side lists (delta buffers, quarantines, tombstone shadows):
    queries not yet ``found`` pay a full-range binary search over
    ``side``, accumulating into ``probes`` in place; hits flip
    ``found`` and, when a ``positions`` array is given, record
    ``offset + slot``.  One implementation keeps the probe accounting
    bit-identical everywhere the idiom appears — the scalar/batch and
    jobs-parity guarantees both lean on that.
    """
    miss = np.nonzero(~found)[0]
    if miss.size == 0 or side.size == 0:
        return
    lo = np.zeros(miss.size, dtype=np.int64)
    hi = np.full(miss.size, side.size - 1, dtype=np.int64)
    probe = windowed_search_batch(side, queries[miss], lo, hi)
    probes[miss] += probe.probes
    hit = probe.found
    found[miss[hit]] = True
    if positions is not None:
        positions[miss[hit]] = offset + probe.positions[hit]


def merge_disjoint(*parts: np.ndarray) -> np.ndarray:
    """One sorted array from sorted, unique, pairwise-disjoint parts.

    The array ``np.sort(np.concatenate(parts))`` and ``union1d``
    return on such parts — what a retrain folds its side tables into
    — without re-sorting them: each later part is inserted at its
    ``searchsorted`` slots, one memmove per part.
    """
    merged = parts[0]
    for part in parts[1:]:
        if part.size:
            merged = np.insert(merged, np.searchsorted(merged, part),
                               part)
    return merged


def drop_sorted(keys: np.ndarray, drop: np.ndarray) -> np.ndarray:
    """``setdiff1d(keys, drop)`` for a sorted, unique ``keys``, without
    the re-sort: the keys of ``drop`` found in ``keys`` are deleted at
    their ``searchsorted`` slots, one memmove.  ``drop`` may be in any
    order, repeat, or name absent keys; ``keys`` itself comes back
    when none of it is present.
    """
    if keys.size == 0 or drop.size == 0:
        return keys
    slots = np.searchsorted(keys, drop)
    slots = slots[keys[np.minimum(slots, keys.size - 1)] == drop]
    if slots.size == 0:
        return keys
    return np.delete(keys, slots)


def windowed_search_batch(sorted_keys: np.ndarray, queries: np.ndarray,
                          lo: np.ndarray,
                          hi: np.ndarray) -> BatchProbeResult:
    """Binary-search every query inside its own ``[lo, hi]`` window.

    All arrays align element-for-element with ``queries``; ``lo > hi``
    denotes an empty window (zero probes, not found).  Each numpy pass
    advances every still-active query by one comparison, mirroring the
    scalar loop exactly: probe the midpoint, stop on equality, else
    halve the window.  Total passes are bounded by the widest window's
    ``log2``, so a batch of B queries over windows of width W costs
    ``O(log W)`` vectorized steps instead of ``O(B log W)`` interpreted
    ones.
    """
    keys = np.asarray(sorted_keys)
    queries = np.asarray(queries, dtype=keys.dtype)
    lo = np.array(lo, dtype=np.int64, copy=True)
    hi = np.array(hi, dtype=np.int64, copy=True)
    positions = np.full(queries.shape, -1, dtype=np.int64)
    probes = np.zeros(queries.shape, dtype=np.int64)

    if queries.size <= 16:
        # Small batches lose to ufunc dispatch: a whole vectorized
        # pass costs ~a dozen array ops to advance each query one
        # comparison, so below ~16 queries the interpreted loop —
        # the *same* midpoint sequence and early exit — is faster.
        # This is the shape of single-key lookups (range endpoints,
        # op-by-op replays) and of a short segment's side-table misses.
        for i, (query, low, high) in enumerate(
                zip(queries.tolist(), lo.tolist(), hi.tolist())):
            cost = 0
            while low <= high:
                mid = (low + high) // 2
                cost += 1
                stored = int(keys[mid])
                if stored == query:
                    positions[i] = mid
                    break
                if stored < query:
                    low = mid + 1
                else:
                    high = mid - 1
            probes[i] = cost
        return BatchProbeResult(positions=positions, probes=probes)

    active = lo <= hi
    while np.any(active):
        idx = np.nonzero(active)[0]
        mid = (lo[idx] + hi[idx]) // 2
        probes[idx] += 1
        stored = keys[mid]
        q = queries[idx]

        hit = stored == q
        positions[idx[hit]] = mid[hit]
        active[idx[hit]] = False

        go_right = stored < q
        right = idx[go_right & ~hit]
        lo[right] = mid[go_right & ~hit] + 1
        left = idx[~go_right & ~hit]
        hi[left] = mid[~go_right & ~hit] - 1

        still = idx[~hit]
        active[still] = lo[still] <= hi[still]

    return BatchProbeResult(positions=positions, probes=probes)
