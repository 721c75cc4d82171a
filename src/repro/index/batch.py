"""Vectorized batched lookups: the online-serving hot path.

The scalar lookup APIs (`SortedStore.search_window`,
`RecursiveModelIndex.lookup`, ...) pay Python-interpreter overhead per
key, which dominates once a workload replays millions of queries.
This module vectorizes the *identical* algorithm.  A binary search's
comparisons in a sorted unique table depend only on the query's rank
there (its count of smaller keys) and on whether the table holds it,
so a batch of windowed searches is one ``searchsorted`` for the ranks
plus a walk of the midpoint path in index space: ``log2(window)``
rounds of a handful of ufunc launches over the whole batch, none of
which touches a key.

Equivalence contract
--------------------
:func:`windowed_search_batch` performs, per element, exactly the loop
of :meth:`repro.index.sorted_store.SortedStore.search_window`: same
midpoint sequence, same early exit on a hit, same probe count.
:func:`path_probes` is that walk, and the one place the probe count of
a binary search is computed: the side-table searches of every
structure and the serving replay's as-of counts
(:func:`repro.workload.columnar.search_probes`) call it too.  The
batched index lookups built on it therefore return bit-identical
positions and probes to their scalar counterparts — pinned by
``tests/index/test_batch_lookup.py`` — which is what lets the serving
simulator batch queries without changing any measured cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BatchProbeResult", "BatchLookupResult",
           "windowed_search_batch", "path_probes", "side_table_search",
           "merge_disjoint", "drop_sorted"]


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

    ``sorted_keys`` is sorted and unique; all other arrays align
    element-for-element with ``queries``, and ``lo > hi`` denotes an
    empty window (zero probes, not found).  The scalar loop's
    comparisons depend only on where the query ranks among the keys,
    so one ``searchsorted`` gives each query's rank and
    :func:`path_probes` walks the same midpoint path in index space;
    a stored key is found, at its rank, exactly when the rank lies in
    its window.
    """
    keys = np.asarray(sorted_keys)
    queries = np.asarray(queries, dtype=keys.dtype)
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    rank = np.searchsorted(keys, queries)
    if keys.size:
        member = keys[np.minimum(rank, keys.size - 1)] == queries
    else:
        member = np.zeros(queries.shape, dtype=bool)
    found = member & (lo <= rank) & (rank <= hi)
    return BatchProbeResult(positions=np.where(found, rank, -1),
                            probes=path_probes(lo, hi, rank, member))


def path_probes(lo: np.ndarray, hi: np.ndarray, rank: np.ndarray,
                member: np.ndarray) -> np.ndarray:
    """Probes of a binary search of ``[lo, hi]``, per query, for a key
    with ``rank`` smaller keys in a sorted unique table that holds it
    (``member``) or not.

    The scalar loop's outcome at a midpoint is fixed by the rank
    alone: ``keys[mid] < q`` is ``mid < rank``, and a stored key stops
    the search at ``mid == rank``.  So the walk never reads a key:
    ``lo`` moves past ``mid`` while ``mid < rank + member`` and ``hi``
    while ``mid >= rank``: a hit moves both, which empties the window.
    An empty window stays empty, so every round is the same
    arithmetic over whole arrays, and ``bit_length`` of the widest
    window rounds finish every search.
    """
    lo = np.array(lo, dtype=np.int64)
    hi = np.array(hi, dtype=np.int64)
    below = rank + member
    if lo.size <= 16:
        # Small batches lose to ufunc dispatch: a round costs ten
        # array ops whatever the batch size, so below ~16 queries the
        # same walk, one query at a time, is faster.  This is the
        # shape of single-key lookups and of a short segment's
        # side-table misses.
        probes = []
        for low, high, lo_moves, hi_moves in zip(
                lo.tolist(), hi.tolist(), below.tolist(), rank.tolist()):
            cost = 0
            while low <= high:
                mid = (low + high) // 2
                cost += 1
                if mid < lo_moves:
                    low = mid + 1
                if mid >= hi_moves:
                    high = mid - 1
            probes.append(cost)
        return np.asarray(probes, dtype=np.int64).reshape(lo.shape)
    probes = np.zeros(lo.shape, dtype=np.int64)
    widest = int((hi - lo).max(initial=-1)) + 1
    mid = np.empty_like(lo)
    moved = np.empty_like(lo)
    step = np.empty(lo.shape, dtype=bool)
    for _ in range(max(widest, 0).bit_length()):
        np.add(lo, hi, out=mid)
        np.right_shift(mid, 1, out=mid)
        np.less_equal(lo, hi, out=step)
        probes += step
        np.less(mid, below, out=step)
        np.add(mid, 1, out=moved)
        np.copyto(lo, moved, where=step)
        np.greater_equal(mid, rank, out=step)
        np.subtract(mid, 1, out=moved)
        np.copyto(hi, moved, where=step)
    return probes
