"""The scalar last-mile search, and the index lookups built on it.

Every index in :mod:`repro.index` answers lookups in batches, through
:func:`repro.index.windowed_search_batch`, which walks a binary
search's midpoint path in index space without reading a key.  This
module keeps the search that does read keys: :func:`binary_search`,
the textbook loop over one ``[lo, hi]`` window, with its early exit
on a hit and one probe per midpoint.  :func:`search_window` clips a
prediction's error window to the array as the store does, and
:func:`rmi_lookup`, :func:`linear_lookup` and :func:`dynamic_lookup`
are one key's route, predict and search through each index's public
parts.  A batched lookup must return, per element, exactly the found
flag, position, probe count and model index these give.  Imported as
``search_oracle``, like ``greedy_oracle``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class Probe(NamedTuple):
    """One search: the 0-based slot (``-1`` when absent) and the
    cells it read."""

    position: int
    probes: int

    @property
    def found(self) -> bool:
        return self.position >= 0


class Lookup(NamedTuple):
    """One model-routed lookup."""

    found: bool
    position: int
    probes: int
    model_index: int


def binary_search(keys: np.ndarray, key: int, lo: int, hi: int) -> Probe:
    """Binary-search ``keys[lo..hi]`` (sorted, unique) for ``key``;
    an empty window (``lo > hi``) reads nothing."""
    probes = 0
    while lo <= hi:
        mid = (lo + hi) // 2
        probes += 1
        stored = int(keys[mid])
        if stored == key:
            return Probe(mid, probes)
        if stored < key:
            lo = mid + 1
        else:
            hi = mid - 1
    return Probe(-1, probes)


def search_window(keys: np.ndarray, key: int, predicted: int,
                  max_error: int) -> Probe:
    """Binary search inside ``[predicted - e, predicted + e]``, clipped
    to the array."""
    return binary_search(keys, key, max(0, predicted - max_error),
                         min(len(keys) - 1, predicted + max_error))


def _clamped(prediction: float, n: int) -> int:
    return min(max(int(np.rint(prediction)), 0), n - 1)


def rmi_lookup(rmi, key: int) -> Lookup:
    """Route, predict, and search the routed expert's recorded error
    window, widened by one cell of rounding slack on either side."""
    model_index = rmi.route_key(key)
    model = rmi.models[model_index]
    keys = rmi.store.keys
    window = max(abs(model.err_lo - 1), abs(model.err_hi + 1))
    probe = search_window(
        keys, key, _clamped(model.predict(float(key)), len(keys)), window)
    return Lookup(probe.found, probe.position, probe.probes, model_index)


def linear_lookup(index, key: int) -> Probe:
    """Predict with the one line, then search its recorded error
    window."""
    keys = index.store.keys
    return search_window(
        keys, key, _clamped(index.model.predict(float(key)), len(keys)),
        index.max_error)


def dynamic_lookup(index, key: int) -> Lookup:
    """The RMI over the base, then a full-range search of the delta
    buffer and then of the quarantine list; every probe counts."""
    base = rmi_lookup(index.rmi, key)
    if base.found:
        return base
    probes = base.probes
    offset = len(index.rmi.store)
    for side in (index.delta_keys, index.quarantine_keys):
        probe = binary_search(side, key, 0, side.size - 1)
        probes += probe.probes
        if probe.found:
            return Lookup(True, offset + probe.position, probes,
                          base.model_index)
        offset += side.size
    return Lookup(False, -1, probes, base.model_index)
