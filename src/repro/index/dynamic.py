"""A dynamic (updatable) learned index with a delta buffer.

The paper's final future-work item: "as more follow-up works support
updates and deletions we need to consider adversaries that use the
update functionality of LIS to expand their attack surface."  This
module provides the substrate for that study: a learned index that
accepts inserts after construction, in the style of the
delta-buffer designs the paper cites (Hadian & Heinis; ALEX keeps
gaps instead, but the attack surface — retraining on attacker-
influenced data — is the same).

Design:

* the trained :class:`~repro.index.rmi.RecursiveModelIndex` serves
  the *base* keys;
* new keys land in a sorted *delta buffer*, searched by binary search
  on every lookup (so lookups stay correct but pay an extra
  ``O(log |delta|)``);
* when the buffer exceeds ``retrain_threshold`` (a fraction of the
  base size), base and delta merge and the RMI **retrains on the
  merged keys** — which is exactly the poisoning window: an adversary
  feeding crafted keys through the public ``insert`` API poisons the
  next retraining cycle without ever touching the initial build.

:meth:`DynamicLearnedIndex.lookup` reports probes so experiments can
watch the update-channel attack degrade post-retrain performance.

Defense hook: a ``sanitizer`` (e.g. TRIM) may screen every retrain's
training set.  Keys it rejects are *quarantined*, not dropped: they
move to a slow side list that stays binary-searchable, so lookups
remain correct while the learned models only ever train on keys the
defense trusts.  Quarantined keys re-enter the candidate pool at each
retrain, so a once-suspect key can be rehabilitated.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..data.keyset import KeySet
from .batch import BatchLookupResult, merge_disjoint, side_table_search
from .rmi import LookupResult, RecursiveModelIndex

__all__ = ["DynamicLearnedIndex"]

#: The empty delta buffer (read-only, like every buffer state).
_NO_KEYS = np.empty(0, dtype=np.int64)
_NO_KEYS.setflags(write=False)


class DynamicLearnedIndex:
    """RMI + sorted delta buffer + retrain-on-threshold."""

    def __init__(self, keyset: KeySet | np.ndarray, n_models: int,
                 retrain_threshold: float = 0.1,
                 sanitizer: "Callable[[np.ndarray], np.ndarray] | None"
                 = None, sanitize_initial: bool = False,
                 quarantine_rejects: bool = True):
        """Build the base index.

        Parameters
        ----------
        keyset:
            Initial keys (trusted by default; the sanitizer screens
            *retrains*, where attacker-influenced updates enter the
            training set).
        n_models:
            Second-stage model count for every (re)build; the
            keys-per-model ratio therefore grows with the data, like a
            fixed-architecture deployment.
        retrain_threshold:
            Fraction of the base size the delta buffer may reach
            before a merge + retrain is triggered.
        sanitizer:
            Optional defense at the retrain boundary: receives the
            merged sorted training candidates and returns the subset
            to train on.  Rejected keys are quarantined (still
            served, via binary search) and reconsidered at the next
            retrain.
        sanitize_initial:
            Screen the *initial* build too.  The default trusts the
            construction keys (the paper's threat model); a caller
            rebuilding from a live — possibly already-poisoned — key
            set (a shard migration) passes ``True`` so the first
            model trains only on keys the defense trusts.
        quarantine_rejects:
            With the default ``True``, sanitizer rejects land on the
            quarantine side list (served via binary search,
            reconsidered at the next retrain).  ``False`` — the
            ablation arm — drops them from the index entirely, so
            their lookups miss.
        """
        if not 0.0 < retrain_threshold <= 1.0:
            raise ValueError(
                f"retrain threshold must be in (0, 1]: {retrain_threshold}")
        keys = keyset.keys if isinstance(keyset, KeySet) else np.asarray(
            keyset, dtype=np.int64)
        self._n_models = n_models
        self._threshold = retrain_threshold
        self._sanitizer = sanitizer
        self._quarantine_rejects = bool(quarantine_rejects)
        self._base = np.sort(keys)
        self._delta = _NO_KEYS
        self._quarantine = np.empty(0, dtype=np.int64)
        if sanitize_initial and sanitizer is not None:
            kept = np.sort(np.asarray(sanitizer(self._base),
                                      dtype=np.int64))
            if np.setdiff1d(kept, self._base).size:
                raise ValueError(
                    "sanitizer returned keys outside the training set")
            if self._quarantine_rejects:
                self._quarantine = np.setdiff1d(self._base, kept)
            self._quarantine.setflags(write=False)
            self._base = kept
        self._rmi = RecursiveModelIndex.build_equal_size(self._base,
                                                         n_models)
        self._retrain_count = 0

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def n_keys(self) -> int:
        """Total keys currently stored (base + delta + quarantine)."""
        return (int(self._base.size) + int(self._delta.size)
                + int(self._quarantine.size))

    @property
    def delta_size(self) -> int:
        """Keys waiting in the delta buffer."""
        return int(self._delta.size)

    @property
    def delta_keys(self) -> np.ndarray:
        """The buffered keys (sorted, read-only array)."""
        return self._delta

    @property
    def quarantine_size(self) -> int:
        """Keys the sanitizer rejected from the last retrain."""
        return int(self._quarantine.size)

    @property
    def quarantine_keys(self) -> np.ndarray:
        """The quarantined keys (sorted, read-only view)."""
        return self._quarantine

    @property
    def retrain_count(self) -> int:
        """Number of merge + retrain cycles so far."""
        return self._retrain_count

    @property
    def rmi(self) -> RecursiveModelIndex:
        """The currently trained base index (replaced on retrain)."""
        return self._rmi

    @property
    def retrain_threshold(self) -> float:
        """Delta-buffer fraction of the base that triggers a retrain."""
        return self._threshold

    def set_retrain_threshold(self, threshold: float) -> None:
        """Retarget the retrain trigger on a live index.

        Takes effect at the next :meth:`insert`'s buffer check —
        changing the threshold never retrains on the spot, so a
        defense tuner acting between operations cannot reorder retrain
        timing relative to the operation stream.
        """
        if not 0.0 < threshold <= 1.0:
            raise ValueError(
                f"retrain threshold must be in (0, 1]: {threshold}")
        self._threshold = threshold

    def set_sanitizer(self, sanitizer:
                      "Callable[[np.ndarray], np.ndarray] | None",
                      ) -> None:
        """Swap the retrain-boundary defense on a live index.

        Applies to the next retrain's training set; the current models
        and quarantine are untouched until then (``None`` disarms —
        quarantined keys then rejoin the model at the next merge).
        """
        self._sanitizer = sanitizer

    def second_stage_mse(self) -> np.ndarray:
        """Per-model training MSE of the current base index."""
        return self._rmi.second_stage_mse()

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert(self, key: int) -> bool:
        """Insert one key through the public update API.

        Returns True when the insertion triggered a retrain.  This is
        the channel the update-time adversary uses: its crafted keys
        sit in the buffer until the merge, then poison the retrained
        models.
        """
        key = int(key)
        if self.contains(key):
            raise ValueError(f"duplicate key: {key}")
        self._absorb_fresh(np.asarray([key], dtype=np.int64))
        if self._delta.size >= self._threshold * self._base.size:
            self._merge_and_retrain()
            return True
        return False

    def insert_batch(self, keys: np.ndarray) -> int:
        """Insert many keys; returns the number of retrains triggered."""
        retrains = 0
        for key in np.asarray(keys):
            if self.insert(int(key)):
                retrains += 1
        return retrains

    def _absorb_fresh(self, keys: np.ndarray) -> None:
        """Merge keys into the sorted delta buffer.

        The caller — :meth:`insert`, or a backend's segment replay —
        has already checked every key as absent from base, delta, and
        quarantine, and the replay has split its batch at the retrain
        crossing, so no membership or threshold check runs here; one
        merge leaves the buffer identical to per-key :meth:`insert`
        appends.
        """
        if len(keys):
            self._delta = merge_disjoint(self._delta, np.sort(keys))
            self._delta.setflags(write=False)

    def flush(self) -> None:
        """Force a merge + retrain regardless of the buffer level.

        Models the passage of time in experiments: organic inserts
        would eventually trip the threshold; flushing jumps straight
        to the next training cycle.  No-op on an empty buffer.
        """
        if self._delta.size:
            self._merge_and_retrain()

    def _merge_and_retrain(self) -> None:
        # Base, buffer and quarantine are sorted and pairwise disjoint
        # (every insert is checked absent from all three first).
        merged = merge_disjoint(self._base, self._delta, self._quarantine)
        candidates = merged.size
        quarantine = _NO_KEYS
        if self._sanitizer is not None:
            kept = np.sort(np.asarray(self._sanitizer(merged),
                                      dtype=np.int64))
            if np.setdiff1d(kept, merged).size:
                raise ValueError(
                    "sanitizer returned keys outside the training set")
            if self._quarantine_rejects:
                quarantine = np.setdiff1d(merged, kept)
                quarantine.setflags(write=False)
            merged = kept
        if merged.size < self._n_models:
            # Checked before any state moves, so a failed retrain
            # leaves the index serving exactly what it did before.
            raise ValueError(
                f"retrain kept {merged.size} of {candidates} keys, too "
                f"few for {self._n_models} models")
        self._rmi = RecursiveModelIndex.build_equal_size(
            merged, self._n_models)
        self._base = merged
        self._delta = _NO_KEYS
        self._quarantine = quarantine
        self._retrain_count += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def contains(self, key: int) -> bool:
        """Membership over base, delta, and quarantine."""
        for side in (self._base, self._delta, self._quarantine):
            i = int(np.searchsorted(side, key))
            if i < side.size and int(side[i]) == key:
                return True
        return False

    def lookup(self, key: int) -> LookupResult:
        """Find a key: RMI over the base, then binary search on the
        delta buffer and (when a sanitizer quarantined keys) on the
        quarantine list.

        Probes include every side-list binary-search step, so the cost
        of a swollen buffer — and the slow-path tax a defense pays for
        quarantining — is visible.
        """
        result = self._rmi.lookup(int(key))
        if result.found:
            return result
        # Fall through to the delta buffer, then the quarantine.
        probes = result.probes
        for offset, side in (
                (int(self._base.size), self._delta),
                (int(self._base.size) + int(self._delta.size),
                 self._quarantine)):
            lo, hi = 0, side.size - 1
            while lo <= hi:
                mid = (lo + hi) // 2
                probes += 1
                stored = int(side[mid])
                if stored == key:
                    return LookupResult(found=True,
                                        position=offset + mid,
                                        probes=probes,
                                        model_index=result.model_index)
                if stored < key:
                    lo = mid + 1
                else:
                    hi = mid - 1
        return LookupResult(found=False, position=-1, probes=probes,
                            model_index=result.model_index)

    def lookup_batch(self, keys: np.ndarray) -> BatchLookupResult:
        """Vectorized :meth:`lookup`: batched RMI probe, then one
        batched binary search over the delta buffer for the misses.

        Bit-identical to the scalar path per element — the delta
        search runs the same full-range binary search the scalar loop
        does, so a swollen (or poison-laden) buffer costs exactly the
        same probes either way.
        """
        keys = np.asarray(keys, dtype=np.int64)
        base = self._rmi.lookup_batch(keys)
        found = base.found.copy()
        positions = base.positions.copy()
        probes = base.probes.copy()
        side_table_search(self._delta, keys, found, probes,
                          positions=positions,
                          offset=int(self._base.size))
        side_table_search(self._quarantine, keys, found, probes,
                          positions=positions,
                          offset=int(self._base.size)
                          + int(self._delta.size))
        return BatchLookupResult(found=found, positions=positions,
                                 probes=probes,
                                 model_index=base.model_index)

    def lookup_cost(self, keys: np.ndarray) -> float:
        """Mean probes over a batch of lookups."""
        keys = np.asarray(keys)
        if keys.size == 0:
            raise ValueError("need at least one key to measure cost")
        return float(self.lookup_batch(keys).probes.mean())
