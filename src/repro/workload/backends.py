"""Serving backends: one batched, updatable surface over every index.

The serving simulator replays a trace against "a live index"; this
module gives every index structure in :mod:`repro.index` the same
online surface — batched point lookups, inserts, deletes, range scans
— so a scenario×backend grid compares like with like:

``binary``   plain binary search over a dense sorted array (the
             model-free floor: always correct, ``O(log n)`` probes,
             no retrains, immune to poisoning by construction);
``btree``    the bulk-loaded :class:`~repro.index.btree.BTree` with
             native inserts, tombstoned deletes, compaction rebuilds;
``linear``   the single-line learned index, rebuilt (retrained) when
             buffered updates exceed a threshold;
``rmi``      the two-stage RMI, same rebuild discipline;
``dynamic``  :class:`~repro.index.dynamic.DynamicLearnedIndex` — the
             delta-buffer design whose retrain-on-threshold *is* the
             update-channel attack surface.

Update semantics (uniform across backends): inserts buffer into a
sorted delta side table served by binary search; deletes tombstone
model-resident keys (membership flips immediately, the model is
untouched); once pending updates exceed ``rebuild_threshold`` of the
model's keys, the backend compacts and retrains on the live set.
``insert_batch``/``delete_batch`` are *batch-atomic*: the whole batch
lands, then the rebuild check runs once — a bulk load.  Callers that
need op-exact retrain timing have ``replay_ops``: it applies a whole
op slice (reads and mutations interleaved) with vectorized
classification and batched window searches while firing every rebuild
at the same op index the one-key-at-a-time feed would — the columnar
fast path, pinned bit-identical to the op-by-op oracle of
``tests/replay_oracle.py``.  ``binary``, ``linear``, ``rmi`` and
``dynamic`` share one segment loop, ``ServingBackend._replay_columnar``,
and differ only in its hooks (``dynamic``'s carry its two crossings:
the index's retrain at a fresh insert, the tombstone fold at a delete;
``binary`` has no model, and its one array is its one side table).
A rebuild-free segment costs one model lookup, one read adjustment —
each read against the side tables as they stood at its op — and one
apply of its effects.  Hazard slices and the B-Tree replay on
``_replay_scalar``, a walk over sub-ops.
Probe counts always reflect the *actual* searches performed —
model + delta + quarantine — so a swollen side table or a poisoned
retrain shows up in the latency percentiles honestly.

TRIM defense: the learned backends accept ``trim_keep_fraction``; at
every rebuild the TRIM sanitizer screens the training set and rejected
keys are quarantined on a slow (binary-searched) side list, keeping
lookups correct while the models train only on trusted keys.

Tuner hooks: ``set_trim_keep_fraction`` and ``set_rebuild_threshold``
reconfigure a *live* backend between operations — the knobs a defense
auto-tuner (:class:`repro.workload.closedloop.TrimAutoTuner`) turns
from observed churn and amplification.  Changes take effect at the
next rebuild check; they never trigger one by themselves, so a tuning
decision at a tick boundary cannot move retrain timing inside a tick.

Shard hook: ``live_keys`` exports the backend's current live key set
(model − tombstones + delta + quarantine) as one sorted array — what a
cluster router migrates when a shard splits or merges
(:mod:`repro.cluster`).  It is a read-only snapshot; exporting never
perturbs rebuild timing.
"""

from __future__ import annotations

import hashlib
import struct
import time

import numpy as np

from ..defense.trim import trim_cdf
from ..index.batch import drop_sorted, merge_disjoint, side_table_search
from ..index.btree import BTree
from ..index.dynamic import DynamicLearnedIndex
from ..index.linear_index import LinearLearnedIndex
from ..index.rmi import RecursiveModelIndex
from .columnar import (
    EFF_DROP_DELTA,
    EFF_DROP_QUAR,
    EFF_FRESH,
    EFF_NOOP,
    EFF_REVIVE,
    EFF_TOMB,
    SideTable,
    TickOps,
    decompose_ops,
    first_occurrence,
    search_probes,
    sorted_insert,
    sorted_insert_unique,
    sorted_member,
    sorted_remove,
    sorted_remove_present,
    table_moves,
)

__all__ = ["BACKENDS", "ServingBackend", "make_backend",
           "BinarySearchBackend", "BTreeBackend", "LinearBackend",
           "RMIBackend", "DynamicBackend"]


def _trim_sanitizer(keep_fraction: float):
    """A TRIM screen for retrain-time training sets."""
    def sanitize(merged: np.ndarray) -> np.ndarray:
        n_keep = max(1, int(round(keep_fraction * merged.size)))
        if n_keep >= merged.size:
            return merged
        return trim_cdf(merged, n_keep=n_keep).kept_keys
    return sanitize


class ServingBackend:
    """Common machinery: a model over a snapshot plus side tables.

    Subclasses implement ``_build`` (train the model on a sorted key
    array) and ``_model_lookup`` (batched found/probes over the
    current model).  This base class owns the delta buffer, tombstone
    set, quarantine list, and the rebuild/compaction cycle — identical
    bookkeeping for every backend, so grid cells differ only in the
    structure under test.  ``_side_tables`` declares what a read
    consults after the model, in order.
    """

    name = "abstract"
    #: Whether a TRIM sanitizer makes sense (models train on keys).
    supports_trim = True
    #: The structure's own build arguments and their defaults; any
    #: other keyword is rejected by name.
    build_defaults: dict[str, int] = {}

    def __init__(self, keys: np.ndarray, rebuild_threshold: float = 0.1,
                 trim_keep_fraction: float | None = None,
                 quarantine_rejects: bool = True, **build_args):
        unknown = sorted(set(build_args) - set(self.build_defaults))
        if unknown:
            raise ValueError(
                f"backend {self.name!r} takes no build argument "
                f"{', '.join(map(repr, unknown))}; known: "
                f"{sorted(self.build_defaults)}")
        self._validate_threshold(rebuild_threshold)
        self._validate_keep_fraction(trim_keep_fraction)
        self._threshold = rebuild_threshold
        self._keep_fraction = trim_keep_fraction
        self._sanitizer = (None if trim_keep_fraction is None
                           else _trim_sanitizer(trim_keep_fraction))
        # The ablation seam: with the quarantine side list disabled,
        # TRIM rejects are dropped from the live set instead of being
        # retained on the binary-searched side list.  Default True —
        # every pre-existing scenario keeps the durable screen.
        self._quarantine_rejects = bool(quarantine_rejects)
        self._build_args = {**self.build_defaults, **build_args}
        self._snapshot = np.sort(np.asarray(keys, dtype=np.int64))
        self._delta = np.empty(0, dtype=np.int64)
        self._tombs = np.empty(0, dtype=np.int64)
        self._quarantine = np.empty(0, dtype=np.int64)
        self._retrains = 0
        self._metrics = None
        self._build(self._snapshot)

    # -- validation ----------------------------------------------------
    @staticmethod
    def _validate_threshold(threshold: float) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError(
                f"rebuild threshold must be in (0, 1]: {threshold}")

    @classmethod
    def _validate_keep_fraction(cls, fraction: float | None) -> None:
        if fraction is None:
            return
        if not cls.supports_trim:
            raise ValueError(
                f"backend {cls.name!r} has no trainable model; "
                "TRIM does not apply")
        if not 0.0 < fraction <= 1.0:
            raise ValueError(
                f"trim keep fraction must be in (0, 1]: {fraction}")

    # -- instrumentation ----------------------------------------------
    def set_metrics(self, metrics) -> None:
        """Attach a :class:`repro.observe.MetricsRegistry`.

        Opt-in: with no registry attached (the default), every stage
        hook below is a single ``is None`` check.  The registry only
        ever receives wall-clock observations and commutative
        counters, so attaching one cannot change any recorded series
        or digest.
        """
        self._metrics = metrics

    # -- subclass surface ---------------------------------------------
    def _build(self, keys: np.ndarray) -> None:
        raise NotImplementedError

    def _model_lookup(self, keys: np.ndarray,
                      ) -> tuple[np.ndarray, np.ndarray]:
        """(found, probes) of the trained structure alone."""
        raise NotImplementedError

    def _model_error_bound(self) -> float:
        """Drift proxy: how wide the structure's worst search is."""
        raise NotImplementedError

    # -- uniform serving surface --------------------------------------
    @property
    def n_keys(self) -> int:
        """Live keys (snapshot − tombstones + delta + quarantine)."""
        return int(self._snapshot.size - self._tombs.size
                   + self._delta.size + self._quarantine.size)

    @property
    def retrain_count(self) -> int:
        """Rebuild/retrain cycles so far."""
        return self._retrains

    @property
    def pending_updates(self) -> int:
        """Buffered inserts + tombstones awaiting compaction."""
        return int(self._delta.size + self._tombs.size)

    @property
    def quarantine_size(self) -> int:
        """Keys the TRIM sanitizer rejected from the model."""
        return int(self._quarantine.size)

    # -- tuner hooks ---------------------------------------------------
    @property
    def rebuild_threshold(self) -> float:
        """Pending-update fraction that triggers a compaction."""
        return self._threshold

    def set_rebuild_threshold(self, threshold: float) -> None:
        """Retarget the rebuild trigger on a live backend.

        Takes effect at the next mutation's rebuild check — lowering
        the threshold below the current pending level does not retrain
        on the spot, so a tuner acting at a tick boundary can never
        move retrain timing inside a tick.
        """
        self._validate_threshold(threshold)
        self._threshold = threshold

    @property
    def trim_keep_fraction(self) -> float | None:
        """The TRIM screen's keep fraction (``None`` = defense off)."""
        return self._keep_fraction

    @property
    def quarantine_rejects(self) -> bool:
        """Whether TRIM rejects are quarantined (vs dropped)."""
        return self._quarantine_rejects

    def set_trim_keep_fraction(self, fraction: float | None) -> None:
        """Re-arm (or disarm, with ``None``) the TRIM screen.

        Applies to the *next* rebuild's training set; the current
        model and quarantine are untouched until then.
        """
        self._validate_keep_fraction(fraction)
        self._keep_fraction = fraction
        self._sanitizer = (None if fraction is None
                           else _trim_sanitizer(fraction))

    def error_bound(self) -> float:
        """Worst-case search width of the current model, in cells."""
        return float(self._model_error_bound())

    # -- shard hook ----------------------------------------------------
    def live_keys(self) -> np.ndarray:
        """The current live key set, sorted (the migration unit).

        Exactly the keys a rebuild would train on before any TRIM
        screen: snapshot minus tombstones, plus the delta buffer and
        the quarantine list.  A cluster router splitting or merging
        shards rebuilds the replacement backends from this export.
        The parts are sorted, unique and pairwise disjoint (tombstones
        sit in the snapshot; delta and quarantine hold no model key),
        so they merge without a re-sort.
        """
        return merge_disjoint(drop_sorted(self._snapshot, self._tombs),
                              self._delta, self._quarantine)

    def _digest_parts(self) -> "tuple[np.ndarray, ...]":
        """The state arrays :meth:`state_digest` hashes, in order."""
        return (self._snapshot, self._delta, self._tombs,
                self._quarantine)

    def state_digest(self) -> str:
        """Content hash of the backend's full serving state.

        Covers the model snapshot and every side table plus the
        retrain counter, so two backends replaying the same op
        sequence digest equal iff they ended bit-identical — the
        cross-process parity suite compares these across the pipe
        instead of shipping whole arrays.
        """
        h = hashlib.sha256()
        h.update(type(self).__name__.encode())
        h.update(struct.pack("<qq", self.retrain_count, self.n_keys))
        for part in self._digest_parts():
            h.update(np.ascontiguousarray(
                part, dtype="<i8").tobytes())
            h.update(b"|")
        return h.hexdigest()[:16]

    def lookup_batch(self, keys: np.ndarray,
                     ) -> tuple[np.ndarray, np.ndarray]:
        """(found, probes) per query over model + side tables: the
        segment body's reads with no effect interleaved."""
        keys = np.asarray(keys, dtype=np.int64)
        found = np.empty(keys.size, dtype=bool)
        probes = np.empty(keys.size, dtype=np.int64)
        found[:], probes[:] = self._model_lookup(keys)
        self._adjust_reads(keys, found, probes)
        return found, probes

    def range_scan(self, lo: int, hi: int) -> int:
        """Probe cost of locating ``[lo, hi]`` (scan itself is linear).

        Charged as one endpoint lookup against the model plus a
        binary search per side table — the last-mile cost poisoning
        inflates; the sequential scan that follows is the same for
        every backend and carries no signal.
        """
        _, probes = self.lookup_batch(np.asarray([lo], dtype=np.int64))
        return int(probes[0])

    def insert_batch(self, keys: np.ndarray) -> None:
        """Buffer fresh keys into the delta side table.

        Upsert semantics: a key that is already live — still in the
        model, waiting in the delta buffer, or quarantined — is a
        no-op, so it can neither inflate ``n_keys`` nor count twice
        against the rebuild threshold.  (A closed-loop adversary whose
        crafted key collides with a live one simply wastes that budget
        unit.)
        """
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size == 0:
            return
        # A re-inserted tombstoned key simply comes back to life.
        revived = np.intersect1d(keys, self._tombs)
        if revived.size:
            self._tombs = np.setdiff1d(self._tombs, revived)
            keys = np.setdiff1d(keys, revived)
        keys = keys[~(np.isin(keys, self._snapshot)
                      | np.isin(keys, self._delta)
                      | np.isin(keys, self._quarantine))]
        self._delta = np.union1d(self._delta, keys)
        self._maybe_rebuild()

    def delete_batch(self, keys: np.ndarray) -> None:
        """Remove keys: drop from side tables, tombstone the model."""
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size == 0:
            return
        self._delta = np.setdiff1d(self._delta, keys)
        self._quarantine = np.setdiff1d(self._quarantine, keys)
        in_model = keys[np.isin(keys, self._snapshot)]
        self._tombs = np.union1d(self._tombs, in_model)
        self._maybe_rebuild()

    # -- compaction ----------------------------------------------------
    def _maybe_rebuild(self) -> None:
        if (self.pending_updates
                >= self._threshold * max(self._snapshot.size, 1)):
            self.rebuild()

    def rebuild(self) -> None:
        """Compact and retrain on the live keys (the poisoning window:
        whatever reached the delta buffer trains the next model)."""
        live = self.live_keys()
        if self._sanitizer is not None:
            kept = np.sort(np.asarray(self._sanitizer(live),
                                      dtype=np.int64))
            self._quarantine = (np.setdiff1d(live, kept)
                                if self._quarantine_rejects
                                else np.empty(0, dtype=np.int64))
            live = kept
        else:
            self._quarantine = np.empty(0, dtype=np.int64)
        self._snapshot = live
        self._delta = np.empty(0, dtype=np.int64)
        self._tombs = np.empty(0, dtype=np.int64)
        self._build(live)
        self._retrains += 1

    # -- columnar replay ----------------------------------------------
    def replay_ops(self, kinds: np.ndarray, keys: np.ndarray,
                   aux: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Apply one op slice with op-exact rebuild timing.

        The slice is the serving simulator's unit of work: queries,
        range reads (charged as their ``lo`` endpoint, as in
        :meth:`range_scan`), and mutations interleaved in op order.
        Returns ``(found, probes)`` for the slice's reads, in op
        order — bit-identical to feeding every op through the
        single-op surface, including where rebuilds fire.

        A slice whose insert and delete key sets overlap cannot be
        classified against the slice-start state (the key changes
        camps mid-slice), so it falls back to the scalar sub-op walk;
        generated traces never produce one, the guard is for direct
        API users and property tests.
        """
        metrics = self._metrics
        started = time.perf_counter() if metrics is not None else 0.0
        ops = decompose_ops(kinds, keys, aux)
        if metrics is not None:
            metrics.observe("columnar.decompose",
                            time.perf_counter() - started)
            metrics.inc("columnar.ops", int(kinds.size))
        found = np.zeros(ops.read_pos.size, dtype=bool)
        probes = np.zeros(ops.read_pos.size, dtype=np.int64)
        if ops.hazard:
            self._replay_scalar(ops, found, probes)
        else:
            self._replay_columnar(ops, found, probes)
        return found, probes

    def _replay_scalar(self, ops: TickOps, found_out: np.ndarray,
                       probes_out: np.ndarray) -> None:
        """Sub-op walk: one mutation at a time, reads batched per gap
        (valid because ``lookup_batch`` is per-element independent)."""
        r = 0
        for i in range(ops.sub_key.size):
            r2 = int(np.searchsorted(ops.read_pos, ops.sub_pos[i]))
            if r2 > r:
                f, p = self.lookup_batch(ops.read_keys[r:r2])
                found_out[r:r2] = f
                probes_out[r:r2] = p
                r = r2
            key = ops.sub_key[i:i + 1]
            if ops.sub_ins[i]:
                self.insert_batch(key)
            else:
                self.delete_batch(key)
        if ops.read_pos.size > r:
            f, p = self.lookup_batch(ops.read_keys[r:])
            found_out[r:] = f
            probes_out[r:] = p

    def _replay_columnar(self, ops: TickOps, found_out: np.ndarray,
                         probes_out: np.ndarray) -> None:
        """Segment loop: classify all remaining sub-ops against the
        current state, find the first crossing, serve and apply
        everything up to it in bulk, fire exactly there, re-classify,
        repeat.  Backends change what a sub-op does, where a segment
        ends and what fires through the hooks below, not the loop."""
        metrics = self._metrics
        j = 0
        r = 0
        while True:
            sub_key = ops.sub_key[j:]
            sub_ins = ops.sub_ins[j:]
            sub_pos = ops.sub_pos[j:]
            started = (time.perf_counter() if metrics is not None
                       else 0.0)
            eff = self._classify_mutations(sub_ins, sub_key)
            crossing = self._crossings(eff, sub_ins)
            if metrics is not None:
                metrics.observe("columnar.classify",
                                time.perf_counter() - started)
            fire = bool(crossing.any())
            if fire:
                seg = int(np.argmax(crossing)) + 1
                r_end = int(np.searchsorted(ops.read_pos,
                                            sub_pos[seg - 1]))
            else:
                seg = int(sub_key.size)
                r_end = int(ops.read_pos.size)
            self._serve_segment(ops, r, r_end, eff[:seg],
                                sub_key[:seg], sub_pos[:seg],
                                found_out, probes_out)
            j += seg
            r = r_end
            if not fire:
                break
            self._fire(bool(sub_ins[seg - 1]))

    def _serve_segment(self, ops: TickOps, r: int, r_end: int,
                       eff: np.ndarray, sub_key: np.ndarray,
                       sub_pos: np.ndarray, found_out: np.ndarray,
                       probes_out: np.ndarray) -> None:
        """One rebuild-free segment: one model lookup for all its reads
        (the model is fixed between rebuilds), one adjustment that
        answers each read against the side tables as they stood at its
        op, then one apply of the segment's effects."""
        if r_end > r:
            metrics = self._metrics
            keys = ops.read_keys[r:r_end]
            found = found_out[r:r_end]
            probes = probes_out[r:r_end]
            started = (time.perf_counter() if metrics is not None
                       else 0.0)
            found[:], probes[:] = self._model_lookup(keys)
            if metrics is not None:
                metrics.observe("columnar.model_lookup",
                                time.perf_counter() - started)
                started = time.perf_counter()
            effects = None
            if eff.size:
                upto = np.searchsorted(sub_pos, ops.read_pos[r:r_end])
                effects = (eff, sub_key, upto)
            self._adjust_reads(keys, found, probes, effects)
            if metrics is not None:
                metrics.observe("columnar.adjust",
                                time.perf_counter() - started)
        self._apply_effects(eff, sub_key)

    def _classify_mutations(self, sub_ins: np.ndarray,
                            sub_key: np.ndarray) -> np.ndarray:
        """Effect of each sub-op under the single-key semantics,
        resolved against the current state.  Only a key's first
        occurrence can change state (upsert inserts and re-deletes
        are no-ops); hazard slices never reach here, so the
        classification cannot be invalidated mid-segment."""
        first = first_occurrence(sub_key)
        in_t = sorted_member(self._tombs, sub_key)
        in_s = sorted_member(self._snapshot, sub_key)
        in_d = sorted_member(self._delta, sub_key)
        in_q = sorted_member(self._quarantine, sub_key)
        eff = np.full(sub_key.size, EFF_NOOP, dtype=np.int8)
        ins = sub_ins & first
        eff[ins & in_t] = EFF_REVIVE
        eff[ins & ~(in_t | in_s | in_d | in_q)] = EFF_FRESH
        dels = ~sub_ins & first
        eff[dels & in_d] = EFF_DROP_DELTA
        eff[dels & ~in_d & in_q] = EFF_DROP_QUAR
        eff[dels & ~in_d & ~in_q & in_s & ~in_t] = EFF_TOMB
        return eff

    #: Pending-update delta per effect code, indexed by EFF_*.
    _DPEND = np.array([0, -1, 1, -1, 0, 1], dtype=np.int64)

    def _crossings(self, eff: np.ndarray,
                   sub_ins: np.ndarray) -> np.ndarray:
        """Mask of the sub-ops whose single-key call would fire.  Here
        every mutation checks whether pending updates (a cumsum of the
        effects) reach the rebuild threshold."""
        pend = self.pending_updates + np.cumsum(self._DPEND[eff])
        return pend >= self._threshold * max(self._snapshot.size, 1)

    def _fire(self, insert: bool) -> None:
        """Run what a crossing sub-op (an insert or a delete) fires."""
        self.rebuild()

    def _apply_effects(self, eff: np.ndarray,
                       sub_key: np.ndarray) -> None:
        """Bulk-apply classified sub-ops to the side tables.

        Within a hazard-free bulk the per-effect key sets are
        disjoint from the tables they leave, so set-at-once equals
        one-at-a-time — and the arrays stay bit-equal to the scalar
        feed's."""
        revive = sub_key[eff == EFF_REVIVE]
        tomb = sub_key[eff == EFF_TOMB]
        if revive.size or tomb.size:
            self._tombs = sorted_insert_unique(
                sorted_remove_present(self._tombs, revive), tomb)
        fresh = sub_key[eff == EFF_FRESH]
        drop_d = sub_key[eff == EFF_DROP_DELTA]
        if fresh.size or drop_d.size:
            self._delta = sorted_insert_unique(
                sorted_remove_present(self._delta, drop_d), fresh)
        drop_q = sub_key[eff == EFF_DROP_QUAR]
        if drop_q.size:
            self._quarantine = sorted_remove_present(
                self._quarantine, drop_q)

    def _side_tables(self) -> tuple[SideTable, ...]:
        """What a read consults after the model, in lookup order:
        tombstones, delta, quarantine."""
        return (SideTable(self._tombs, EFF_TOMB, EFF_REVIVE,
                          tombstones=True),
                SideTable(self._delta, EFF_FRESH, EFF_DROP_DELTA),
                SideTable(self._quarantine, leaves=EFF_DROP_QUAR))

    def _adjust_reads(self, keys: np.ndarray, found: np.ndarray,
                      probes: np.ndarray,
                      effects: "tuple[np.ndarray, ...] | None" = None,
                      ) -> None:
        """A read's steps after the model, in place on ``found`` and
        ``probes``: each side table in lookup order, as it stood at
        the read's op.  ``effects`` is a segment's ``(eff, sub_key,
        upto)``, ``upto`` counting the sub-ops before each read; a
        table none of them touches is consulted as it stands."""
        for table in self._side_tables():
            moves = (None if effects is None
                     else table_moves(table, *effects))
            if table.tombstones:
                # Tombstoned keys still sit in the model; membership
                # says no.  The check stands in for the O(1) bitmap a
                # real system would consult, costing one probe.
                if moves is None and table.keys.size == 0:
                    continue
                hits = np.nonzero(found)[0]
                queries = keys[hits]
                if moves is None:
                    live = hits
                    dead = sorted_member(table.keys, queries)
                else:
                    before = moves.before[hits]
                    live = hits[moves.sizes(table, before) > 0]
                    dead = moves.members(table, queries, before)
                probes[live] += 1
                found[hits[dead]] = False
            elif moves is None:
                side_table_search(table.keys, keys, found, probes)
            else:
                misses = np.nonzero(~found)[0]
                queries = keys[misses]
                before = moves.before[misses]
                member = moves.members(table, queries, before)
                probes[misses] += search_probes(
                    moves.sizes(table, before),
                    moves.ranks(table, queries, before), member)
                found[misses[member]] = True


class BinarySearchBackend(ServingBackend):
    """Sorted array + binary search: the model-free baseline.

    Inserts merge directly into the array (no model to stale-out), so
    there is never a rebuild and poisoning can only grow ``log2 n``.
    In the segment loop the array is the one side table every read
    searches: a fresh insert enters it, a delete leaves it, and no
    sub-op crosses anything.
    """

    name = "binary"
    supports_trim = False

    def _build(self, keys: np.ndarray) -> None:
        pass  # the snapshot array IS the structure

    def insert_batch(self, keys: np.ndarray) -> None:
        self._snapshot = sorted_insert(
            self._snapshot, np.asarray(keys, dtype=np.int64))

    def delete_batch(self, keys: np.ndarray) -> None:
        self._snapshot = sorted_remove(
            self._snapshot, np.asarray(keys, dtype=np.int64))

    def _side_tables(self) -> tuple[SideTable, ...]:
        # The shared classifier calls a delete of a snapshot key a
        # tombstone; here it takes the key out of the array.
        return (SideTable(self._snapshot, EFF_FRESH, EFF_TOMB),)

    def _crossings(self, eff: np.ndarray,
                   sub_ins: np.ndarray) -> np.ndarray:
        return np.zeros(eff.size, dtype=bool)

    def _apply_effects(self, eff: np.ndarray,
                       sub_key: np.ndarray) -> None:
        self._snapshot = sorted_insert_unique(
            sorted_remove_present(self._snapshot,
                                  sub_key[eff == EFF_TOMB]),
            sub_key[eff == EFF_FRESH])

    def _model_lookup(self, keys: np.ndarray):
        # No model: every read goes on to the one side table.
        return (np.zeros(keys.size, dtype=bool),
                np.zeros(keys.size, dtype=np.int64))

    def _model_error_bound(self) -> float:
        return float(np.ceil(np.log2(max(self._snapshot.size, 2))))


class BTreeBackend(ServingBackend):
    """The classic B-Tree with native inserts.

    Probes are node-local comparisons (the B-Tree's honest unit);
    deletes tombstone and eventually trigger a bulk-load compaction.
    """

    name = "btree"
    supports_trim = False
    build_defaults = {"min_degree": 16}

    def _build(self, keys: np.ndarray) -> None:
        self._tree = BTree.bulk_load(keys, **self._build_args)

    def insert_batch(self, keys: np.ndarray) -> None:
        keys = np.asarray(keys, dtype=np.int64)
        revived = np.intersect1d(keys, self._tombs)
        self._tombs = np.setdiff1d(self._tombs, revived)
        fresh = np.setdiff1d(keys, revived)
        for key in fresh[~np.isin(fresh, self._snapshot)]:
            self._tree.insert(int(key))
        # Track membership in the snapshot array as well so the shared
        # tombstone/compaction bookkeeping keeps working.
        self._snapshot = np.asarray(list(self._tree.items()),
                                    dtype=np.int64)

    def _replay_columnar(self, ops: TickOps, found_out: np.ndarray,
                         probes_out: np.ndarray) -> None:
        """Native tree inserts are order-dependent structure edits,
        so this backend walks sub-ops (with gap-batched reads) instead
        of classifying them against a snapshot."""
        self._replay_scalar(ops, found_out, probes_out)

    def _model_lookup(self, keys: np.ndarray):
        found, comparisons, _ = self._tree.search_batch(keys)
        return found, comparisons

    def _model_error_bound(self) -> float:
        # Worst search = height * full-node binary search.
        t = self._build_args["min_degree"]
        return float(self._tree.height
                     * np.ceil(np.log2(max(2 * t - 1, 2))))


class LinearBackend(ServingBackend):
    """The single-line learned index (Section IV's victim), online."""

    name = "linear"

    def _build(self, keys: np.ndarray) -> None:
        self._index = LinearLearnedIndex(keys)

    def _model_lookup(self, keys: np.ndarray):
        probe = self._index.lookup_batch(keys)
        return probe.found, probe.probes

    def _model_error_bound(self) -> float:
        return float(self._index.max_error)


class RMIBackend(ServingBackend):
    """The two-stage RMI (Section V's victim), online.

    ``model_size`` fixes keys-per-model at build time; the model count
    adapts at every rebuild like a re-provisioned deployment.
    """

    name = "rmi"
    build_defaults = {"model_size": 100}

    def _build(self, keys: np.ndarray) -> None:
        n_models = max(int(keys.size) // self._build_args["model_size"],
                       1)
        self._index = RecursiveModelIndex.build_equal_size(keys,
                                                           n_models)

    def _model_lookup(self, keys: np.ndarray):
        probe = self._index.lookup_batch(keys)
        return probe.found, probe.probes

    def _model_error_bound(self) -> float:
        return float(self._index.max_search_window())


class DynamicBackend(ServingBackend):
    """:class:`DynamicLearnedIndex` behind the uniform surface.

    Inserts go through the index's own public API — its
    retrain-on-threshold cycle (the update-channel attack surface of
    ablation A9) replaces the generic delta bookkeeping, and its
    sanitizer hook carries the TRIM defense.  The model is the RMI
    alone: the index owns delta buffer and quarantine, this backend
    the tombstones.

    ``replay_ops`` runs the base class's segment loop; this backend's
    hooks encode three rules.  Deletes only tombstone.  Two crossings
    end a segment: a fresh insert reaching ``delta >= θ·base`` (the
    index's retrain) and any delete reaching ``tombs >= θ·max(n_keys,
    1)`` (the tombstone fold).  Reads consult delta, quarantine, then
    tombstones.
    """

    name = "dynamic"
    build_defaults = {"model_size": 100}

    def _build(self, keys: np.ndarray) -> None:
        n_models = max(int(keys.size) // self._build_args["model_size"],
                       1)
        self._index = DynamicLearnedIndex(
            keys, n_models=n_models,
            retrain_threshold=self._threshold,
            sanitizer=self._sanitizer,
            quarantine_rejects=self._quarantine_rejects)

    @property
    def n_keys(self) -> int:
        return int(self._index.n_keys) - int(self._tombs.size)

    @property
    def retrain_count(self) -> int:
        return self._retrains + self._index.retrain_count

    @property
    def pending_updates(self) -> int:
        return self._index.delta_size + int(self._tombs.size)

    @property
    def quarantine_size(self) -> int:
        return self._index.quarantine_size

    def insert_batch(self, keys: np.ndarray) -> None:
        keys = np.asarray(keys, dtype=np.int64)
        revived = np.intersect1d(keys, self._tombs)
        self._tombs = np.setdiff1d(self._tombs, revived)
        for key in np.setdiff1d(keys, revived):
            # The serving surface is upsert (matching the generic
            # backend); the index itself keeps its strict
            # duplicate-rejecting contract, so membership is checked
            # here before handing the key down.
            if not self._index.contains(int(key)) \
                    and self._index.insert(int(key)):
                self._drop_orphans()

    def set_rebuild_threshold(self, threshold: float) -> None:
        super().set_rebuild_threshold(threshold)
        self._index.set_retrain_threshold(threshold)

    def set_trim_keep_fraction(self, fraction: float | None) -> None:
        super().set_trim_keep_fraction(fraction)
        self._index.set_sanitizer(self._sanitizer)

    def live_keys(self) -> np.ndarray:
        # The dynamic index owns its own side tables (sorted, pairwise
        # disjoint); the shared snapshot/delta fields are not
        # authoritative here.
        index = self._index
        return drop_sorted(merge_disjoint(index.rmi.store.keys,
                                          index.delta_keys,
                                          index.quarantine_keys),
                           self._tombs)

    def _digest_parts(self) -> "tuple[np.ndarray, ...]":
        # Same ownership rule as live_keys: hash the index's own side
        # tables, not the unused generic delta/quarantine fields.
        return (self._index.rmi.store.keys, self._index.delta_keys,
                self._index.quarantine_keys, self._tombs)

    def rebuild(self) -> None:
        """Compact and retrain through the index's own screening path.

        The base-class rebuild would screen into the *generic*
        quarantine list, which this backend's lookups never consult
        (the index owns its side tables) — so the dynamic backend
        rebuilds by replacing its index over the live keys with
        ``sanitize_initial`` armed, landing rejects in the index's own
        quarantine where lookups price them honestly.
        """
        live = self.live_keys()
        self._tombs = np.empty(0, dtype=np.int64)
        self._retrains += self._index.retrain_count + 1
        n_models = max(int(live.size) // self._build_args["model_size"],
                       1)
        self._index = DynamicLearnedIndex(
            live, n_models=n_models,
            retrain_threshold=self._threshold,
            sanitizer=self._sanitizer,
            sanitize_initial=True,
            quarantine_rejects=self._quarantine_rejects)

    def delete_batch(self, keys: np.ndarray) -> None:
        keys = np.asarray(keys, dtype=np.int64)
        present = keys[[self._index.contains(int(k)) for k in keys]]
        self._tombs = np.union1d(self._tombs, present)
        if (self._tombs.size
                >= self._threshold * max(self._index.n_keys, 1)):
            self.rebuild()

    def _model_lookup(self, keys: np.ndarray):
        probe = self._index.rmi.lookup_batch(keys)
        return probe.found, probe.probes

    def _model_error_bound(self) -> float:
        return float(self._index.rmi.max_search_window())

    # -- segment-loop hooks -------------------------------------------
    def _classify_mutations(self, sub_ins: np.ndarray,
                            sub_key: np.ndarray) -> np.ndarray:
        """Only tombstones move: a first-occurrence delete of any
        contained key tombstones it, an insert of a tombstoned key
        revives it, and an insert of an absent key is fresh."""
        index = self._index
        first = first_occurrence(sub_key)
        in_t = sorted_member(self._tombs, sub_key)
        contains = (sorted_member(index.rmi.store.keys, sub_key)
                    | sorted_member(index.delta_keys, sub_key)
                    | sorted_member(index.quarantine_keys, sub_key))
        eff = np.full(sub_key.size, EFF_NOOP, dtype=np.int8)
        ins = sub_ins & first
        eff[ins & in_t] = EFF_REVIVE
        eff[ins & ~in_t & ~contains] = EFF_FRESH
        eff[~sub_ins & first & contains & ~in_t] = EFF_TOMB
        return eff

    def _crossings(self, eff: np.ndarray,
                   sub_ins: np.ndarray) -> np.ndarray:
        """The index's retrain at a fresh insert, the tombstone fold at
        any delete: both levels are cumsums of the effects, and the
        fold's ``n_keys`` grows as fresh inserts land."""
        index = self._index
        fresh = eff == EFF_FRESH
        n_fresh = np.cumsum(fresh)
        n_tombs = self._tombs.size + np.cumsum(
            (eff == EFF_TOMB).astype(np.int64) - (eff == EFF_REVIVE))
        retrain = fresh & (index.delta_size + n_fresh
                           >= self._threshold * index.rmi.store.keys.size)
        fold = ~sub_ins & (n_tombs >= self._threshold
                           * np.maximum(index.n_keys + n_fresh, 1))
        return retrain | fold

    def _fire(self, insert: bool) -> None:
        if insert:
            # The fresh insert whose buffer append crossed the index's
            # retrain threshold: run exactly that merge.
            self._index.flush()
            self._drop_orphans()
        else:
            self.rebuild()

    def _drop_orphans(self) -> None:
        """After a retrain (buffer empty), keep the tombstones of keys
        it kept: one that drops TRIM's rejects drops those keys too."""
        index = self._index
        self._tombs = self._tombs[
            sorted_member(index.rmi.store.keys, self._tombs)
            | sorted_member(index.quarantine_keys, self._tombs)]

    def _apply_effects(self, eff: np.ndarray,
                       sub_key: np.ndarray) -> None:
        # The index absorbs the fresh keys, already screened for
        # absence and split at the retrain crossing.
        self._index._absorb_fresh(sub_key[eff == EFF_FRESH])
        self._tombs = sorted_insert_unique(
            sorted_remove_present(self._tombs,
                                  sub_key[eff == EFF_REVIVE]),
            sub_key[eff == EFF_TOMB])

    def _side_tables(self) -> tuple[SideTable, ...]:
        return (SideTable(self._index.delta_keys, enters=EFF_FRESH),
                SideTable(self._index.quarantine_keys),
                SideTable(self._tombs, EFF_TOMB, EFF_REVIVE,
                          tombstones=True))


BACKENDS: dict[str, type[ServingBackend]] = {
    cls.name: cls
    for cls in (BinarySearchBackend, BTreeBackend, LinearBackend,
                RMIBackend, DynamicBackend)
}


def make_backend(name: str, keys: np.ndarray,
                 rebuild_threshold: float = 0.1,
                 trim_keep_fraction: float | None = None,
                 **build_args) -> ServingBackend:
    """Instantiate a registered backend over the initial keys."""
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; known: {sorted(BACKENDS)}"
        ) from None
    return cls(keys, rebuild_threshold=rebuild_threshold,
               trim_keep_fraction=trim_keep_fraction, **build_args)
