"""The cluster router: one serving surface over many shard backends.

A :class:`ClusterRouter` owns a :class:`~repro.cluster.shardmap.ShardMap`
plus one :class:`~repro.workload.backends.ServingBackend` per shard —
the *unchanged* PR 3 backends, each serving only the keys its range
covers.  Reads fan out: a batch is routed, grouped by shard, served by
each shard's vectorized ``lookup_batch``, and scattered back into
request order, so probe counts are identical to routing one key at a
time (the re-chunking invariance the shard-map property tests pin).
Mutations route to exactly one shard.

The router also owns the two cluster-level books the simulator reads:

* **per-tick op accounting** — how many operations each shard served
  since the last :meth:`drain_tick_loads` call, from which the router
  *imbalance* (max shard share over the ideal ``1/n`` share) derives;
* **migration accounting** — applying a new shard map
  (:meth:`apply_map`, or the :meth:`split_shard`/:meth:`merge_shards`
  conveniences) exports ``live_keys`` from every backend whose range
  changed and rebuilds replacement backends over the new ranges.  The
  returned key count is the deterministic migration-cost proxy;
  backends whose range is untouched keep their object — and all their
  delta/tombstone/retrain state — so a rebalance never silently
  resets the rest of the cluster.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..workload.backends import ServingBackend, make_backend
from ..workload.trace import (
    OP_DELETE,
    OP_INSERT,
    OP_MODIFY,
    OP_POISON,
    OP_QUERY,
    OP_RANGE,
)
from .shardmap import ShardMap

__all__ = ["ClusterRouter", "ShardServingError"]


class ShardServingError(RuntimeError):
    """A shard's replay failed; carries which shard so a fleet
    operator (or a test) can tell the wedged range from its healthy
    siblings."""

    def __init__(self, shard: int, cause: BaseException):
        super().__init__(f"shard {shard}: "
                         f"{type(cause).__name__}: {cause}")
        self.shard = shard


class ClusterRouter:
    """Route batched serving operations to per-shard backends."""

    def __init__(self, shard_map: ShardMap, keys: np.ndarray,
                 backend: str, rebuild_threshold: float = 0.1,
                 trim_keep_fraction: "float | None" = None,
                 migration_rescreen: bool = True,
                 **build_args: Any):
        self._map = shard_map
        self._backend_name = backend
        self._threshold = rebuild_threshold
        self._keep_fraction = trim_keep_fraction
        # The ablation seam: with re-screening off, a backend built
        # from migrated keys keeps its TRIM settings armed for future
        # rebuilds but skips the immediate screening compaction, so
        # the migrated training set is trusted as-is.  Default True —
        # a rebalance must never silently launder quarantined poison.
        self._migration_rescreen = bool(migration_rescreen)
        self._build_args = dict(build_args)
        self._metrics = None
        keys = np.sort(np.asarray(keys, dtype=np.int64))
        self._shards: "list[ServingBackend | None]" = [
            self._build_shard(self._keys_in(keys, shard), shard=shard)
            for shard in range(shard_map.n_shards)]
        self._tick_loads = np.zeros(shard_map.n_shards, dtype=np.int64)
        self._retrains_migrated = 0
        self._keys_migrated_total = 0

    # ------------------------------------------------------------------
    def set_metrics(self, metrics) -> None:
        """Attach a :class:`repro.observe.MetricsRegistry` (``None``
        detaches).

        The router counts the events it routes and the shard batches
        they form; the transport router also hands the registry to
        its book, which counts calls and retries.  Only counters are
        recorded, so attaching one cannot change any served result.
        """
        self._metrics = metrics

    # ------------------------------------------------------------------
    def _keys_in(self, sorted_keys: np.ndarray,
                 shard: int) -> np.ndarray:
        lo, hi = self._map.shard_range(shard)
        left = int(np.searchsorted(sorted_keys, lo, side="left"))
        right = int(np.searchsorted(sorted_keys, hi, side="right"))
        return sorted_keys[left:right]

    def _make_backend(self, keys: np.ndarray, threshold: float,
                      shard: int) -> ServingBackend:
        """Construct one shard's backend (the transport seam).

        The in-process router builds the PR 3 backend directly;
        :class:`~repro.cluster.replication.TransportClusterRouter`
        overrides this single method to spawn a worker-process replica
        group instead, so every other router code path — migration,
        fan-out, defense hooks — is shared verbatim between the two.
        """
        del shard  # only the transport override cares which range
        return make_backend(self._backend_name, keys,
                            rebuild_threshold=threshold,
                            **self._build_args)

    def _build_shard(self, keys: np.ndarray,
                     settings: "tuple[float, float | None] | None"
                     = None, shard: int = 0,
                     ) -> "ServingBackend | None":
        """One shard backend, or ``None`` for a keyless range.

        ``settings`` is an optional ``(rebuild_threshold,
        trim_keep_fraction)`` pair overriding the router-level
        construction defaults — migration passes the *tuned* settings
        of the shard a range came from, so a split of a defended
        shard screens its training set exactly as a regular retrain
        there would have (a rebalance must never silently disarm the
        defense).

        Backends need at least one key (a learned model cannot train
        on nothing), so an empty shard is simply *unprovisioned*:
        ``None`` — lookups there miss at zero cost and the backend
        materialises with the first insert.  Fabricating a sentinel
        key instead would serve a phantom membership and leak it into
        migration pools.  In practice balanced maps never produce
        empty shards; this path only keeps degenerate hand-built maps
        serviceable.
        """
        if keys.size == 0:
            return None
        threshold, keep = (settings if settings is not None
                           else (self._threshold, self._keep_fraction))
        backend = self._make_backend(keys, threshold, shard)
        # TRIM arms through the live hook (model-free backends reject
        # the constructor argument), and because a backend's *initial*
        # build never screens, an armed shard compacts once right
        # away: a migration is a retrain, and a retrain on a defended
        # shard must screen its training set — otherwise a split
        # would launder quarantined poison straight into the next
        # model.
        if keep is not None and keep < 1.0 and backend.supports_trim:
            backend.set_trim_keep_fraction(keep)
            if self._migration_rescreen:
                backend.rebuild()
        return backend

    # ------------------------------------------------------------------
    # Shape / introspection
    # ------------------------------------------------------------------
    @property
    def shard_map(self) -> ShardMap:
        return self._map

    @property
    def n_shards(self) -> int:
        return self._map.n_shards

    @property
    def backend_name(self) -> str:
        return self._backend_name

    def shard(self, index: int) -> "ServingBackend | None":
        """One shard's backend (tuner hooks live here); ``None`` while
        the shard's range holds no keys."""
        return self._shards[index]

    @property
    def n_keys(self) -> int:
        """Live keys across the cluster."""
        return sum(s.n_keys for s in self._shards if s is not None)

    @property
    def retrain_count(self) -> int:
        """Cumulative retrains, including pre-migration cycles."""
        return self._retrains_migrated + sum(
            s.retrain_count for s in self._shards if s is not None)

    @property
    def keys_migrated_total(self) -> int:
        """Keys rebuilt into new shards over the cluster's lifetime."""
        return self._keys_migrated_total

    def error_bound(self) -> float:
        """Worst shard's worst-case search width (0 when empty)."""
        bounds = [s.error_bound() for s in self._shards
                  if s is not None]
        return max(bounds) if bounds else 0.0

    def shard_n_keys(self) -> np.ndarray:
        """Live key count per shard."""
        return np.asarray([0 if s is None else s.n_keys
                           for s in self._shards], dtype=np.int64)

    def live_keys(self) -> np.ndarray:
        """The cluster's live key set (sorted union over shards)."""
        parts = [s.live_keys() for s in self._shards if s is not None]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate(parts))

    # ------------------------------------------------------------------
    # Serving surface (mirrors ServingBackend)
    # ------------------------------------------------------------------
    def lookup_batch(self, keys: np.ndarray,
                     ) -> tuple[np.ndarray, np.ndarray]:
        """(found, probes) per query, served by each key's shard.

        Group-by-shard fan-out with scatter-back: probe counts equal
        the one-key-at-a-time replay exactly, so cluster latency
        series stay invariant under batching.
        """
        keys = np.asarray(keys, dtype=np.int64)
        found = np.zeros(keys.size, dtype=bool)
        probes = np.zeros(keys.size, dtype=np.int64)
        shards = self._map.route(keys)
        for shard in np.unique(shards):
            mask = shards == shard
            self._tick_loads[shard] += int(mask.sum())
            backend = self._shards[shard]
            if backend is None:  # unprovisioned: a zero-cost miss
                continue
            f, p = backend.lookup_batch(keys[mask])
            found[mask] = f
            probes[mask] = p
        return found, probes

    def range_scan(self, lo: int, hi: int) -> int:
        """Endpoint-location cost of ``[lo, hi]`` across its shards.

        Charged as one endpoint lookup on the first shard the range
        touches plus one on every additional shard it spans — the
        fan-out tax of a cross-shard scan (the sequential scan itself
        carries no signal, as in the single-backend surface).
        """
        first = int(self._map.route(np.asarray([lo]))[0])
        last = int(self._map.route(np.asarray([hi]))[0])
        cost = 0
        for shard in range(first, last + 1):
            shard_lo, _ = self._map.shard_range(shard)
            endpoint = lo if shard == first else shard_lo
            self._tick_loads[shard] += 1
            backend = self._shards[shard]
            if backend is None:
                continue
            cost += backend.range_scan(
                endpoint, min(hi, self._map.shard_range(shard)[1]))
        return cost

    def insert_batch(self, keys: np.ndarray) -> None:
        """Route fresh keys to their shards (batch-atomic per shard)."""
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size == 0:
            return
        shards = self._map.route(keys)
        for shard in np.unique(shards):
            mask = shards == shard
            self._tick_loads[shard] += int(mask.sum())
            if self._shards[shard] is None:
                # First keys of an unprovisioned range: materialise
                # the backend over them.
                self._shards[shard] = self._build_shard(
                    np.sort(keys[mask]), shard=int(shard))
            else:
                self._shards[shard].insert_batch(keys[mask])

    def delete_batch(self, keys: np.ndarray) -> None:
        """Route removals to their shards."""
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size == 0:
            return
        shards = self._map.route(keys)
        for shard in np.unique(shards):
            mask = shards == shard
            self._tick_loads[shard] += int(mask.sum())
            if self._shards[shard] is not None:
                self._shards[shard].delete_batch(keys[mask])

    def replay_ops(self, kinds: np.ndarray, keys: np.ndarray,
                   aux: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Serve one tick's op slice through every shard at once.

        Decomposes the slice into per-shard *events* — a query or a
        mutation lands one event on its routed shard, a modify one
        delete plus one insert on each key's shard, a range one
        endpoint event on every shard it spans — then hands each
        shard its events in op order through the backend's own
        :meth:`~repro.workload.backends.ServingBackend.replay_ops`,
        one shard after another, and scatters (found, probes) back by
        read slot, so results are bit-identical to the
        one-key-at-a-time feed.

        Returns ``(found, probes)`` with one entry per query/range op
        in the slice (found is only meaningful for queries; a range's
        probes sum its endpoint cost across every spanned shard,
        exactly like :meth:`range_scan`).
        """
        kinds = np.asarray(kinds)
        keys = np.asarray(keys, dtype=np.int64)
        aux = np.asarray(aux, dtype=np.int64)
        is_read = (kinds == OP_QUERY) | (kinds == OP_RANGE)
        read_slot = np.cumsum(is_read) - 1
        n_reads = int(is_read.sum())
        found_out = np.zeros(n_reads, dtype=bool)
        probes_out = np.zeros(n_reads, dtype=np.int64)
        pos = np.arange(kinds.size, dtype=np.int64)

        ev_order: list[np.ndarray] = []
        ev_kind: list[np.ndarray] = []
        ev_key: list[np.ndarray] = []
        ev_slot: list[np.ndarray] = []

        def add(mask_pos: np.ndarray, kind_code: int,
                event_keys: np.ndarray, slots: np.ndarray,
                suborder: int = 0) -> None:
            ev_order.append(mask_pos * 2 + suborder)
            ev_kind.append(np.full(mask_pos.size, kind_code,
                                   dtype=kinds.dtype))
            ev_key.append(np.asarray(event_keys, dtype=np.int64))
            ev_slot.append(np.asarray(slots, dtype=np.int64))

        no_slot = -1
        qm = kinds == OP_QUERY
        add(pos[qm], OP_QUERY, keys[qm], read_slot[qm])
        im = (kinds == OP_INSERT) | (kinds == OP_POISON)
        add(pos[im], OP_INSERT, keys[im],
            np.full(int(im.sum()), no_slot))
        dm = kinds == OP_DELETE
        add(pos[dm], OP_DELETE, keys[dm],
            np.full(int(dm.sum()), no_slot))
        mm = kinds == OP_MODIFY
        add(pos[mm], OP_DELETE, keys[mm],
            np.full(int(mm.sum()), no_slot), suborder=0)
        add(pos[mm], OP_INSERT, aux[mm],
            np.full(int(mm.sum()), no_slot), suborder=1)
        rm = kinds == OP_RANGE
        known = qm | im | dm | mm | rm
        if not known.all():
            bad = kinds[~known][0]
            raise ValueError(f"unknown op kind: {bad}")
        if rm.any():
            # One endpoint event per spanned shard: the op's own lo on
            # the first shard, the shard's range floor on every later
            # one (mirrors range_scan; the backend only ever locates
            # the endpoint, so the upper bound carries no event).
            add(pos[rm], OP_RANGE, keys[rm], read_slot[rm])
            first = self._map.route(keys[rm])
            last = self._map.route(aux[rm])
            for i in np.nonzero(last > first)[0]:
                spanned = np.arange(int(first[i]) + 1,
                                    int(last[i]) + 1, dtype=np.int64)
                floors = np.asarray(
                    [self._map.shard_range(int(s))[0]
                     for s in spanned], dtype=np.int64)
                add(np.full(spanned.size, pos[rm][i]), OP_RANGE,
                    floors, np.full(spanned.size, read_slot[rm][i]))

        order = np.concatenate(ev_order)
        kind_arr = np.concatenate(ev_kind)
        key_arr = np.concatenate(ev_key)
        slot_arr = np.concatenate(ev_slot)
        shard_arr = self._map.route(key_arr)
        self._tick_loads += np.bincount(shard_arr,
                                        minlength=self.n_shards)

        by_op = np.argsort(order, kind="stable")
        by_shard = by_op[np.argsort(shard_arr[by_op], kind="stable")]
        shards_grouped = shard_arr[by_shard]
        uniq, starts = np.unique(shards_grouped, return_index=True)
        bounds = np.append(starts[1:], by_shard.size)

        def serve_shard(shard: int, eidx: np.ndarray,
                        ) -> "tuple[np.ndarray, ...] | None":
            ek = kind_arr[eidx]
            ekey = key_arr[eidx]
            eslot = slot_arr[eidx]
            backend = self._shards[shard]
            if backend is None:
                # Reads miss at zero cost and deletes no-op until the
                # first insert materialises the shard, exactly as the
                # per-op feed would.
                ins = np.nonzero(ek == OP_INSERT)[0]
                if ins.size == 0:
                    return None
                k = int(ins[0])
                self._shards[shard] = self._build_shard(
                    ekey[k:k + 1], shard=shard)
                backend = self._shards[shard]
                ek, ekey, eslot = ek[k + 1:], ekey[k + 1:], \
                    eslot[k + 1:]
                if ek.size == 0:
                    return None
            f, p = backend.replay_ops(
                ek, ekey, np.zeros(ekey.size, dtype=np.int64))
            reads = (ek == OP_QUERY) | (ek == OP_RANGE)
            slots = eslot[reads]
            qmask = ek[reads] == OP_QUERY
            return slots, p, slots[qmask], f[qmask]

        def serve_guarded(shard: int, eidx: np.ndarray,
                          ) -> "tuple[np.ndarray, ...] | None":
            try:
                return serve_shard(shard, eidx)
            except ShardServingError:
                raise
            except Exception as exc:
                raise ShardServingError(shard, exc) from exc

        groups = [(int(s), by_shard[s0:s1])
                  for s, s0, s1 in zip(uniq, starts, bounds)]
        metrics = self._metrics
        if metrics is not None:
            metrics.inc("router.events", int(key_arr.size))
            metrics.inc("router.shard_batches", len(groups))
        results = [serve_guarded(*g) for g in groups]
        for result in results:
            if result is None:
                continue
            slots, p, qslots, qfound = result
            # A range op's slot appears on several shards; probes sum
            # (commutative, so scatter order never matters).  A query
            # slot appears on exactly one shard.
            np.add.at(probes_out, slots, p)
            found_out[qslots] = qfound
        return found_out, probes_out

    # ------------------------------------------------------------------
    # Per-tick load accounting
    # ------------------------------------------------------------------
    def drain_tick_loads(self) -> np.ndarray:
        """Ops served per shard since the last drain (then reset)."""
        loads = self._tick_loads.copy()
        self._tick_loads = np.zeros(self.n_shards, dtype=np.int64)
        return loads

    @staticmethod
    def imbalance(loads: np.ndarray) -> float:
        """Max shard share over the ideal share (1.0 = perfect).

        ``max(loads) / (total / n)`` — the router hot-spot factor a
        rebalancer watches.  An idle tick reports 1.0 (balanced) so
        the series never carries NaN.
        """
        loads = np.asarray(loads, dtype=np.float64)
        total = float(loads.sum())
        if total == 0.0 or loads.size == 0:
            return 1.0
        return float(loads.max() * loads.size / total)

    # ------------------------------------------------------------------
    # Rebalancing surface
    # ------------------------------------------------------------------
    def apply_map(self, new_map: ShardMap) -> int:
        """Adopt a new shard map; returns the migration cost in keys.

        Shards whose ``(lo, hi)`` range is identical under both maps
        keep their backend object (state intact).  Every other range
        is rebuilt from the exported ``live_keys`` of the old shards
        that overlapped it — the keys physically moved between
        machines, which is the deterministic cost the ``migrated``
        series records.  Retrain counters of rebuilt shards are folded
        into the router's total first, so the cluster-level retrain
        series stays monotone across migrations.
        """
        if (new_map.domain_lo, new_map.domain_hi) != \
                (self._map.domain_lo, self._map.domain_hi):
            raise ValueError(
                "the new shard map must cover the same domain: "
                f"[{new_map.domain_lo}, {new_map.domain_hi}] vs "
                f"[{self._map.domain_lo}, {self._map.domain_hi}]")
        old_ranges = {self._map.shard_range(i): self._shards[i]
                      for i in range(self._map.n_shards)}
        new_ranges = {new_map.shard_range(i)
                      for i in range(new_map.n_shards)}
        # Defense settings survive the migration: a rebuilt range
        # inherits the tuned (threshold, keep) of the old shard that
        # covered its floor key.
        old_edges = self._map.edges
        old_settings = [
            (self._threshold, self._keep_fraction) if backend is None
            else (backend.rebuild_threshold,
                  backend.trim_keep_fraction)
            for backend in self._shards]
        moved_keys: list[np.ndarray] = []
        keep: "dict[tuple[int, int], ServingBackend | None]" = {}
        for old_range, backend in old_ranges.items():
            if old_range in new_ranges:
                keep[old_range] = backend
            elif backend is not None:
                self._retrains_migrated += backend.retrain_count
                moved_keys.append(backend.live_keys())
        pool = (np.sort(np.concatenate(moved_keys)) if moved_keys
                else np.empty(0, dtype=np.int64))
        migrated = int(pool.size)

        new_shards: "list[ServingBackend | None]" = []
        for shard in range(new_map.n_shards):
            shard_range = new_map.shard_range(shard)
            if shard_range in keep:
                new_shards.append(keep[shard_range])
            else:
                lo, hi = shard_range
                left = int(np.searchsorted(pool, lo, side="left"))
                right = int(np.searchsorted(pool, hi, side="right"))
                source = min(
                    int(np.searchsorted(old_edges, lo,
                                        side="right")) - 1,
                    len(old_settings) - 1)
                new_shards.append(self._build_shard(
                    pool[left:right], settings=old_settings[source],
                    shard=shard))
        self._map = new_map
        self._shards = new_shards
        self._tick_loads = np.zeros(new_map.n_shards, dtype=np.int64)
        self._keys_migrated_total += migrated
        return migrated

    def split_shard(self, shard: int) -> int:
        """Split one shard at its live-key mass median; keys moved."""
        backend = self._shards[shard]
        if backend is None:  # nothing to cut a mass median from
            return 0
        new_map = self._map.split(shard, backend.live_keys())
        if new_map is self._map or new_map.splits == self._map.splits:
            return 0
        return self.apply_map(new_map)

    def merge_shards(self, shard: int) -> int:
        """Merge one shard with its right neighbour; keys moved."""
        return self.apply_map(self._map.merge(shard))

    # ------------------------------------------------------------------
    # Per-shard defense hooks
    # ------------------------------------------------------------------
    def set_shard_trim_keep_fraction(self, shard: int,
                                     fraction: "float | None") -> None:
        """Re-arm one shard's TRIM screen (no-op on model-free shards)."""
        backend = self._shards[shard]
        if backend is not None and backend.supports_trim:
            backend.set_trim_keep_fraction(fraction)

    def set_shard_rebuild_threshold(self, shard: int,
                                    threshold: float) -> None:
        """Retarget one shard's compaction trigger."""
        if self._shards[shard] is not None:
            self._shards[shard].set_rebuild_threshold(threshold)

    # ------------------------------------------------------------------
    # Transport surface (no-op in process; the cross-process router
    # overrides all four)
    # ------------------------------------------------------------------
    def start_tick(self, tick: int) -> None:
        """Open a tick window on the transport book (no-op here)."""

    def transport_tick_stats(self) -> tuple[int, int, float]:
        """(degraded replica slots, flagged replicas, injected ms)
        accumulated since the last call.

        The in-process router has no transport, so the triple is
        identically zero — which is exactly what keeps its series
        bit-comparable to a process-transport run with injection off.
        """
        return 0, 0, 0.0

    def flagged_replicas(self) -> "list[tuple[int, int]]":
        """(shard, replica) slots the divergence detector flagged."""
        return []

    def shard_digests(self) -> "list[str | None]":
        """Per-shard state digests (``None`` for unprovisioned)."""
        return [None if s is None else s.state_digest()
                for s in self._shards]

    def close(self) -> None:
        """Release shard resources (nothing to release in-process)."""
