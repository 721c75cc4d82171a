"""k-replica shard groups: quorum reads + divergence detection.

One :class:`ReplicaGroup` fronts ``k`` worker processes (one
:class:`~repro.cluster.transport.WorkerClient` each) serving the same
key range, and implements the single-backend surface the
:class:`~repro.cluster.router.ClusterRouter` drives — so the whole
router stack (fan-out, migrations, defense hooks) works unchanged on
top.  Semantics:

* **one request path**: a request for more than one replica is
  encoded once, sent to every target replica, and only then are the
  replies read, in replica order — the replicas serve it side by
  side, and a worker error is raised once every reply is read, so a
  mutation reaches every replica and healthy ones stay bit-identical;
* **reads quorum**: each query is served by all live replicas and
  combined per slot — membership by majority vote, probe cost as the
  q-th smallest (``q = n_live // 2 + 1``), i.e. the moment the
  q-th-fastest replica answers.  ``read_mode="primary"`` instead
  trusts the lowest-index live replica alone (the naive arm of the
  poisoned-replica duel).  A range scan is a lookup of ``lo``;
* **settings and stats ride the state-changing requests**: a setter
  only validates and stores its value, and every REPLAY, INSERT,
  DELETE and REBUILD starts with the group's two settings — both act
  only at a rebuild check, which only those requests reach.  Each
  reply carries the replica's stats after it, which the scalar
  surface and the detector read from the client; a replica whose
  last such request failed has none, and reading them raises;
* **divergence detection**: a poisoned replica serves *valid-looking*
  results, so byte-level checks can't see it — but its error-bound
  series drifts.  :class:`DivergenceDetector` compares each replica's
  error bound against the group median each tick; a replica outside
  the tolerance band for ``patience`` consecutive ticks is flagged
  poisoned and quarantined in the transport book (no further
  traffic), turning the paper's attack into a detectable fleet-level
  event.

:class:`TransportClusterRouter` is the cross-process cluster: it
overrides the router's single ``_make_backend`` seam to spawn replica
groups, carries the shared :class:`TransportBook`, and closes worker
fleets on migration/teardown.  With injection off and ``k`` healthy
replicas the group is pinned bit-identical to one in-process backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..workload.backends import BACKENDS
from ..workload.trace import OP_INSERT, OP_QUERY, OP_RANGE
from .router import ClusterRouter
from .shardmap import ShardMap
from .transport import (
    MSG_DELETE,
    MSG_DIGEST,
    MSG_INSERT,
    MSG_LOOKUP,
    MSG_REBUILD,
    MSG_REPLAY,
    ProtocolError,
    ReplicaDeadError,
    ShardWorkerError,
    TransportBook,
    TransportConfig,
    WorkerClient,
    WorkerStats,
    keys_request,
    replay_request,
    settings_request,
    spawn_context,
)

__all__ = ["DivergenceConfig", "DivergenceDetector", "ReplicaGroup",
           "TransportClusterRouter"]


@dataclass(frozen=True)
class DivergenceConfig:
    """Tolerance band of the poisoned-replica detector.

    A replica is *out of band* in a tick when its error bound differs
    from the group median by more than ``tolerance * median + slack``
    (the absolute slack keeps tiny healthy wobbles on near-zero
    bounds from counting).  ``patience`` consecutive out-of-band
    ticks flag it — a single retrain blip self-clears.
    """

    tolerance: float = 0.5
    slack: float = 2.0
    patience: int = 2


class DivergenceDetector:
    """Per-group strike counter over replica error-bound series."""

    def __init__(self, config: DivergenceConfig, n_replicas: int):
        self._cfg = config
        self._strikes = [0] * n_replicas

    def observe(self, bounds: "list[tuple[int, float]]",
                ) -> "list[int]":
        """Feed one tick's live ``(replica, error_bound)`` pairs;
        returns replicas newly crossing the patience threshold."""
        if len(bounds) < 3:
            return []  # no majority of peers to define "normal"
        median = float(np.median([b for _, b in bounds]))
        band = self._cfg.tolerance * median + self._cfg.slack
        flagged = []
        for replica, bound in bounds:
            if abs(bound - median) > band:
                self._strikes[replica] += 1
                if self._strikes[replica] == self._cfg.patience:
                    flagged.append(replica)
            else:
                self._strikes[replica] = 0
        return flagged


class ReplicaGroup:
    """``k`` worker replicas of one shard behind the backend surface."""

    def __init__(self, book: TransportBook, shard: int, backend: str,
                 keys: np.ndarray, rebuild_threshold: float,
                 build_args: dict, n_replicas: int = 1,
                 read_mode: str = "quorum",
                 divergence: "DivergenceConfig | None" = None,
                 ctx: Any = None):
        if n_replicas < 1:
            raise ValueError(
                f"a shard group needs >= 1 replica: {n_replicas}")
        if read_mode not in ("quorum", "primary"):
            raise ValueError(f"unknown read mode: {read_mode!r}")
        self._book = book
        self._shard = int(shard)
        self._read_mode = read_mode
        self._threshold = rebuild_threshold
        self._keep: "float | None" = build_args.get("trim_keep_fraction")
        #: The backend class, whose validators check the settings.
        self._backend_cls = BACKENDS[backend]
        self.supports_trim = self._backend_cls.supports_trim
        self._detector = (None if divergence is None
                          else DivergenceDetector(divergence,
                                                  n_replicas))
        self._flagged: "list[int]" = []
        self._closed = False
        ctx = ctx if ctx is not None else spawn_context()
        self._replicas = [
            WorkerClient(book, shard, r, backend, rebuild_threshold,
                         build_args, keys, ctx=ctx)
            for r in range(n_replicas)]

    # -- liveness ------------------------------------------------------
    @property
    def shard(self) -> int:
        return self._shard

    @property
    def n_replicas(self) -> int:
        return len(self._replicas)

    @property
    def flagged(self) -> "tuple[int, ...]":
        """Replicas the divergence detector flagged as poisoned."""
        return tuple(self._flagged)

    def _live(self) -> "list[tuple[int, WorkerClient]]":
        return [(i, client)
                for i, client in enumerate(self._replicas)
                if self._book.healthy(self._shard, i)]

    def _primary(self) -> "WorkerClient | None":
        live = self._live()
        return live[0][1] if live else None

    def live_replicas(self) -> "list[int]":
        return [i for i, _ in self._live()]

    # -- read combining ------------------------------------------------
    @staticmethod
    def _combine(rows: "list[tuple[np.ndarray, np.ndarray]]",
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Quorum-combine per read slot across replica answers.

        Found is the majority vote; the probe cost is the q-th
        smallest across replicas — a quorum read completes when the
        q-th-cheapest replica has answered, so one slow (poisoned)
        replica cannot inflate the served latency once flagged or
        outvoted.
        """
        if len(rows) == 1:
            return rows[0]
        quorum = len(rows) // 2 + 1
        found = np.stack([f for f, _ in rows]).sum(axis=0) >= quorum
        probes = np.sort(np.stack([p for _, p in rows]),
                         axis=0)[quorum - 1]
        return found, probes

    def _read_rows(self, rows: "list[tuple[int, np.ndarray, np.ndarray]]",
                   n_reads: int) -> tuple[np.ndarray, np.ndarray]:
        if not rows:  # total outage: every read misses at zero cost
            return (np.zeros(n_reads, dtype=bool),
                    np.zeros(n_reads, dtype=np.int64))
        if self._read_mode == "primary":
            primary = min(r for r, _, _ in rows)
            return next((f, p) for r, f, p in rows if r == primary)
        return self._combine([(f, p) for _, f, p in rows])

    # -- fan-out -------------------------------------------------------
    @staticmethod
    def _fan_out(code: int,
                 requests: "list[tuple[int, WorkerClient, bytes]]",
                 decode: Any) -> "list[tuple[int, Any]]":
        """Send every ``(replica, client, body)`` request, then read
        the replies in replica order; ``decode(client, reply)`` each.

        A replica declared dead on the way drops out.  A worker error
        or a reply that does not decode is raised only once every
        other reply owed has been read, so the surviving pipes stay in
        sequence; the first such error in replica order is raised.
        """
        sent = []
        for i, client, body in requests:
            try:
                client.send(code, body)
            except ReplicaDeadError:
                continue
            sent.append((i, client))
        rows, error = [], None
        for i, client in sent:
            try:
                rows.append((i, decode(client, client.receive())))
            except ReplicaDeadError:
                continue
            except (ShardWorkerError, ProtocolError) as exc:
                error = error if error is not None else exc
        if error is not None:
            raise error
        return rows

    def _broadcast(self, code: int, body: bytes = b"",
                   decode: Any = lambda client, reply: reply,
                   ) -> "list[tuple[int, Any]]":
        """One request to every live replica, through :meth:`_fan_out`."""
        return self._fan_out(
            code, [(i, client, body) for i, client in self._live()],
            decode)

    # -- serving surface (mirrors ServingBackend) ----------------------
    def replay_ops(self, kinds: np.ndarray, keys: np.ndarray,
                   aux: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        kinds = np.asarray(kinds)
        n_reads = int(((kinds == OP_QUERY)
                       | (kinds == OP_RANGE)).sum())
        settings = self._settings()
        shared = None
        requests = []
        for i, client in self._live():
            poison = self._book.poison_keys(self._shard, i)
            if poison.size:
                # The compromise channel: extra inserts appended to
                # this replica's batch only, after the tick's real
                # ops — reads this tick still agree, the divergence
                # shows up in the next ticks' error bounds.
                body = settings + replay_request(
                    np.concatenate([kinds, np.full(
                        poison.size, OP_INSERT, dtype=kinds.dtype)]),
                    np.concatenate([
                        np.asarray(keys, dtype=np.int64), poison]),
                    np.concatenate([
                        np.asarray(aux, dtype=np.int64),
                        np.zeros(poison.size, dtype=np.int64)]))
            else:
                if shared is None:
                    shared = settings + replay_request(kinds, keys, aux)
                body = shared
            requests.append((i, client, body))
        replies = self._fan_out(MSG_REPLAY, requests,
                                WorkerClient.replay_reply)
        return self._read_rows(
            [(i, found, probes) for i, (found, probes) in replies],
            n_reads)

    def lookup_batch(self, keys: np.ndarray,
                     ) -> tuple[np.ndarray, np.ndarray]:
        keys = np.asarray(keys, dtype=np.int64)
        targets = self._live()
        if self._read_mode == "primary" and targets:
            targets = targets[:1]
        body = keys_request(keys)
        replies = self._fan_out(
            MSG_LOOKUP, [(i, client, body) for i, client in targets],
            lambda client, reply: client.lookup_reply(reply, keys.size))
        return self._read_rows(
            [(i, found, probes) for i, (found, probes) in replies],
            keys.size)

    def range_scan(self, lo: int, hi: int) -> int:
        """The probe cost of locating ``lo``, as
        :meth:`~repro.workload.backends.ServingBackend.range_scan`
        charges it, read like any lookup."""
        _, probes = self.lookup_batch(np.asarray([lo], dtype=np.int64))
        return int(probes[0])

    def insert_batch(self, keys: np.ndarray) -> None:
        self._mutate(MSG_INSERT, keys_request(keys))

    def delete_batch(self, keys: np.ndarray) -> None:
        self._mutate(MSG_DELETE, keys_request(keys))

    def rebuild(self) -> None:
        self._mutate(MSG_REBUILD)

    def _settings(self) -> bytes:
        return settings_request(self._threshold, self._keep)

    def _mutate(self, code: int, body: bytes = b"") -> None:
        """An INSERT, DELETE or REBUILD to every live replica, after
        the group's settings."""
        self._broadcast(code, self._settings() + body,
                        lambda client, reply: client.stats_reply(
                            code, reply))

    # -- scalar surface (primary replica's view) -----------------------
    def _primary_stats(self) -> "WorkerStats | None":
        """The primary's stats as of its last state-changing reply."""
        primary = self._primary()
        return None if primary is None else primary.stats

    @property
    def n_keys(self) -> int:
        stats = self._primary_stats()
        return 0 if stats is None else stats.n_keys

    @property
    def retrain_count(self) -> int:
        stats = self._primary_stats()
        return 0 if stats is None else stats.retrain_count

    @property
    def pending_updates(self) -> int:
        stats = self._primary_stats()
        return 0 if stats is None else stats.pending_updates

    @property
    def quarantine_size(self) -> int:
        stats = self._primary_stats()
        return 0 if stats is None else stats.quarantine_size

    def error_bound(self) -> float:
        stats = self._primary_stats()
        return 0.0 if stats is None else stats.error_bound

    def live_keys(self) -> np.ndarray:
        primary = self._primary()
        return (np.empty(0, dtype=np.int64) if primary is None
                else primary.live_keys())

    def state_digest(self) -> str:
        primary = self._primary()
        return "dead" if primary is None else primary.digest()

    def replica_digests(self) -> "list[str]":
        return [digest for _, digest in self._broadcast(
            MSG_DIGEST, decode=WorkerClient.digest_reply)]

    # -- tuner hooks (router is the only writer, so the local copy
    # is authoritative; it rides the next state-changing request) -----
    @property
    def rebuild_threshold(self) -> float:
        return self._threshold

    @property
    def trim_keep_fraction(self) -> "float | None":
        return self._keep

    def set_rebuild_threshold(self, threshold: float) -> None:
        self._backend_cls._validate_threshold(threshold)
        self._threshold = threshold

    def set_trim_keep_fraction(self, fraction: "float | None") -> None:
        self._backend_cls._validate_keep_fraction(fraction)
        self._keep = fraction

    # -- divergence detection ------------------------------------------
    def detect(self) -> "list[int]":
        """One detector tick: read live error bounds, quarantine any
        replica out of band for ``patience`` consecutive ticks."""
        if self._detector is None:
            return []
        flagged = self._detector.observe(
            [(i, client.stats.error_bound) for i, client in self._live()])
        for replica in flagged:
            self._book.quarantine_replica(self._shard, replica)
            self._flagged.append(replica)
        return flagged

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for client in self._replicas:
            client.close()


class TransportClusterRouter(ClusterRouter):
    """The cross-process cluster: worker-process replica groups under
    the unchanged router logic.

    Only :meth:`_make_backend` differs from the in-process router —
    each shard becomes a :class:`ReplicaGroup` of ``replicas`` worker
    processes sharing this router's :class:`TransportBook` — plus the
    transport bookkeeping the simulator reads (:meth:`start_tick`,
    :meth:`transport_tick_stats`) and worker-fleet lifecycle
    (migrations close orphaned groups; use as a context manager or
    call :meth:`close`).

    Divergence detection is armed by default (it only acts when a
    group has >= 3 live replicas — below that there is no majority of
    peers to define "normal") and is forced off with
    ``detect_divergence=False`` (the naive arm of the
    poisoned-replica duel).
    """

    def __init__(self, shard_map: ShardMap, keys: np.ndarray,
                 backend: str, *,
                 transport: "TransportConfig | None" = None,
                 replicas: int = 1, read_mode: str = "quorum",
                 divergence: "DivergenceConfig | None" = None,
                 detect_divergence: bool = True,
                 **router_args: Any):
        self._book = TransportBook(transport
                                   if transport is not None
                                   else TransportConfig())
        self._n_replicas = int(replicas)
        self._read_mode = read_mode
        if not detect_divergence:
            self._divergence = None
        else:
            self._divergence = (divergence if divergence is not None
                                else DivergenceConfig())
        self._ctx = spawn_context()
        self._spawned: "list[ReplicaGroup]" = []
        super().__init__(shard_map, keys, backend, **router_args)

    @property
    def book(self) -> TransportBook:
        return self._book

    def set_metrics(self, metrics) -> None:
        # Replica groups have no registry of their own; the book
        # carries it for every WorkerClient under this router.
        super().set_metrics(metrics)
        self._book.set_metrics(metrics)

    def _make_backend(self, keys: np.ndarray, threshold: float,
                      shard: int) -> ReplicaGroup:
        group = ReplicaGroup(
            self._book, shard, self._backend_name, keys, threshold,
            self._build_args, n_replicas=self._n_replicas,
            read_mode=self._read_mode, divergence=self._divergence,
            ctx=self._ctx)
        self._spawned.append(group)
        return group

    def apply_map(self, new_map: ShardMap) -> int:
        migrated = super().apply_map(new_map)
        current = {id(s) for s in self._shards if s is not None}
        for group in self._spawned:
            if id(group) not in current:
                group.close()
        self._spawned = [g for g in self._spawned
                         if id(g) in current]
        return migrated

    # -- transport surface ---------------------------------------------
    def start_tick(self, tick: int) -> None:
        self._book.start_tick(tick)

    def transport_tick_stats(self) -> tuple[int, int, float]:
        for group in self._shards:
            if group is not None:
                group.detect()
        return self._book.drain_tick_stats()

    def flagged_replicas(self) -> "list[tuple[int, int]]":
        return self._book.flagged()

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        for group in self._spawned:
            group.close()

    def __enter__(self) -> "TransportClusterRouter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
