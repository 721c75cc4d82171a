"""Cross-process shard transport: workers, wire protocol, fault book.

The in-process :class:`~repro.cluster.router.ClusterRouter` stops at
thread fan-out over shared-memory backends; this module is the real
transport underneath it.  Each shard replica is a **worker process**
hosting an unmodified :mod:`repro.workload.backends` backend and
speaking a versioned binary protocol over a pipe — the columnar
``replay_ops`` event runs are the wire unit, serialized by
:func:`repro.workload.columnar.encode_event_batch` rather than
pickled Python objects.  Three layers:

* **protocol** — framed request/reply messages (``version, code,
  seq`` header + packed body); a version mismatch or an unknown code
  fails loudly on either side, and a worker-side exception comes back
  as an ERR frame the client re-raises as :class:`ShardWorkerError`
  with the shard id attached;
* **worker** — :func:`shard_worker_main`, the per-process serve loop
  (build backend from a build spec, then dispatch until SHUTDOWN or
  the parent hangs up), shaped after the per-round server loop of
  SNIPPETS Snippet 1;
* **router-side book** — :class:`TransportBook` holds the injected
  latency/failure models (seeded via ``stable_seed_words``:
  deterministic per ``(shard, replica, tick, seq)``), the per-request
  timeout + capped exponential-backoff retry policy, the failover
  budget after which a replica is declared dead, and the per-tick
  degradation/latency accounting the simulator records as first-class
  series.

Worker processes start through a ``forkserver`` context where the
platform has one (fork-from-a-threaded-router is unsafe, raw spawn
pays a fresh interpreter per worker) and fall back to ``spawn``.
With injection off the book is pure pass-through — the parity suite
pins a process-transport cluster bit-identical to the in-process
router.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import struct
import threading
import time
from dataclasses import dataclass

import numpy as np

from ..contracts import (
    FRAME as _FRAME,
    MSG_DELETE,
    MSG_DIGEST,
    MSG_INSERT,
    MSG_LIVE_KEYS,
    MSG_LOOKUP,
    MSG_RANGE,
    MSG_REBUILD,
    MSG_REPLAY,
    MSG_SET_KEEP,
    MSG_SET_THRESHOLD,
    MSG_SHUTDOWN,
    MSG_STATS,
    PROTOCOL_VERSION,
    REPLY_ERR,
    REPLY_OK,
    ContractViolation,
)
from ..runtime.cell import stable_seed_words
from ..workload.backends import ServingBackend, make_backend
from ..workload.columnar import decode_event_batch, encode_event_batch

__all__ = [
    "PROTOCOL_VERSION", "FaultSpec", "TransportConfig",
    "TransportBook", "WorkerClient", "WorkerStats",
    "ProtocolError", "ShardWorkerError", "ReplicaDeadError",
    "shard_worker_main",
]

# The frame header layout, the message-code registry, and the protocol
# version are declared once in :mod:`repro.contracts`; this module
# implements both endpoints and re-exports the names its established
# importers use.

_STATS = struct.Struct("<qqqqddd")


class ProtocolError(ContractViolation):
    """Malformed or version-mismatched frame on the shard wire."""


class ShardWorkerError(RuntimeError):
    """A worker's dispatch raised; re-raised router-side with the
    shard id attached so the failing range is identifiable."""

    def __init__(self, shard: int, message: str):
        super().__init__(f"shard {shard} worker: {message}")
        self.shard = shard


class ReplicaDeadError(RuntimeError):
    """A replica exhausted its failover budget and was declared dead.

    The replica group catches this and degrades (re-routes reads to
    the surviving replicas); it only escapes to the caller when a
    whole group is gone.
    """

    def __init__(self, shard: int, replica: int):
        super().__init__(
            f"shard {shard} replica {replica} declared dead")
        self.shard = shard
        self.replica = replica


# ---------------------------------------------------------------------
# Frame + body packing
# ---------------------------------------------------------------------
def _frame(code: int, seq: int, body: bytes = b"") -> bytes:
    return _FRAME.pack(PROTOCOL_VERSION, code, seq) + body


def _parse_frame(raw: bytes) -> tuple[int, int, bytes]:
    if len(raw) < _FRAME.size:
        raise ProtocolError(f"short frame: {len(raw)} bytes")
    version, code, seq = _FRAME.unpack_from(raw)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"frame version {version} != supported "
            f"{PROTOCOL_VERSION}")
    return code, seq, raw[_FRAME.size:]


def _pack_i64(arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr, dtype="<i8")
    return struct.pack("<Q", arr.size) + arr.tobytes()


def _unpack_i64(buf: bytes, off: int) -> tuple[np.ndarray, int]:
    (n,) = struct.unpack_from("<Q", buf, off)
    off += 8
    arr = np.frombuffer(buf, dtype="<i8", count=n,
                        offset=off).astype(np.int64)
    return arr, off + 8 * n


def _pack_bool(arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr, dtype=np.uint8)
    return struct.pack("<Q", arr.size) + arr.tobytes()


def _unpack_bool(buf: bytes, off: int) -> tuple[np.ndarray, int]:
    (n,) = struct.unpack_from("<Q", buf, off)
    off += 8
    arr = np.frombuffer(buf, dtype=np.uint8, count=n,
                        offset=off).astype(bool)
    return arr, off + n


@dataclass(frozen=True)
class WorkerStats:
    """One STATS reply: the scalar serving surface of a backend."""

    n_keys: int
    retrain_count: int
    pending_updates: int
    quarantine_size: int
    error_bound: float
    rebuild_threshold: float
    trim_keep_fraction: "float | None"

    def pack(self) -> bytes:
        keep = (np.nan if self.trim_keep_fraction is None
                else self.trim_keep_fraction)
        return _STATS.pack(self.n_keys, self.retrain_count,
                           self.pending_updates, self.quarantine_size,
                           self.error_bound, self.rebuild_threshold,
                           keep)

    @classmethod
    def unpack(cls, body: bytes) -> "WorkerStats":
        n, r, p, q, eb, thr, keep = _STATS.unpack(body)
        return cls(n, r, p, q, eb, thr,
                   None if np.isnan(keep) else keep)


# ---------------------------------------------------------------------
# Build spec: everything a worker needs to construct its backend
# ---------------------------------------------------------------------
def encode_build_spec(backend: str, rebuild_threshold: float,
                      build_args: dict, keys: np.ndarray) -> bytes:
    head = json.dumps(
        {"protocol": PROTOCOL_VERSION, "backend": backend,
         "rebuild_threshold": rebuild_threshold,
         "build_args": build_args},
        sort_keys=True).encode()
    return struct.pack("<Q", len(head)) + head + _pack_i64(keys)


def decode_build_spec(blob: bytes) -> ServingBackend:
    (head_len,) = struct.unpack_from("<Q", blob)
    head = json.loads(blob[8:8 + head_len].decode())
    if head["protocol"] != PROTOCOL_VERSION:
        raise ProtocolError(
            f"build spec protocol {head['protocol']} != "
            f"supported {PROTOCOL_VERSION}")
    keys, _ = _unpack_i64(blob, 8 + head_len)
    return make_backend(head["backend"], keys,
                        rebuild_threshold=head["rebuild_threshold"],
                        **head["build_args"])


# ---------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------
def _dispatch(backend: ServingBackend, code: int,
              body: bytes) -> bytes:
    if code == MSG_REPLAY:
        kinds, keys, aux = decode_event_batch(body)
        found, probes = backend.replay_ops(kinds, keys, aux)
        return _pack_bool(found) + _pack_i64(probes)
    if code == MSG_LOOKUP:
        keys, _ = _unpack_i64(body, 0)
        found, probes = backend.lookup_batch(keys)
        return _pack_bool(found) + _pack_i64(probes)
    if code == MSG_INSERT:
        keys, _ = _unpack_i64(body, 0)
        backend.insert_batch(keys)
        return b""
    if code == MSG_DELETE:
        keys, _ = _unpack_i64(body, 0)
        backend.delete_batch(keys)
        return b""
    if code == MSG_RANGE:
        lo, hi = struct.unpack("<qq", body)
        return struct.pack("<q", backend.range_scan(lo, hi))
    if code == MSG_STATS:
        return WorkerStats(
            backend.n_keys, backend.retrain_count,
            backend.pending_updates, backend.quarantine_size,
            backend.error_bound(), backend.rebuild_threshold,
            backend.trim_keep_fraction).pack()
    if code == MSG_LIVE_KEYS:
        return _pack_i64(backend.live_keys())
    if code == MSG_SET_KEEP:
        (keep,) = struct.unpack("<d", body)
        backend.set_trim_keep_fraction(
            None if np.isnan(keep) else keep)
        return b""
    if code == MSG_SET_THRESHOLD:
        (threshold,) = struct.unpack("<d", body)
        backend.set_rebuild_threshold(threshold)
        return b""
    if code == MSG_REBUILD:
        backend.rebuild()
        return b""
    if code == MSG_DIGEST:
        return backend.state_digest().encode()
    raise ProtocolError(f"unknown message code: {code}")


def shard_worker_main(conn, build_blob: bytes) -> None:
    """The per-replica serve loop: build, ack, dispatch until told
    to stop (or until the router hangs up the pipe)."""
    try:
        backend = decode_build_spec(build_blob)
    except BaseException as exc:  # surface build failures as the ack
        try:
            conn.send_bytes(_frame(
                REPLY_ERR, 0,
                f"{type(exc).__name__}: {exc}".encode()))
        finally:
            conn.close()
        return
    conn.send_bytes(_frame(REPLY_OK, 0))
    while True:
        try:
            raw = conn.recv_bytes()
        except (EOFError, OSError):
            break  # router went away; nothing left to serve
        try:
            code, seq, body = _parse_frame(raw)
        except ProtocolError as exc:
            conn.send_bytes(_frame(REPLY_ERR, 0, str(exc).encode()))
            continue
        if code == MSG_SHUTDOWN:
            conn.send_bytes(_frame(REPLY_OK, seq))
            break
        try:
            out = _dispatch(backend, code, body)
        except Exception as exc:
            reply = _frame(REPLY_ERR, seq,
                           f"{type(exc).__name__}: {exc}".encode())
        else:
            reply = _frame(REPLY_OK, seq, out)
        try:
            conn.send_bytes(reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()


def spawn_context():
    """The start method shard workers use.

    ``forkserver`` where available: the router fan-out runs in
    threads, and forking a threaded process can deadlock the child on
    locks the fork snapshotted mid-acquire — the fork server stays
    single-threaded, so its forks are safe *and* cheap (one
    interpreter boot total, preloaded with the backend stack, instead
    of one per worker under ``spawn``).
    """
    methods = mp.get_all_start_methods()
    if "forkserver" in methods:
        ctx = mp.get_context("forkserver")
        try:
            ctx.set_forkserver_preload(["repro.cluster.transport"])
        except Exception:
            pass  # server already running: preload is set for good
        return ctx
    return mp.get_context("spawn")


# ---------------------------------------------------------------------
# Router-side failure/latency models
# ---------------------------------------------------------------------
@dataclass(frozen=True)
class FaultSpec:
    """One injected fault, addressed to a ``(shard, replica)`` slot.

    ``kind`` is one of:

    * ``"timeout"`` — the slot's first ``attempts`` attempts per
      request time out while the spec is active (tick window
      ``[tick, until]``, ``until=None`` = forever);
    * ``"dead"`` — the slot is dead for the window (every attempt
      fails; with a budget-length window the replica is declared
      dead);
    * ``"poison"`` — ``keys`` are injected into the slot's replay
      batch once per active tick, *only on that replica* — the
      silent-compromise scenario divergence detection exists for.

    Shards are addressed by build-time index; a migration renumbers
    shards, so fault grids pair with static (unmanaged) scenarios.
    """

    kind: str
    shard: int
    replica: int = 0
    tick: int = 0
    until: "int | None" = None
    attempts: int = 1
    keys: "tuple[int, ...]" = ()

    def __post_init__(self):
        if self.kind not in ("timeout", "dead", "poison"):
            raise ValueError(f"unknown fault kind: {self.kind!r}")

    def active(self, tick: int) -> bool:
        return (tick >= self.tick
                and (self.until is None or tick <= self.until))


@dataclass(frozen=True)
class TransportConfig:
    """Knobs of the router-side transport book.

    Latency is *virtual* (model milliseconds, accounted per tick as
    the ``latency_ms`` series) so runs stay deterministic and fast;
    ``wall_timeout_s`` is the only real clock — a safety net against
    a genuinely wedged worker process.  With ``latency_mean_ms == 0``
    and no faults the book is inert and the transport is pinned
    bit-identical to the in-process router.
    """

    timeout_ms: float = 25.0        # virtual per-attempt budget
    failover_budget: int = 3        # failed attempts before dead
    backoff_base_ms: float = 2.0    # retry backoff: base * 2**attempt
    backoff_cap_ms: float = 16.0    # ... capped here
    latency_mean_ms: float = 0.0    # exponential model; 0 = off
    seed: int = 0
    wall_timeout_s: float = 60.0    # real pipe deadline
    faults: "tuple[FaultSpec, ...]" = ()

    @property
    def injection_enabled(self) -> bool:
        return self.latency_mean_ms > 0 or bool(self.faults)


class TransportBook:
    """Per-router ledger of transport state and injected faults.

    Seeding contract: the latency draw for attempt *a* of request
    *seq* to slot ``(shard, replica)`` in tick *t* is a pure function
    of ``(config.seed, shard, replica, t, seq)`` — per-slot request
    counters reset at each :meth:`start_tick`, so the same scenario
    replays the same degraded-window series at any fan-out job count.
    """

    def __init__(self, config: TransportConfig):
        self._cfg = config
        self._tick = 0
        #: Optional :class:`repro.observe.MetricsRegistry`; clients
        #: read it for the encode/rpc/decode/retry stage timers.
        #: Counters and timings are commutative, so one registry is
        #: safe across the router's thread fan-out.
        self.metrics = None
        self._lock = threading.Lock()
        self._seq: "dict[tuple[int, int], int]" = {}
        self._dead: "dict[tuple[int, int], int]" = {}
        self._quarantined: "dict[tuple[int, int], int]" = {}
        self._flagged: "list[tuple[int, int]]" = []
        self._tick_latency = 0.0
        self._tick_troubled: "set[tuple[int, int]]" = set()

    @property
    def config(self) -> TransportConfig:
        return self._cfg

    @property
    def tick(self) -> int:
        return self._tick

    def set_metrics(self, metrics) -> None:
        """Attach an opt-in metrics registry (None detaches).

        Timings are wall-clock-only observability; nothing recorded
        here can change replies, retry decisions, or digests.
        """
        self.metrics = metrics

    def start_tick(self, tick: int) -> None:
        with self._lock:
            self._tick = int(tick)
            self._seq.clear()

    # -- liveness ------------------------------------------------------
    def is_dead(self, shard: int, replica: int) -> bool:
        """Declared dead — only after a failover budget is spent.

        An injected ``"dead"`` fault does *not* flip this directly:
        the slot's attempts all fail, the client burns its retry
        budget, and only then is the death declared and its keys
        re-routed.  That is the graceful-degradation contract — a
        dead machine looks like timeouts until the budget says
        otherwise.
        """
        return (shard, replica) in self._dead

    def is_quarantined(self, shard: int, replica: int) -> bool:
        return (shard, replica) in self._quarantined

    def healthy(self, shard: int, replica: int) -> bool:
        return not (self.is_dead(shard, replica)
                    or self.is_quarantined(shard, replica))

    def mark_dead(self, shard: int, replica: int) -> None:
        with self._lock:
            self._dead.setdefault((shard, replica), self._tick)
            self._tick_troubled.add((shard, replica))

    def quarantine_replica(self, shard: int, replica: int) -> None:
        slot = (shard, replica)
        with self._lock:
            if slot not in self._quarantined:
                self._quarantined[slot] = self._tick
                self._flagged.append(slot)
                self._tick_troubled.add(slot)

    def flagged(self) -> "list[tuple[int, int]]":
        return list(self._flagged)

    # -- per-attempt model ---------------------------------------------
    def plan_attempt(self, shard: int, replica: int,
                     attempt: int) -> bool:
        """Decide one attempt's fate; charge its virtual latency.

        Returns whether the attempt goes through.  A successful
        attempt costs its latency draw; a timed-out one costs the
        full timeout budget plus the capped exponential backoff the
        client sleeps (virtually) before retrying.
        """
        cfg = self._cfg
        slot = (shard, replica)
        with self._lock:
            seq = self._seq.get(slot, 0)
            self._seq[slot] = seq + 1
        forced = any(
            spec.shard == shard and spec.replica == replica
            and spec.active(self._tick)
            and (spec.kind == "dead"
                 or (spec.kind == "timeout"
                     and attempt < spec.attempts))
            for spec in cfg.faults)
        latency = 0.0
        if cfg.latency_mean_ms > 0:
            rng = np.random.default_rng(stable_seed_words(
                cfg.seed, "transport-latency", shard, replica,
                self._tick, seq))
            latency = float(rng.exponential(cfg.latency_mean_ms))
        ok = not forced and latency <= cfg.timeout_ms
        charged = latency if ok else cfg.timeout_ms
        if not ok:
            charged += min(cfg.backoff_cap_ms,
                           cfg.backoff_base_ms * 2.0 ** attempt)
        with self._lock:
            self._tick_latency += charged
            if not ok:
                self._tick_troubled.add(slot)
        return ok

    def note_trouble(self, shard: int, replica: int) -> None:
        """Record a real (wall-clock) transport failure."""
        with self._lock:
            self._tick_troubled.add((shard, replica))

    def poison_keys(self, shard: int, replica: int) -> np.ndarray:
        parts = [spec.keys for spec in self._cfg.faults
                 if spec.kind == "poison" and spec.shard == shard
                 and spec.replica == replica
                 and spec.active(self._tick)]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(
            [np.asarray(p, dtype=np.int64) for p in parts])

    # -- per-tick accounting -------------------------------------------
    def drain_tick_stats(self) -> tuple[int, int, float]:
        """(degraded slots, flagged replicas, injected ms) this tick.

        Degraded = replica slots that were dead, quarantined, or hit
        at least one failed attempt during the window — the
        first-class "degraded window" series.
        """
        with self._lock:
            degraded = len(set(self._dead)
                           | set(self._quarantined)
                           | self._tick_troubled)
            flagged = len(self._flagged)
            latency = self._tick_latency
            self._tick_latency = 0.0
            self._tick_troubled = set()
        return degraded, flagged, latency


# ---------------------------------------------------------------------
# Router-side worker proxy
# ---------------------------------------------------------------------
class WorkerClient:
    """One replica's pipe endpoint, with the book's retry policy.

    Every request runs the attempt loop: consult the book (injected
    timeouts, latency draws), send the frame, wait for the reply
    under the real wall deadline, back off and retry on failure.  A
    replica that exhausts ``failover_budget`` attempts is declared
    dead in the book, its process reaped, and
    :class:`ReplicaDeadError` raised for the group to absorb.
    """

    def __init__(self, book: TransportBook, shard: int, replica: int,
                 backend: str, rebuild_threshold: float,
                 build_args: dict, keys: np.ndarray, ctx=None):
        self._book = book
        self._shard = int(shard)
        self._replica = int(replica)
        self._seq = 0
        self._closed = False
        ctx = ctx if ctx is not None else spawn_context()
        parent, child = ctx.Pipe()
        blob = encode_build_spec(backend, rebuild_threshold,
                                 build_args, keys)
        self._process = ctx.Process(
            target=shard_worker_main, args=(child, blob),
            daemon=True, name=f"shard{shard}-r{replica}")
        self._process.start()
        child.close()
        self._conn = parent
        try:
            code, _, body = self._recv(book.config.wall_timeout_s)
        except (EOFError, OSError, TimeoutError) as exc:
            # Died or wedged before its handshake: reap it and say so.
            parent.close()
            self._process.kill()
            self._process.join()
            raise ShardWorkerError(self._shard, (
                f"replica {self._replica} sent no handshake "
                f"({type(exc).__name__}); exit code "
                f"{self._process.exitcode}")) from exc
        if code != REPLY_OK:
            self.close()
            raise ShardWorkerError(self._shard, body.decode())

    @property
    def shard(self) -> int:
        return self._shard

    @property
    def replica(self) -> int:
        return self._replica

    def _recv(self, timeout: float) -> tuple[int, int, bytes]:
        if not self._conn.poll(timeout):
            raise TimeoutError(
                f"shard {self._shard} replica {self._replica}: no "
                f"reply within {timeout}s")
        return _parse_frame(self._conn.recv_bytes())

    def call(self, code: int, body: bytes = b"") -> bytes:
        book = self._book
        cfg = book.config
        if self._closed or book.is_dead(self._shard, self._replica):
            raise ReplicaDeadError(self._shard, self._replica)
        metrics = book.metrics
        for attempt in range(cfg.failover_budget):
            if not book.plan_attempt(self._shard, self._replica,
                                     attempt):
                if metrics is not None:
                    metrics.inc("transport.retries")
                continue  # injected timeout consumed this attempt
            seq = self._seq
            self._seq += 1
            rpc_started = (time.perf_counter()
                           if metrics is not None else 0.0)
            try:
                self._conn.send_bytes(_frame(code, seq, body))
                rcode, rseq, rbody = self._recv(cfg.wall_timeout_s)
            except (EOFError, OSError, TimeoutError):
                book.note_trouble(self._shard, self._replica)
                if metrics is not None:
                    metrics.inc("transport.retries")
                    metrics.observe("transport.retry",
                                    time.perf_counter() - rpc_started)
                continue  # real failure: worker gone or wedged
            if metrics is not None:
                metrics.observe("transport.rpc",
                                time.perf_counter() - rpc_started)
                metrics.inc("transport.calls")
            if rcode == REPLY_ERR:
                raise ShardWorkerError(self._shard, rbody.decode())
            if rseq != seq:
                raise ProtocolError(
                    f"shard {self._shard}: reply seq {rseq} != "
                    f"request seq {seq}")
            return rbody
        book.mark_dead(self._shard, self._replica)
        self.close()
        raise ReplicaDeadError(self._shard, self._replica)

    # -- typed wrappers ------------------------------------------------
    def replay(self, kinds: np.ndarray, keys: np.ndarray,
               aux: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        metrics = self._book.metrics
        started = (time.perf_counter()
                   if metrics is not None else 0.0)
        payload = encode_event_batch(kinds, keys, aux)
        if metrics is not None:
            metrics.observe("transport.encode",
                            time.perf_counter() - started)
        body = self.call(MSG_REPLAY, payload)
        started = (time.perf_counter()
                   if metrics is not None else 0.0)
        found, off = _unpack_bool(body, 0)
        probes, _ = _unpack_i64(body, off)
        if metrics is not None:
            metrics.observe("transport.decode",
                            time.perf_counter() - started)
        return found, probes

    def lookup(self, keys: np.ndarray,
               ) -> tuple[np.ndarray, np.ndarray]:
        metrics = self._book.metrics
        started = (time.perf_counter()
                   if metrics is not None else 0.0)
        payload = _pack_i64(keys)
        if metrics is not None:
            metrics.observe("transport.encode",
                            time.perf_counter() - started)
        body = self.call(MSG_LOOKUP, payload)
        started = (time.perf_counter()
                   if metrics is not None else 0.0)
        found, off = _unpack_bool(body, 0)
        probes, _ = _unpack_i64(body, off)
        if metrics is not None:
            metrics.observe("transport.decode",
                            time.perf_counter() - started)
        return found, probes

    def insert(self, keys: np.ndarray) -> None:
        self.call(MSG_INSERT, _pack_i64(keys))

    def delete(self, keys: np.ndarray) -> None:
        self.call(MSG_DELETE, _pack_i64(keys))

    def range_scan(self, lo: int, hi: int) -> int:
        body = self.call(MSG_RANGE, struct.pack("<qq", lo, hi))
        return int(struct.unpack("<q", body)[0])

    def stats(self) -> WorkerStats:
        return WorkerStats.unpack(self.call(MSG_STATS))

    def live_keys(self) -> np.ndarray:
        keys, _ = _unpack_i64(self.call(MSG_LIVE_KEYS), 0)
        return keys

    def set_trim_keep_fraction(self, keep: "float | None") -> None:
        self.call(MSG_SET_KEEP, struct.pack(
            "<d", np.nan if keep is None else keep))

    def set_rebuild_threshold(self, threshold: float) -> None:
        self.call(MSG_SET_THRESHOLD, struct.pack("<d", threshold))

    def rebuild(self) -> None:
        self.call(MSG_REBUILD)

    def digest(self) -> str:
        return self.call(MSG_DIGEST).decode()

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._conn.send_bytes(_frame(MSG_SHUTDOWN, self._seq))
            if self._conn.poll(1.0):
                self._conn.recv_bytes()
        except (BrokenPipeError, OSError):
            pass
        finally:
            self._conn.close()
        self._process.join(timeout=5.0)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=1.0)
