"""Cross-process shard transport: workers, wire protocol, fault book.

The in-process :class:`~repro.cluster.router.ClusterRouter` stops at
shared-memory backends; this module is the real transport underneath
it.  Each shard replica is a **worker process**
hosting an unmodified :mod:`repro.workload.backends` backend and
speaking a versioned binary protocol over a pipe — the columnar
``replay_ops`` event runs are the wire unit, serialized by
:func:`repro.workload.columnar.encode_event_batch` rather than
pickled Python objects.  Three layers:

* **protocol** — framed request/reply messages (``version, code,
  seq`` header + packed body); a version mismatch or an unknown code
  fails loudly on either side, and a worker-side exception comes back
  as an ERR frame the client re-raises as :class:`ShardWorkerError`
  naming the shard and replica; a reply the client cannot parse is a
  :class:`ProtocolError` naming the shard, replica and message.  The
  requests that can change a replica (REPLAY, INSERT, DELETE,
  REBUILD) start with the group's two defense settings, which the
  worker applies before serving, and their replies, like the
  handshake, end with the replica's :class:`WorkerStats` — so no
  request exists only to set a value or to read one.  A request is
  sent (:meth:`WorkerClient.send`) apart from reading its reply
  (:meth:`WorkerClient.receive`), so a replica group can have every
  replica working on a request before it reads any answer (bodies
  from the ``*_request`` helpers, replies through ``*_reply``);
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
pays a fresh interpreter per worker) and fall back to ``spawn``.  The
fork server imports this module — numpy and the backend stack with
it — once, and every worker forks from that; a worker that had to
import it itself is refused with a :class:`ShardWorkerError` naming
the preload (see :func:`spawn_context`).
With injection off the book is pure pass-through — the parity suite
pins a process-transport cluster bit-identical to the in-process
router.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
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
    MSG_REBUILD,
    MSG_REPLAY,
    MSG_SHUTDOWN,
    PROTOCOL_VERSION,
    REPLY_ERR,
    REPLY_OK,
    REQUEST_CODES,
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

_STATS = struct.Struct("<qqqqd")
#: The settings prefix: rebuild threshold, TRIM keep fraction (NaN =
#: None).
_SETTINGS = struct.Struct("<dd")
#: The requests that can change a replica's state — the only ones
#: that reach a rebuild check, so the only ones that need the
#: settings, and the only ones whose reply can carry new stats.
_MUTATING = frozenset({MSG_REPLAY, MSG_INSERT, MSG_DELETE, MSG_REBUILD})
_REQUEST_NAMES = {code: name for name, code in REQUEST_CODES.items()}

#: The process that imported this module: a worker whose pid differs
#: was forked from an ancestor that had it loaded (the fork server's
#: preload), one whose pid matches imported it from scratch.
_IMPORT_PID = os.getpid()
#: The directory holding the ``repro`` package.
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
_PRELOAD = "repro.cluster.transport"
_PRELOAD_LOCK = threading.Lock()


class ProtocolError(ContractViolation):
    """Malformed or version-mismatched frame on the shard wire."""


class ShardWorkerError(RuntimeError):
    """A worker's dispatch raised; re-raised router-side with the
    shard id attached (and the replica named in the message) so the
    failing range is identifiable."""

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
    """The scalar serving surface of a backend: the trailer of the
    handshake and of every reply to a state-changing request.  The
    two settings are not in it: the group that sends them answers
    for them."""

    n_keys: int
    retrain_count: int
    pending_updates: int
    quarantine_size: int
    error_bound: float

    def pack(self) -> bytes:
        return _STATS.pack(self.n_keys, self.retrain_count,
                           self.pending_updates, self.quarantine_size,
                           self.error_bound)

    @classmethod
    def of(cls, backend: ServingBackend) -> "WorkerStats":
        return cls(backend.n_keys, backend.retrain_count,
                   backend.pending_updates, backend.quarantine_size,
                   backend.error_bound())

    @classmethod
    def unpack(cls, body: bytes) -> "WorkerStats":
        return cls(*_STATS.unpack(body))


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
    if code in _MUTATING:
        threshold, keep = _SETTINGS.unpack_from(body)
        backend.set_rebuild_threshold(threshold)
        backend.set_trim_keep_fraction(None if np.isnan(keep) else keep)
        body, out = body[_SETTINGS.size:], b""
        if code == MSG_REPLAY:
            found, probes = backend.replay_ops(*decode_event_batch(body))
            out = _pack_bool(found) + _pack_i64(probes)
        elif code == MSG_REBUILD:
            backend.rebuild()
        elif code == MSG_INSERT:
            backend.insert_batch(_unpack_i64(body, 0)[0])
        else:
            backend.delete_batch(_unpack_i64(body, 0)[0])
        return out + WorkerStats.of(backend).pack()
    if code == MSG_LOOKUP:
        keys, _ = _unpack_i64(body, 0)
        found, probes = backend.lookup_batch(keys)
        return _pack_bool(found) + _pack_i64(probes)
    if code == MSG_LIVE_KEYS:
        return _pack_i64(backend.live_keys())
    if code == MSG_DIGEST:
        return backend.state_digest().encode()
    raise ProtocolError(f"unknown message code: {code}")


def shard_worker_main(conn, build_blob: bytes) -> None:
    """The per-replica serve loop: build, ack, dispatch until told
    to stop (or until the router hangs up the pipe).  The ack's body
    says whether this module came preloaded from an ancestor, then
    carries the replica's first stats."""
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
    conn.send_bytes(_frame(REPLY_OK, 0,
                           bytes([os.getpid() != _IMPORT_PID])
                           + WorkerStats.of(backend).pack()))
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
    """The start method shard workers use, with its server running.

    ``forkserver`` where available: the sweep engine's thread executor
    builds routers in threads, and forking a threaded process can
    deadlock the child on locks the fork snapshotted mid-acquire — the
    fork server stays single-threaded, so its forks are safe *and*
    cheap (one interpreter boot total, preloaded with the backend
    stack, instead of one per worker under ``spawn``).

    The fork server is a fresh interpreter that imports its preload
    from its own ``sys.path`` and skips a module it cannot import, so
    this starts it with the directory holding ``repro`` on its
    ``PYTHONPATH`` — set under a lock (threads build routers too) and
    restored right after.  A server some other code started earlier,
    without the preload, stays as it is; its workers then fail their
    handshake with a :class:`ShardWorkerError` naming the preload.
    """
    if "forkserver" not in mp.get_all_start_methods():
        return mp.get_context("spawn")
    from multiprocessing import forkserver
    ctx = mp.get_context("forkserver")
    with _PRELOAD_LOCK:
        ctx.set_forkserver_preload([_PRELOAD])
        inherited = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = os.pathsep.join(
            [_PACKAGE_ROOT] + ([inherited] if inherited else []))
        try:
            forkserver.ensure_running()
        finally:
            if inherited is None:
                del os.environ["PYTHONPATH"]
            else:
                os.environ["PYTHONPATH"] = inherited
    return ctx


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
    a genuinely wedged worker process, which is killed and declared
    dead once a reply is that late.  With ``latency_mean_ms == 0``
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
    replays the same degraded-window series on every run.
    """

    def __init__(self, config: TransportConfig):
        self._cfg = config
        self._tick = 0
        #: Optional :class:`repro.observe.MetricsRegistry`; clients
        #: read it for the encode/rpc/decode/retry stage timers.
        #: Counters and timings are commutative, so one registry is
        #: safe across the sweep engine's thread executor.
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
def _timed(metrics, name: str, fn, *args):
    """``fn(*args)``, observed as stage ``name`` when ``metrics`` is
    attached."""
    started = time.perf_counter() if metrics is not None else 0.0
    out = fn(*args)
    if metrics is not None:
        metrics.observe(name, time.perf_counter() - started)
    return out


def replay_request(metrics, kinds: np.ndarray, keys: np.ndarray,
                   aux: np.ndarray) -> bytes:
    """A REPLAY body: the event batch, encoded once however many
    replicas it goes to."""
    return _timed(metrics, "transport.encode", encode_event_batch,
                  kinds, keys, aux)


def keys_request(metrics, keys: np.ndarray) -> bytes:
    """A LOOKUP, INSERT or DELETE body: the keys."""
    return _timed(metrics, "transport.encode", _pack_i64, keys)


def settings_request(threshold: float, keep: "float | None") -> bytes:
    """The settings prefix of a REPLAY, INSERT, DELETE or REBUILD body:
    the rebuild threshold and the TRIM keep fraction, NaN for
    ``None``."""
    return _SETTINGS.pack(threshold, np.nan if keep is None else keep)


class WorkerClient:
    """One replica's pipe endpoint, with the book's retry policy.

    A request runs the attempt loop up to a successful send: consult
    the book (injected timeouts, latency draws), send the frame, back
    off and retry on a send failure.  A replica that exhausts
    ``failover_budget`` attempts is declared dead.  Its reply is read
    under the real wall deadline, and a failure there is final: a
    worker that hangs up or stays silent is declared dead at once,
    with nothing resent, since a worker that resumed would apply the
    request a second time.  A dead replica's process is killed and
    reaped, and :class:`ReplicaDeadError` raised for the group to
    absorb.

    :meth:`call` is :meth:`send` then :meth:`receive`; a caller may
    send to several clients before it receives from any.
    """

    def __init__(self, book: TransportBook, shard: int, replica: int,
                 backend: str, rebuild_threshold: float,
                 build_args: dict, keys: np.ndarray, ctx=None):
        self._book = book
        self._shard = int(shard)
        self._replica = int(replica)
        self._seq = 0
        self._closed = False
        #: The request in flight: (seq, rpc start), set by a send and
        #: cleared by its receive.
        self._inflight = None
        self._stats: "WorkerStats | None" = None
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
            raise ShardWorkerError(self._shard, (
                f"replica {self._replica}: "
                f"{body.decode(errors='replace')}"))
        if ctx.get_start_method() == "forkserver" \
                and body[:1] != b"\x01":
            self.close()
            raise ShardWorkerError(self._shard, (
                f"replica {self._replica}: the fork server did not "
                f"preload {_PRELOAD}, so the worker imported it "
                f"itself; start workers through spawn_context()"))
        try:
            self.stats_reply(None, body[1:])
        except ProtocolError:
            self.close()
            raise

    @property
    def shard(self) -> int:
        return self._shard

    @property
    def replica(self) -> int:
        return self._replica

    @property
    def stats(self) -> WorkerStats:
        """The replica's stats after its handshake or its last answered
        REPLAY, INSERT, DELETE or REBUILD.  From the send of such a
        request until its reply decodes — so after one that failed —
        reading raises :class:`ShardWorkerError` naming the slot."""
        if self._stats is None:
            raise ShardWorkerError(self._shard, (
                f"replica {self._replica}: no stats: its last "
                f"state-changing request has no valid reply"))
        return self._stats

    def _recv(self, timeout: float) -> tuple[int, int, bytes]:
        if not self._conn.poll(timeout):
            raise TimeoutError(
                f"shard {self._shard} replica {self._replica}: no "
                f"reply within {timeout}s")
        raw = self._conn.recv_bytes()
        try:
            return _parse_frame(raw)
        except ProtocolError as exc:
            raise ProtocolError(
                f"shard {self._shard} replica {self._replica}: "
                f"{exc}") from exc

    def _malformed(self, code: "int | None",
                   exc: Exception) -> ProtocolError:
        """A reply body that does not decode (say, one shorter than its
        own length prefix), named by its slot and message; code
        ``None`` is the handshake."""
        what = ("handshake" if code is None
                else f"{_REQUEST_NAMES[code]} reply")
        return ProtocolError(
            f"shard {self._shard} replica {self._replica}: malformed "
            f"{what}: {exc}")

    def _columns(self, code: int, body: bytes, n: int | None = None,
                 trailer: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """The found and probes columns of a REPLAY or LOOKUP reply:
        equally long (``n`` long, when given), followed by exactly
        ``trailer`` bytes."""
        try:
            found, off = _unpack_bool(body, 0)
            probes, end = _unpack_i64(body, off)
            if len(body) - end != trailer:
                raise ValueError(
                    f"{len(body) - end} bytes after the probes column"
                    + (f", not the {trailer}-byte stats trailer"
                       if trailer else ""))
            if found.size != probes.size:
                raise ValueError(f"{found.size} found flags but "
                                 f"{probes.size} probe counts")
            if n is not None and found.size != n:
                raise ValueError(f"{found.size} results for {n} keys")
        except (ValueError, struct.error) as exc:
            raise self._malformed(code, exc) from exc
        return found, probes

    # -- a request, in two halves --------------------------------------
    def send(self, code: int, body: bytes = b"") -> None:
        """Send one request: the attempt loop up to a successful send.

        Injected timeouts and a dead slot are decided here; a replica
        that spends its budget raises :class:`ReplicaDeadError`.  A
        state-changing request clears :attr:`stats` until its reply.
        """
        if self._closed or self._book.is_dead(self._shard,
                                              self._replica):
            raise ReplicaDeadError(self._shard, self._replica)
        if code in _MUTATING:
            self._stats = None
        book = self._book
        metrics = book.metrics
        for attempt in range(book.config.failover_budget):
            if not book.plan_attempt(self._shard, self._replica,
                                     attempt):
                if metrics is not None:
                    metrics.inc("transport.retries")
                continue  # injected timeout consumed this attempt
            seq = self._seq
            self._seq += 1
            rpc_started = (time.perf_counter()
                           if metrics is not None else 0.0)
            self._inflight = (seq, rpc_started)
            try:
                self._conn.send_bytes(_frame(code, seq, body))
            except (EOFError, OSError):
                book.note_trouble(self._shard, self._replica)
                if metrics is not None:
                    metrics.inc("transport.retries")
                    metrics.observe("transport.retry",
                                    time.perf_counter() - rpc_started)
                continue  # real failure: worker gone
            return
        raise self._declare_dead()

    def _declare_dead(self) -> ReplicaDeadError:
        """Mark the replica dead in the book, kill and reap its
        process; the error to raise."""
        self._inflight = None
        self._book.mark_dead(self._shard, self._replica)
        self._closed = True
        self._conn.close()
        self._process.kill()
        self._process.join()
        return ReplicaDeadError(self._shard, self._replica)

    def receive(self) -> bytes:
        """The reply to the request :meth:`send` sent.

        A worker gone or silent for ``wall_timeout_s`` is declared
        dead (see the class docstring).  A reply out of sequence — say,
        one a caller left unread — raises :class:`ProtocolError`,
        before its code is looked at; a worker-side error raises
        :class:`ShardWorkerError`.
        """
        seq, rpc_started = self._inflight
        try:
            rcode, rseq, rbody = self._recv(
                self._book.config.wall_timeout_s)
        except (EOFError, OSError, TimeoutError) as exc:
            raise self._declare_dead() from exc
        self._inflight = None
        metrics = self._book.metrics
        if metrics is not None:
            metrics.observe("transport.rpc",
                            time.perf_counter() - rpc_started)
            metrics.inc("transport.calls")
        if rseq != seq:
            raise ProtocolError(
                f"shard {self._shard} replica {self._replica}: "
                f"reply seq {rseq} != request seq {seq}")
        if rcode == REPLY_ERR:
            raise ShardWorkerError(
                self._shard,
                f"replica {self._replica}: "
                f"{rbody.decode(errors='replace')}")
        return rbody

    def call(self, code: int, body: bytes = b"") -> bytes:
        self.send(code, body)
        return self.receive()

    # -- typed replies -------------------------------------------------
    def replay_reply(self, body: bytes,
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Found and probes of a REPLAY reply; its stats trailer
        becomes :attr:`stats`."""
        found, probes = _timed(self._book.metrics, "transport.decode",
                               self._columns, MSG_REPLAY, body, None,
                               _STATS.size)
        self._stats = WorkerStats.unpack(body[-_STATS.size:])
        return found, probes

    def stats_reply(self, code: "int | None", body: bytes) -> None:
        """Take the stats that are the whole of an INSERT, DELETE or
        REBUILD reply (or, for code ``None``, the rest of the
        handshake) as :attr:`stats`."""
        try:
            self._stats = WorkerStats.unpack(body)
        except struct.error as exc:
            raise self._malformed(code, exc) from exc

    def lookup_reply(self, body: bytes, n: int,
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Found and probes of a LOOKUP reply for ``n`` keys."""
        return _timed(self._book.metrics, "transport.decode",
                      self._columns, MSG_LOOKUP, body, n)

    def digest_reply(self, body: bytes) -> str:
        """The state digest of a DIGEST reply."""
        try:
            return body.decode()
        except UnicodeDecodeError as exc:
            raise self._malformed(MSG_DIGEST, exc) from exc

    def lookup(self, keys: np.ndarray,
               ) -> tuple[np.ndarray, np.ndarray]:
        body = self.call(MSG_LOOKUP, keys_request(
            self._book.metrics, keys))
        return self.lookup_reply(body, len(keys))

    def live_keys(self) -> np.ndarray:
        body = self.call(MSG_LIVE_KEYS)
        try:
            keys, end = _unpack_i64(body, 0)
            if end != len(body):
                raise ValueError(f"{len(body) - end} bytes after the keys")
        except (ValueError, struct.error) as exc:
            raise self._malformed(MSG_LIVE_KEYS, exc) from exc
        return keys

    def digest(self) -> str:
        return self.digest_reply(self.call(MSG_DIGEST))

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
        if self._process.is_alive():  # stopped: SIGTERM waits for it
            self._process.kill()
            self._process.join()
