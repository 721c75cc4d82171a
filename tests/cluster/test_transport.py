"""The cross-process shard transport: wire format, worker RPC, and
the injected fault grid (ISSUE 7 tentpole)."""

import numpy as np
import pytest

from repro.cluster import (
    ClusterSimulator,
    FaultSpec,
    ReplicaDeadError,
    ShardMap,
    ShardWorkerError,
    TransportBook,
    TransportClusterRouter,
    TransportConfig,
    WorkerClient,
)
from repro.cluster.transport import (
    MSG_REPLAY,
    PROTOCOL_VERSION,
    ProtocolError,
    WorkerStats,
    _frame,
    _parse_frame,
    decode_build_spec,
    encode_build_spec,
    replay_request,
    settings_request,
    spawn_context,
)
from repro.workload import TraceSpec, generate_trace, make_backend
from repro.workload.columnar import (
    WIRE_VERSION,
    decode_event_batch,
    encode_event_batch,
)
from repro.workload.trace import OP_QUERY

KEYS = np.arange(10, 810, 2, dtype=np.int64)


def inert_book(**overrides) -> TransportBook:
    return TransportBook(TransportConfig(**overrides))


def make_client(book, shard=0, backend="rmi", **build_args):
    build_args.setdefault("model_size", 50)
    if backend == "binary":
        build_args = {}
    return WorkerClient(book, shard, 0, backend, 0.12, build_args,
                        KEYS, ctx=spawn_context())


def replay(client, kinds, keys, aux):
    """Found and probes of one REPLAY under the build's settings."""
    return client.replay_reply(client.call(
        MSG_REPLAY, settings_request(0.12, None)
        + replay_request(None, kinds, keys, aux)))


# ---------------------------------------------------------------------
# Wire format (the columnar event batch as the wire unit)
# ---------------------------------------------------------------------
class TestWireFormat:
    def test_round_trip(self, rng):
        kinds = rng.integers(0, 6, size=257).astype(np.int8)
        keys = rng.integers(-2**40, 2**40, size=257, dtype=np.int64)
        aux = rng.integers(0, 2**20, size=257, dtype=np.int64)
        out = decode_event_batch(encode_event_batch(kinds, keys, aux))
        for sent, got in zip((kinds, keys, aux), out):
            assert got.dtype == sent.dtype
            assert np.array_equal(sent, got)

    def test_empty_batch_round_trips(self):
        empty = np.empty(0, dtype=np.int64)
        out = decode_event_batch(encode_event_batch(
            empty.astype(np.int8), empty, empty))
        assert all(a.size == 0 for a in out)

    def test_rejects_bad_magic(self):
        payload = bytearray(encode_event_batch(
            np.zeros(3, dtype=np.int8), np.arange(3), np.arange(3)))
        payload[:4] = b"NOPE"
        with pytest.raises(ValueError, match="magic"):
            decode_event_batch(bytes(payload))

    def test_rejects_version_mismatch(self):
        payload = bytearray(encode_event_batch(
            np.zeros(3, dtype=np.int8), np.arange(3), np.arange(3)))
        payload[4] = WIRE_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            decode_event_batch(bytes(payload))

    def test_rejects_truncation(self):
        payload = encode_event_batch(
            np.zeros(3, dtype=np.int8), np.arange(3), np.arange(3))
        with pytest.raises(ValueError):
            decode_event_batch(payload[:-1])


class TestFrames:
    def test_round_trip(self):
        code, seq, body = _parse_frame(_frame(MSG_REPLAY, 42, b"xy"))
        assert (code, seq, body) == (MSG_REPLAY, 42, b"xy")

    def test_rejects_foreign_version(self):
        raw = bytearray(_frame(MSG_REPLAY, 0))
        raw[0] = PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError, match="version"):
            _parse_frame(bytes(raw))

    def test_build_spec_round_trip(self):
        blob = encode_build_spec("rmi", 0.12, {"model_size": 50}, KEYS)
        backend = decode_build_spec(blob)
        assert backend.n_keys == KEYS.size
        found, _ = backend.lookup_batch(KEYS[:5])
        assert found.all()


# ---------------------------------------------------------------------
# Worker RPC
# ---------------------------------------------------------------------
class TestWorkerClient:
    @pytest.fixture(scope="class")
    def client(self):
        client = make_client(inert_book())
        yield client
        client.close()

    def test_replay_matches_local_backend(self, client, rng):
        local = make_backend("rmi", KEYS, rebuild_threshold=0.12,
                             model_size=50)
        queries = rng.choice(KEYS, size=64)
        misses = queries + 1
        kinds = np.full(128, OP_QUERY, dtype=np.int8)
        keys = np.concatenate([queries, misses])
        aux = np.zeros(128, dtype=np.int64)
        found, probes = replay(client, kinds, keys, aux)
        lfound, lprobes = local.replay_ops(kinds, keys, aux)
        assert np.array_equal(found, lfound)
        assert np.array_equal(probes, lprobes)
        assert client.stats == WorkerStats.of(local)
        assert client.digest() == local.state_digest()

    def test_stats_mirror_the_backend_surface(self, client):
        local = make_backend("rmi", KEYS, rebuild_threshold=0.12,
                             model_size=50)
        assert client.stats == WorkerStats.of(local)
        assert client.stats.n_keys == KEYS.size
        assert client.stats.error_bound >= 0.0

    def test_worker_error_carries_the_shard_id(self):
        client = make_client(inert_book(), shard=3)
        try:
            kinds = np.asarray([99], dtype=np.int8)  # unknown op
            with pytest.raises(ShardWorkerError,
                               match="shard 3") as err:
                replay(client, kinds, np.asarray([1]), np.asarray([0]))
            assert err.value.shard == 3
            # The worker survives a dispatch error: next call serves.
            assert client.live_keys().size == KEYS.size
        finally:
            client.close()

    def test_build_failure_surfaces_at_spawn(self):
        with pytest.raises(ShardWorkerError, match="shard 0"):
            WorkerClient(inert_book(), 0, 0, "no-such-backend", 0.1,
                         {}, KEYS, ctx=spawn_context())

    def test_close_is_idempotent_and_calls_after_close_fail(self):
        client = make_client(inert_book(), backend="binary")
        client.close()
        client.close()
        with pytest.raises(ReplicaDeadError):
            client.digest()


# ---------------------------------------------------------------------
# The injected fault grid
# ---------------------------------------------------------------------
SPEC = TraceSpec(n_base_keys=300, n_ops=800, insert_fraction=0.05,
                 n_tenants=2, tenant_layout="ranges", seed=11)


def run_sim(faults=(), latency=0.0, seed=0, replicas=1,
            backend="binary"):
    trace = generate_trace(SPEC)
    shard_map = ShardMap.balanced(trace.base_keys, 2, SPEC.domain())
    router = TransportClusterRouter(
        shard_map, trace.base_keys, backend,
        transport=TransportConfig(faults=tuple(faults),
                                  latency_mean_ms=latency, seed=seed,
                                  timeout_ms=8.0),
        replicas=replicas)
    try:
        return ClusterSimulator(router, trace, tick_ops=200).run()
    finally:
        router.close()


class TestFaultGrid:
    def test_dead_worker_fails_over_to_the_peer_replica(self):
        """Replica 0 of shard 0 dies at tick 1; after the failover
        budget burns, its twin keeps the shard serving every key."""
        report = run_sim(
            faults=[FaultSpec(kind="dead", shard=0, replica=0,
                              tick=1)],
            replicas=2)
        assert report.found_fraction == 1.0
        degraded = report.series["degraded"]
        assert degraded[0] == 0  # fault not active yet
        assert (degraded[1:] > 0).all()  # dead slot stays on record
        assert report.degraded_ticks == report.n_ticks - 1

    def test_dead_sole_replica_degrades_to_misses(self):
        """With no peer to fail over to, the shard's reads miss at
        zero cost instead of wedging the cluster."""
        report = run_sim(
            faults=[FaultSpec(kind="dead", shard=0, replica=0,
                              tick=1)],
            replicas=1)
        assert 0.0 < report.found_fraction < 1.0
        assert report.degraded_ticks == report.n_ticks - 1

    def test_timeout_then_retry_succeeds_within_the_tick(self):
        """One injected timeout per request for one tick: every call
        retries into success, so results are unharmed — but the tick
        is degraded and charged timeout + backoff latency."""
        fault = FaultSpec(kind="timeout", shard=0, replica=0, tick=2,
                          until=2, attempts=1)
        report = run_sim(faults=[fault])
        clean = run_sim()
        assert report.found_fraction == 1.0
        assert np.array_equal(report.series["p95"],
                              clean.series["p95"])
        degraded = report.series["degraded"]
        assert degraded[2] > 0
        assert degraded[[0, 1, 3]].sum() == 0
        latency = report.series["latency_ms"]
        assert latency[2] > 0.0
        assert latency[[0, 1, 3]].sum() == 0.0

    def test_injected_latency_is_deterministic_in_the_seed(self):
        """Same seed => bit-identical degraded/latency series; a
        different seed draws a different world."""
        a = run_sim(latency=3.0, seed=7)
        b = run_sim(latency=3.0, seed=7)
        other = run_sim(latency=3.0, seed=8)
        for name in ("latency_ms", "degraded", "p95"):
            assert np.array_equal(a.series[name], b.series[name]), name
        assert not np.array_equal(a.series["latency_ms"],
                                  other.series["latency_ms"])


class TestFaultSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="flaky", shard=0)

    def test_window(self):
        spec = FaultSpec(kind="dead", shard=0, tick=2, until=4)
        assert [spec.active(t) for t in range(6)] == [
            False, False, True, True, True, False]
        forever = FaultSpec(kind="dead", shard=0, tick=3)
        assert forever.active(10**6)


class TestBookAccounting:
    def test_inert_book_charges_nothing(self):
        book = inert_book()
        assert not book.config.injection_enabled
        book.start_tick(0)
        assert book.plan_attempt(0, 0, 0)
        assert book.drain_tick_stats() == (0, 0, 0.0)

    def test_dead_fault_is_declared_only_after_the_budget(self):
        """The graceful-degradation contract: a dead machine looks
        like timeouts until the failover budget says otherwise."""
        cfg = TransportConfig(
            faults=(FaultSpec(kind="dead", shard=0, replica=0),))
        book = TransportBook(cfg)
        book.start_tick(0)
        for attempt in range(cfg.failover_budget):
            assert not book.is_dead(0, 0)
            assert not book.plan_attempt(0, 0, attempt)
        book.mark_dead(0, 0)  # what the client does after the loop
        assert book.is_dead(0, 0)
        degraded, flagged, latency = book.drain_tick_stats()
        assert degraded == 1
        assert flagged == 0
        assert latency > 0.0  # timeout + backoff charged per attempt

    def test_quarantine_flags_once(self):
        book = inert_book()
        book.quarantine_replica(2, 1)
        book.quarantine_replica(2, 1)
        assert book.flagged() == [(2, 1)]
        assert not book.healthy(2, 1)
        assert book.drain_tick_stats()[0] == 1
