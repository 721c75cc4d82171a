"""Replica groups send to every replica before reading any reply.

A tick costs one REPLAY and at most one LOOKUP per live replica, even
a defended one: the settings ride the state-changing requests, and
their replies carry the stats the group answers from.  A worker error
leaves no reply unread and a failing mutation reaches every replica;
a range scan is a lookup of its ``lo``; and a replica killed between
ticks or mid-tick, or wedged mid-tick, is declared dead without
stalling the run.
"""

import os
import signal
import time
from collections import Counter

import numpy as np
import pytest

from repro.cluster import (
    ClusterRouter,
    ClusterSimulator,
    FaultSpec,
    ReplicaGroup,
    ShardMap,
    ShardWorkerError,
    SloWeightedDefense,
    TransportBook,
    TransportClusterRouter,
    TransportConfig,
)
from repro.cluster.transport import (
    MSG_DELETE,
    MSG_INSERT,
    MSG_LOOKUP,
    MSG_REBUILD,
    MSG_REPLAY,
    WorkerStats,
    _parse_frame,
    settings_request,
)
from repro.workload import TraceSpec, generate_trace, make_backend
from repro.workload.trace import OP_DELETE, OP_INSERT, OP_QUERY

KEYS = np.arange(100, 900, 2, dtype=np.int64)
SPEC = TraceSpec(n_base_keys=300, n_ops=1_000, insert_fraction=0.05,
                 delete_fraction=0.02, range_fraction=0.05, n_tenants=3,
                 tenant_layout="ranges", seed=23)
BUILD = dict(rebuild_threshold=0.1, model_size=40)


def test_worker_error_is_raised_after_every_reply_is_read():
    group = ReplicaGroup(TransportBook(TransportConfig()), 0, "binary",
                         KEYS, 0.1, {}, n_replicas=3, divergence=None)
    local = make_backend("binary", KEYS, rebuild_threshold=0.1)
    try:
        with pytest.raises(ShardWorkerError,
                           match=r"^shard 0 worker: replica 0: "
                                 r"ValueError"):
            group.replay_ops(np.asarray([99], dtype=np.int8),
                             np.asarray([1]), np.asarray([0]))
        kinds = np.asarray([OP_QUERY, OP_INSERT, OP_QUERY, OP_QUERY],
                           dtype=np.int8)
        keys = np.asarray([100, 101, 101, 103], dtype=np.int64)
        aux = np.zeros(4, dtype=np.int64)
        found, probes = group.replay_ops(kinds, keys, aux)
        lfound, lprobes = local.replay_ops(kinds, keys, aux)
        assert np.array_equal(found, lfound)
        assert np.array_equal(probes, lprobes)
        assert group.replica_digests() == [local.state_digest()] * 3
    finally:
        group.close()


class FrameLog:
    """A client's pipe end that files the code of every frame it
    sends under the open tick, as ``(shard, replica, code)``."""

    def __init__(self, conn, slot, ticks):
        self._conn = conn
        self._slot = slot
        self._ticks = ticks

    def send_bytes(self, raw: bytes) -> None:
        code, _, _ = _parse_frame(raw)
        self._ticks[-1].append((*self._slot, code))
        self._conn.send_bytes(raw)

    def __getattr__(self, name):
        return getattr(self._conn, name)


def test_each_tick_sends_one_replay_per_replica_and_no_stats():
    trace = generate_trace(SPEC)
    shard_map = ShardMap.balanced(trace.base_keys, 2, SPEC.domain())
    router = TransportClusterRouter(shard_map, trace.base_keys,
                                    "dynamic", replicas=3, **BUILD)
    ticks = [[]]  # frames before tick 0 (the probe-sample baseline)
    slots = []
    for group in router._spawned:
        for client in group._replicas:
            slot = (client.shard, client.replica)
            slots.append(slot)
            client._conn = FrameLog(client._conn, slot, ticks)
    opened = router.start_tick

    def start_tick(tick):
        ticks.append([])
        opened(tick)

    router.start_tick = start_tick
    try:
        report = ClusterSimulator(router, trace, tick_ops=200).run()
        baseline, *per_tick = [Counter(frames) for frames in ticks]
    finally:
        router.close()
    assert len(slots) == 6
    assert len(per_tick) == report.n_ticks == 5
    assert {code for _, _, code in baseline} == {MSG_LOOKUP}
    for sent in per_tick:
        assert all(sent[(*slot, MSG_REPLAY)] == 1 for slot in slots)
        assert all(sent[(*slot, MSG_LOOKUP)] <= 1 for slot in slots)
        assert {code for _, _, code in sent} <= {MSG_REPLAY, MSG_LOOKUP}


def test_replica_killed_between_ticks_is_declared_dead():
    trace = generate_trace(SPEC)
    shard_map = ShardMap.balanced(trace.base_keys, 2, SPEC.domain())
    config = TransportConfig()
    router = TransportClusterRouter(shard_map, trace.base_keys,
                                    "dynamic", transport=config,
                                    replicas=3, **BUILD)
    victim = router.shard(0)._replicas[1]
    opened = router.start_tick

    def start_tick(tick):
        if tick == 2:  # after tick 1 closed, before tick 2 replays
            os.kill(victim._process.pid, signal.SIGKILL)
            victim._process.join(timeout=30)
            assert victim._process.exitcode == -signal.SIGKILL
        opened(tick)

    router.start_tick = start_tick
    started = time.monotonic()
    try:
        report = ClusterSimulator(router, trace, tick_ops=200).run()
        assert router.book.is_dead(0, 1)
    finally:
        router.close()
    assert time.monotonic() - started < config.wall_timeout_s / 4
    assert report.series["degraded"].tolist() == [0, 0, 1, 1, 1]
    assert report.degraded_ticks == 3
    inproc = ClusterSimulator(
        ClusterRouter(shard_map, trace.base_keys, "dynamic", **BUILD),
        trace, tick_ops=200).run()
    for name in ("p50", "p95", "p99", "mean_probes"):
        assert getattr(report, name) == getattr(inproc, name), name
        assert np.array_equal(report.series[name], inproc.series[name],
                              equal_nan=True), name


class Halt:
    """A victim's pipe end that, once :attr:`armed`, stops the worker
    just before its next REPLAY goes out and then sends it ``after``
    (say, SIGKILL): the request is sent and never answered."""

    def __init__(self, client, after=(), armed=False):
        self._conn = client._conn
        self._pid = client._process.pid
        self._after = after
        self.armed = armed
        client._conn = self

    def send_bytes(self, raw: bytes) -> None:
        halt = self.armed and _parse_frame(raw)[0] == MSG_REPLAY
        if halt:
            self.armed = False
            os.kill(self._pid, signal.SIGSTOP)
        self._conn.send_bytes(raw)
        if halt:
            for signum in self._after:
                os.kill(self._pid, signum)

    def __getattr__(self, name):
        return getattr(self._conn, name)


def test_replica_killed_mid_tick_is_declared_dead():
    """A replica SIGKILLed after its REPLAY was sent, before the group
    read the reply, is declared dead inside that same replay; the
    run's answers are the in-process router's."""
    trace = generate_trace(SPEC)
    shard_map = ShardMap.balanced(trace.base_keys, 2, SPEC.domain())
    config = TransportConfig()
    router = TransportClusterRouter(shard_map, trace.base_keys,
                                    "dynamic", transport=config,
                                    replicas=3, **BUILD)
    group = router.shard(0)
    victim = group._replicas[1]
    halt = Halt(victim, after=(signal.SIGKILL,))
    opened, served = router.start_tick, group.replay_ops
    dead_after_replay = []

    def start_tick(tick):
        opened(tick)
        halt.armed = tick == 2

    def replay_ops(*batch):
        out = served(*batch)
        dead_after_replay.append(router.book.is_dead(0, 1))
        return out

    router.start_tick = start_tick
    group.replay_ops = replay_ops
    started = time.monotonic()
    try:
        report = ClusterSimulator(router, trace, tick_ops=200).run()
    finally:
        router.close()
    assert time.monotonic() - started < config.wall_timeout_s / 4
    assert dead_after_replay == [False, False, True, True, True]
    assert victim._process.exitcode == -signal.SIGKILL
    assert report.series["degraded"].tolist() == [0, 0, 1, 1, 1]
    inproc = ClusterSimulator(
        ClusterRouter(shard_map, trace.base_keys, "dynamic", **BUILD),
        trace, tick_ops=200).run()
    for name in ("p50", "p95", "p99", "mean_probes"):
        assert getattr(report, name) == getattr(inproc, name), name
        assert np.array_equal(report.series[name], inproc.series[name],
                              equal_nan=True), name


def test_wedged_replica_costs_one_wall_timeout():
    """A replica stopped with its REPLAY unanswered costs one
    ``wall_timeout_s``: it is killed, reaped and declared dead, with
    nothing resent, and the live replicas serve the batch."""
    config = TransportConfig(wall_timeout_s=1.0)
    book = TransportBook(config)
    build = dict(model_size=40)
    group = ReplicaGroup(book, 0, "dynamic", KEYS, 0.1, build,
                         n_replicas=3)
    local = make_backend("dynamic", KEYS, rebuild_threshold=0.1, **build)
    victim = group._replicas[1]
    pid = victim._process.pid
    Halt(victim, armed=True)
    kinds = np.asarray([OP_QUERY, OP_INSERT, OP_QUERY, OP_DELETE,
                        OP_QUERY], dtype=np.int8)
    keys = np.asarray([100, 101, 101, 102, 102], dtype=np.int64)
    aux = np.zeros(5, dtype=np.int64)
    try:
        started = time.monotonic()
        found, probes = group.replay_ops(kinds, keys, aux)
        elapsed = time.monotonic() - started
        assert elapsed < 2 * config.wall_timeout_s
        assert book.is_dead(0, 1)
        assert group.live_replicas() == [0, 2]
        assert victim._process.exitcode == -signal.SIGKILL
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
        lfound, lprobes = local.replay_ops(kinds, keys, aux)
        assert np.array_equal(found, lfound)
        assert np.array_equal(probes, lprobes)
        assert group.replica_digests() == [local.state_digest()] * 2
    finally:
        group.close()
    assert not any(c._process.is_alive() for c in group._replicas)


class BodyLog(FrameLog):
    """A :class:`FrameLog` that files each frame's body as well, and
    the settings its ``group`` held when it went out, as ``(shard,
    replica, code, body, settings)``."""

    def __init__(self, conn, slot, ticks, group):
        super().__init__(conn, slot, ticks)
        self._group = group

    def send_bytes(self, raw: bytes) -> None:
        code, _, body = _parse_frame(raw)
        held = settings_request(self._group.rebuild_threshold,
                                self._group.trim_keep_fraction)
        self._ticks[-1].append((*self._slot, code, body, held))
        self._conn.send_bytes(raw)


def test_defended_ticks_send_no_repeated_setting_and_no_stats():
    """Under the SLO defense a tick still sends only REPLAY and LOOKUP
    frames: each REPLAY starts with the settings its group held, and
    the stats the replies left equal an in-process run's."""
    trace = generate_trace(SPEC)
    shard_map = ShardMap.balanced(trace.base_keys, 3, SPEC.domain())
    router = TransportClusterRouter(shard_map, trace.base_keys, "rmi",
                                    replicas=3, **BUILD)
    ticks = [[]]
    for group in router._spawned:
        for client in group._replicas:
            client._conn = BodyLog(client._conn,
                                   (client.shard, client.replica), ticks,
                                   group)
    opened = router.start_tick

    def start_tick(tick):
        ticks.append([])
        opened(tick)

    router.start_tick = start_tick
    try:
        report = ClusterSimulator(
            router, trace, tick_ops=200,
            defense=SloWeightedDefense(SPEC.tenant_slos())).run()
        stats = [[client.stats for client in router.shard(s)._replicas]
                 for s in range(3)]
        ticks.append([])  # the shutdowns are not the run's
    finally:
        router.close()
    baseline, *per_tick, _ = ticks
    slots = [(s, r) for s in range(3) for r in range(3)]
    assert len(per_tick) == report.n_ticks == 5
    assert {code for _, _, code, _, _ in baseline} == {MSG_LOOKUP}
    prefixes = set()
    for frames in per_tick:
        sent = Counter((shard, replica, code)
                       for shard, replica, code, _, _ in frames)
        assert all(sent[(*slot, MSG_REPLAY)] == 1 for slot in slots)
        assert {code for _, _, code in sent} <= {MSG_REPLAY, MSG_LOOKUP}
        for *_, code, body, held in frames:
            if code == MSG_REPLAY:
                assert body[:len(held)] == held
                prefixes.add(held)
    assert len(prefixes) > 1  # the defense did retune the shards
    inproc = ClusterRouter(shard_map, trace.base_keys, "rmi", **BUILD)
    ClusterSimulator(inproc, trace, tick_ops=200,
                     defense=SloWeightedDefense(SPEC.tenant_slos())).run()
    assert stats == [[WorkerStats.of(inproc.shard(s))] * 3
                     for s in range(3)]


def scalars(backend) -> list:
    """The scalar serving surface a group answers from its stats."""
    return [backend.n_keys, backend.retrain_count,
            backend.pending_updates, backend.quarantine_size,
            backend.error_bound()]


def test_scalar_surface_is_read_from_the_replies():
    """A fresh group answers from its handshakes, and after each
    INSERT, DELETE or REBUILD — one frame per replica — from that
    request's replies, without a frame of its own."""
    build = dict(model_size=40)
    group = ReplicaGroup(TransportBook(TransportConfig()), 0, "dynamic",
                         KEYS, 0.1, build, n_replicas=3)
    local = make_backend("dynamic", KEYS, rebuild_threshold=0.1, **build)
    sent = [[]]
    for client in group._replicas:
        client._conn = FrameLog(client._conn, (0, client.replica), sent)
    try:
        assert scalars(group) == scalars(local)
        assert sent == [[]]
        for name, code, args in (
                ("insert_batch", MSG_INSERT, (np.arange(101, 161, 2),)),
                ("delete_batch", MSG_DELETE, (KEYS[:30],)),
                ("rebuild", MSG_REBUILD, ())):
            sent.append([])
            getattr(group, name)(*args)
            getattr(local, name)(*args)
            assert scalars(group) == scalars(local), name
            assert sorted(sent[-1]) == [(0, r, code) for r in range(3)]
        assert local.retrain_count > 0
    finally:
        group.close()


def test_setters_validate_and_ride_the_next_request():
    """A setter checks its value as the backend would and sends
    nothing; disarming a build-time TRIM screen reaches every replica
    with the next REBUILD, which then trains unscreened."""
    build = {"model_size": 40, "trim_keep_fraction": 0.9}
    group = ReplicaGroup(TransportBook(TransportConfig()), 0, "rmi",
                         KEYS, 0.1, build, n_replicas=3)
    model_free = ReplicaGroup(TransportBook(TransportConfig()), 1,
                              "binary", KEYS, 0.1, {}, n_replicas=1)
    local, screened = (make_backend("rmi", KEYS, rebuild_threshold=0.1,
                                    **build) for _ in range(2))
    sent = [[]]
    for client in group._replicas + model_free._replicas:
        client._conn = FrameLog(client._conn,
                                (client.shard, client.replica), sent)
    try:
        for setter, value, match in (
                (group.set_rebuild_threshold, 0.0, "rebuild threshold"),
                (group.set_rebuild_threshold, 1.5, "rebuild threshold"),
                (group.set_trim_keep_fraction, 0.0, "keep fraction"),
                (group.set_trim_keep_fraction, 1.1, "keep fraction"),
                (model_free.set_trim_keep_fraction, 0.5,
                 "TRIM does not apply")):
            with pytest.raises(ValueError, match=match):
                setter(value)
        assert (group.rebuild_threshold, group.trim_keep_fraction) \
            == (0.1, 0.9)
        group.set_rebuild_threshold(0.25)
        group.set_trim_keep_fraction(None)
        assert sent == [[]]
        group.rebuild()
        assert sorted(sent[0]) == [(0, r, MSG_REBUILD) for r in range(3)]
        local.set_rebuild_threshold(0.25)
        local.set_trim_keep_fraction(None)
        local.rebuild()
        screened.rebuild()
        assert group.replica_digests() == [local.state_digest()] * 3
        assert group.quarantine_size == local.quarantine_size == 0
        assert screened.quarantine_size > 0
    finally:
        group.close()
        model_free.close()


def test_failing_broadcast_mutation_reaches_every_replica():
    """A retrain that keeps too few keys raises on every replica; the
    group reads every reply before raising replica 0's error, so all
    three replicas stay on the in-process backend's state.  Until a
    later request succeeds the group has no stats to answer from."""
    keys = np.arange(0, 1000, 10)
    build = dict(model_size=7, quarantine_rejects=False)
    group = ReplicaGroup(TransportBook(TransportConfig()), 0, "dynamic",
                         keys, 0.05, build, n_replicas=3)
    local = make_backend("dynamic", keys, rebuild_threshold=0.05,
                         trim_keep_fraction=0.6, **build)
    try:
        group.set_trim_keep_fraction(0.6)
        with pytest.raises(ShardWorkerError,
                           match=r"^shard 0 worker: replica 0: "
                                 r"ValueError: retrain kept 10 of 17"):
            for inserts, key in enumerate(range(5, 1000, 10), start=1):
                group.insert_batch(np.asarray([key]))
        assert inserts == 14
        with pytest.raises(ValueError, match="retrain kept 10 of 17"):
            for key in range(5, 5 + 10 * inserts, 10):
                local.insert_batch(np.asarray([key]))
        assert group.replica_digests() == [local.state_digest()] * 3
        with pytest.raises(ShardWorkerError,
                           match=r"^shard 0 worker: replica 0: no stats"):
            group.n_keys
        kinds = np.full(3, OP_QUERY, dtype=np.int8)
        reads = (np.asarray([0, 5, 10]), np.zeros(3, dtype=np.int64))
        found, probes = group.replay_ops(kinds, *reads)
        lfound, lprobes = local.replay_ops(kinds, *reads)
        assert np.array_equal(found, lfound)
        assert np.array_equal(probes, lprobes)
        assert scalars(group) == scalars(local)
    finally:
        group.close()


POISON = np.asarray([111, 113, 115], dtype=np.int64)


@pytest.mark.parametrize("read_mode, quarantined, reference", (
    ("quorum", None, "healthy"),   # the poisoned replica is outvoted
    ("primary", None, "poisoned"),  # replica 0 answers alone
    ("primary", 0, "healthy"),     # replica 1 takes over
), ids=("quorum", "primary", "primary-quarantined"))
def test_range_scan_prices_the_lo_lookup(read_mode, quarantined,
                                         reference):
    """Replica 0 holds three extra keys; a range scan costs what the
    backend its read mode trusts charges."""
    book = TransportBook(TransportConfig(faults=(FaultSpec(
        kind="poison", shard=0, replica=0, keys=tuple(POISON)),)))
    group = ReplicaGroup(book, 0, "rmi", KEYS, 0.1, {"model_size": 40},
                         n_replicas=3, read_mode=read_mode)
    backends = {name: make_backend("rmi", KEYS, rebuild_threshold=0.1,
                                   model_size=40)
                for name in ("healthy", "poisoned")}
    backends["poisoned"].insert_batch(POISON)
    kinds = np.asarray([OP_QUERY], dtype=np.int8)
    try:
        group.replay_ops(kinds, KEYS[:1], np.zeros(1, dtype=np.int64))
        assert group.replica_digests() == [
            backends[name].state_digest()
            for name in ("poisoned", "healthy", "healthy")]
        if quarantined is not None:
            book.quarantine_replica(0, quarantined)
        local = backends[reference]
        for lo, hi in ((101, 300), (110, 899), (99, 120), (117, 5_000)):
            assert group.range_scan(lo, hi) == local.range_scan(lo, hi)
    finally:
        group.close()
