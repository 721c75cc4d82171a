"""Replica groups send to every replica before reading any reply.

A tick costs one REPLAY and at most one LOOKUP per live replica, and
a defended one adds only the settings that changed; a worker error
leaves no reply unread and a failing mutation reaches every replica;
a range scan is a lookup of its ``lo``; and a replica killed between
ticks is declared dead without stalling the run.
"""

import os
import signal
import struct
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
    MSG_LOOKUP,
    MSG_REPLAY,
    MSG_SET_KEEP,
    MSG_SET_THRESHOLD,
    _parse_frame,
)
from repro.workload import TraceSpec, generate_trace, make_backend
from repro.workload.trace import OP_INSERT, OP_QUERY

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


class BodyLog(FrameLog):
    """A :class:`FrameLog` that files each frame's body as well, as
    ``(shard, replica, code, body)``."""

    def send_bytes(self, raw: bytes) -> None:
        code, _, body = _parse_frame(raw)
        self._ticks[-1].append((*self._slot, code, body))
        self._conn.send_bytes(raw)


def test_defended_ticks_send_no_repeated_setting_and_no_stats():
    """Under the SLO defense a setter reaches the replicas only with a
    changed value, and the stats the replay carried stay cached."""
    trace = generate_trace(SPEC)
    shard_map = ShardMap.balanced(trace.base_keys, 3, SPEC.domain())
    router = TransportClusterRouter(shard_map, trace.base_keys, "rmi",
                                    replicas=3, **BUILD)
    ticks = [[]]
    for group in router._spawned:
        for client in group._replicas:
            client._conn = BodyLog(client._conn,
                                   (client.shard, client.replica), ticks)
    opened = router.start_tick

    def start_tick(tick):
        ticks.append([])
        opened(tick)

    router.start_tick = start_tick
    try:
        report = ClusterSimulator(
            router, trace, tick_ops=200,
            defense=SloWeightedDefense(SPEC.tenant_slos())).run()
        ticks.append([])  # the polls below are not the run's
        for group in router._spawned:
            assert group._stats == {i: client.stats() for i, client
                                    in enumerate(group._replicas)}
    finally:
        router.close()
    baseline, *per_tick, _ = ticks
    slots = [(s, r) for s in range(3) for r in range(3)]
    assert len(per_tick) == report.n_ticks == 5
    assert {code for *_, code, _ in baseline} == {MSG_LOOKUP}
    held = {slot: {MSG_SET_THRESHOLD: BUILD["rebuild_threshold"],
                   MSG_SET_KEEP: None} for slot in slots}
    settings = 0
    for frames in per_tick:
        sent = Counter((shard, replica, code)
                       for shard, replica, code, _ in frames)
        assert all(sent[(*slot, MSG_REPLAY)] == 1 for slot in slots)
        assert sent.keys() <= {(*slot, code) for slot in slots
                               for code in (MSG_REPLAY, MSG_LOOKUP,
                                            MSG_SET_THRESHOLD,
                                            MSG_SET_KEEP)}
        for shard, replica, code, body in frames:
            if code in (MSG_SET_THRESHOLD, MSG_SET_KEEP):
                (value,) = struct.unpack("<d", body)
                value = None if np.isnan(value) else value
                assert value != held[(shard, replica)][code]
                held[(shard, replica)][code] = value
                settings += 1
    assert settings > 0  # the defense did retune the shards


def test_setter_updates_the_cached_stats():
    """The group's copy of each setting starts at what its replicas
    were built with, so disarming a build-time TRIM screen is sent."""
    group = ReplicaGroup(TransportBook(TransportConfig()), 0, "rmi",
                         KEYS, 0.1,
                         {"model_size": 40, "trim_keep_fraction": 0.9},
                         n_replicas=3)
    try:
        kinds = np.asarray([OP_QUERY, OP_INSERT], dtype=np.int8)
        group.replay_ops(kinds, np.asarray([100, 101]),
                         np.zeros(2, dtype=np.int64))
        group.set_rebuild_threshold(0.25)
        group.set_trim_keep_fraction(None)
        cached = dict(group._stats)
        assert cached == {i: client.stats()
                          for i, client in enumerate(group._replicas)}
        assert group.rebuild_threshold == cached[0].rebuild_threshold
        assert cached[0].trim_keep_fraction is None
    finally:
        group.close()


def test_failing_broadcast_mutation_reaches_every_replica():
    """A retrain that keeps too few keys raises on every replica; the
    group reads every reply before raising replica 0's error, so all
    three replicas stay on the in-process backend's state."""
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
