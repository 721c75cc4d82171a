"""Replica groups send to every replica before reading any reply.

A tick costs one REPLAY and at most one LOOKUP per live replica, a
worker error leaves no reply unread, and a replica killed between
ticks is declared dead without stalling the run.
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
    ReplicaGroup,
    ShardMap,
    ShardWorkerError,
    TransportBook,
    TransportClusterRouter,
    TransportConfig,
)
from repro.cluster.transport import MSG_LOOKUP, MSG_REPLAY, _parse_frame
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
