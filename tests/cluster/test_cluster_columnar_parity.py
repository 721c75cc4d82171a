"""Router ``replay_ops`` vs the op-by-op oracle: the parity contract.

:meth:`ClusterRouter.replay_ops` (one call per tick, optionally
fanning shards out across a thread pool) must be **bit-identical** to
the op-by-op walk of :mod:`replay_oracle` over the router's single-op
surface: same 1D/tenant/shard series, same finals, same map digests —
under adversaries, rebalancing, and the per-shard defense, at any
fan-out width.  The sweep-engine grid test pins the same contract
across jobs and executors.
"""

import numpy as np
import pytest

from replay_oracle import assert_reports_identical, both, cluster, op_by_op
from repro.cluster import ClusterRouter, ClusterSimulator, ShardMap
from repro.experiments import cluster_serving
from repro.workload import TraceSpec, generate_trace

SPEC = TraceSpec(n_base_keys=400, n_ops=1_200, insert_fraction=0.05,
                 n_tenants=3, tenant_layout="skewed", slo_p95=5.0,
                 slo_tier_factor=1.5, seed=17)


class TestClusterParity:
    @pytest.mark.parametrize("backend", ("rmi", "dynamic", "binary"))
    def test_plain_cluster(self, backend):
        col, ref = both(cluster, backend)
        assert_reports_identical(col, ref)

    @pytest.mark.parametrize("backend", ("rmi", "dynamic"))
    def test_managed_cluster(self, backend):
        """Adversary + rebalancer + per-shard defense, with TRIM."""
        col, ref = both(cluster, backend, managed=True)
        assert_reports_identical(col, ref)
        assert col.injected_poison > 0

    def test_odd_tick_sizes(self):
        for tick_ops in (37, 1):
            col, ref = both(cluster, "rmi", spec=SPEC, tick_ops=tick_ops)
            assert_reports_identical(col, ref)

    @pytest.mark.parametrize("fanout_jobs", (2, 4))
    def test_fanout_matches_serial(self, fanout_jobs):
        """Concurrent shard fan-out is bit-identical to serial."""
        ref = cluster("rmi", prepare=op_by_op)
        fan = cluster("rmi", fanout_jobs=fanout_jobs)
        assert_reports_identical(fan, ref)

    def test_unprovisioned_shard_materialises(self):
        """Inserts landing on an empty shard build it mid-tick on
        both replay arms."""
        spec = TraceSpec(n_base_keys=400, n_ops=800,
                         insert_fraction=0.25, n_tenants=3,
                         tenant_layout="skewed", slo_p95=5.0, seed=17)
        trace = generate_trace(spec)
        empty_split = int(trace.base_keys.max()) + 1
        reports = []
        for reference in (False, True):
            shard_map = ShardMap(spec.domain().lo, spec.domain().hi,
                                 (empty_split,))
            router = ClusterRouter(shard_map, trace.base_keys, "rmi",
                                   rebuild_threshold=0.12,
                                   model_size=100)
            assert router.shard(1) is None
            reports.append(ClusterSimulator(
                op_by_op(router) if reference else router, trace,
                tick_ops=200).run())
        assert_reports_identical(*reports)


class TestRouterFanoutValidation:
    def test_rejects_zero_jobs(self):
        trace = generate_trace(SPEC)
        shard_map = ShardMap.balanced(trace.base_keys, 2,
                                      SPEC.domain())
        with pytest.raises(ValueError, match="fanout_jobs"):
            ClusterRouter(shard_map, trace.base_keys, "binary",
                          fanout_jobs=0)

    def test_rejects_unknown_executor(self):
        trace = generate_trace(SPEC)
        shard_map = ShardMap.balanced(trace.base_keys, 2,
                                      SPEC.domain())
        with pytest.raises(ValueError, match="unknown executor"):
            ClusterRouter(shard_map, trace.base_keys, "binary",
                          fanout_executor="fiber")

    def test_rejects_process_pools(self):
        """Shards are shared mutable state; a process pool would
        serve copies and silently drop every mutation."""
        trace = generate_trace(SPEC)
        shard_map = ShardMap.balanced(trace.base_keys, 2,
                                      SPEC.domain())
        with pytest.raises(ValueError, match="in-process"):
            ClusterRouter(shard_map, trace.base_keys, "binary",
                          fanout_executor="process")


class TestClusterEdgeCases:
    def test_zero_probe_sample_rejected(self):
        trace = generate_trace(SPEC)
        shard_map = ShardMap.balanced(trace.base_keys, 2,
                                      SPEC.domain())
        router = ClusterRouter(shard_map, trace.base_keys, "binary")
        with pytest.raises(ValueError, match="probe_sample_size"):
            ClusterSimulator(router, trace, probe_sample_size=0)

    @pytest.mark.parametrize("reference", (False, True))
    def test_poison_ledger_reconciles(self, reference):
        """emitted == injected + discarded, with a guard-less port
        that wastes budget on the final tick."""

        class Guardless:
            def __init__(self, lo):
                self.emitted = 0
                self._cursor = lo

            def __call__(self, obs):
                keys = np.arange(self._cursor, self._cursor + 5,
                                 dtype=np.int64)
                self._cursor += 5
                self.emitted += 5
                return keys

        adv = Guardless(int(SPEC.domain().hi) + 1)
        report = cluster("rmi", spec=SPEC, adversary=adv,
                         prepare=op_by_op if reference else None)
        assert report.discarded_poison == 5  # the final tick's emit
        assert adv.emitted == (report.injected_poison
                               + report.discarded_poison)
        assert report.to_dict()["discarded_poison"] \
            == report.discarded_poison


class TestSweepGridParity:
    def test_jobs_and_executors_agree(self, tmp_path):
        """The cluster grid replays identically at jobs=1/2 on both
        registered executors (the router's ``replay_ops`` runs inside
        every worker)."""
        config = cluster_serving.ClusterConfig(
            backends=("rmi",), adversaries=("concentrated",),
            n_base_keys=400, n_ops=1_200)
        results = [
            cluster_serving.run(config, jobs=jobs, executor=executor)
            for jobs, executor in (
                (1, "thread"), (2, "thread"), (2, "process"))]
        baseline = results[0]
        for other in results[1:]:
            assert other.rows == baseline.rows
