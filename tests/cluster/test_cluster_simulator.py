"""Unit tests for the cluster simulator and its adversaries."""

import numpy as np
import pytest

from repro.cluster import (
    ClusterRouter,
    ClusterSimulator,
    Rebalancer,
    ShardMap,
    SloWeightedDefense,
    make_cluster_adversary,
)
from repro.workload import TraceSpec, generate_trace

SPEC = TraceSpec(n_base_keys=400, n_ops=1_200, insert_fraction=0.05,
                 n_tenants=3, tenant_layout="skewed", slo_p95=5.0,
                 slo_tier_factor=1.5, seed=17)

CLUSTER_SERIES = ("p50", "p95", "p99", "mean_probes", "error_bound",
                  "retrains", "n_keys", "n_shards", "imbalance",
                  "migrated", "injected", "degraded", "flagged",
                  "latency_ms")


def build(backend="rmi", n_shards=4, spec=SPEC, **sim_kwargs):
    trace = generate_trace(spec)
    shard_map = ShardMap.balanced(trace.base_keys, n_shards,
                                  spec.domain())
    router = ClusterRouter(shard_map, trace.base_keys, backend,
                           rebuild_threshold=0.12, model_size=100)
    return trace, ClusterSimulator(router, trace, tick_ops=200,
                                   **sim_kwargs)


class TestReplay:
    @pytest.fixture(scope="class")
    def report(self):
        return build()[1].run()

    def test_series_shapes(self, report):
        assert sorted(report.series) == sorted(CLUSTER_SERIES)
        n_ticks = report.n_ticks
        assert n_ticks == 6  # 1200 ops / 200 per tick
        for name, series in report.series.items():
            assert series.shape == (n_ticks,), name
        for name, series in report.tenant_series.items():
            assert series.shape == (n_ticks, SPEC.n_tenants), name
        for name, series in report.shard_series.items():
            assert series.shape[0] == n_ticks, name

    def test_found_fraction_is_total(self, report):
        assert report.found_fraction == 1.0

    def test_tenant_attribution_covers_all_reads(self, report):
        """Per-shard loads sum to the ops served (reads + mutations),
        and shard p95 rows are finite wherever the shard saw reads."""
        loads = report.shard_series["shard_loads"]
        assert np.nansum(loads) == pytest.approx(report.n_ops)

    def test_replay_is_deterministic(self, report):
        again = build()[1].run()
        assert again.to_dict() == report.to_dict()
        for name in report.series:
            assert np.array_equal(report.series[name],
                                  again.series[name], equal_nan=True)
        for family in ("tenant_series", "shard_series"):
            mine, theirs = (getattr(r, family)
                            for r in (report, again))
            for name in mine:
                assert np.array_equal(mine[name], theirs[name],
                                      equal_nan=True), name

    def test_single_shard_cluster_matches_shape(self):
        report = build(n_shards=1)[1].run()
        assert report.final_n_shards == 1
        assert report.shard_series["shard_loads"].shape[1] == 1
        assert (report.series["imbalance"] == 1.0).all()

    def test_map_digests_recorded(self, report):
        assert report.initial_map_digest == report.final_map_digest
        int(report.initial_map_digest, 16)


class TestAdversaries:
    def test_budget_ledger_spends_exactly_the_pool(self):
        trace = generate_trace(SPEC)
        for name in ("uniform", "concentrated", "hotshard"):
            adv = make_cluster_adversary(
                name, trace.base_keys, SPEC.domain(), 40,
                victim_range=SPEC.tenant_ranges()[0])
            _, sim = build(adversary=adv)
            report = sim.run()
            assert report.injected_poison == adv.budget, name
            assert adv.remaining == 0, name

    def test_concentrated_keys_stay_in_the_victim_range(self):
        trace = generate_trace(SPEC)
        lo, hi = SPEC.tenant_ranges()[0]
        adv = make_cluster_adversary(
            "concentrated", trace.base_keys, SPEC.domain(), 40,
            victim_range=(lo, hi))
        assert adv._pool.size > 0
        assert (adv._pool >= lo).all() and (adv._pool <= hi).all()

    def test_uniform_keys_spread_over_every_shard(self):
        trace = generate_trace(SPEC)
        shard_map = ShardMap.balanced(trace.base_keys, 4,
                                      SPEC.domain())
        adv = make_cluster_adversary(
            "uniform", trace.base_keys, SPEC.domain(), 40,
            victim_range=SPEC.tenant_ranges()[0])
        counts = shard_map.shard_counts(adv._pool)
        assert (counts > 0).all()

    def test_crafted_keys_are_fresh(self):
        trace = generate_trace(SPEC)
        for name in ("uniform", "concentrated"):
            adv = make_cluster_adversary(
                name, trace.base_keys, SPEC.domain(), 40,
                victim_range=SPEC.tenant_ranges()[0])
            assert np.intersect1d(adv._pool,
                                  trace.base_keys).size == 0, name

    def test_victim_range_must_sit_in_domain(self):
        trace = generate_trace(SPEC)
        with pytest.raises(ValueError, match="victim range"):
            make_cluster_adversary(
                "uniform", trace.base_keys, SPEC.domain(), 40,
                victim_range=(0, SPEC.domain().hi + 1))

    def test_unknown_adversary(self):
        with pytest.raises(ValueError, match="unknown cluster"):
            make_cluster_adversary(
                "nope", np.asarray([1, 2]), SPEC.domain(), 4,
                victim_range=(0, 1))


class TestManagementLoop:
    def test_hot_shard_split_fires_and_is_recorded(self):
        """A query hotspot on one shard must trigger the load split,
        grow the cluster, and account its migration in the series."""
        spec = TraceSpec(n_base_keys=400, n_ops=1_600,
                         query_mix="hotspot", hotspot_fraction=0.08,
                         hotspot_weight=0.95, n_tenants=3,
                         tenant_layout="ranges", slo_p95=5.0,
                         seed=29)
        trace = generate_trace(spec)
        shard_map = ShardMap.balanced(trace.base_keys, 4,
                                      spec.domain())
        router = ClusterRouter(shard_map, trace.base_keys, "binary")
        report = ClusterSimulator(
            router, trace, tick_ops=200,
            rebalancer=Rebalancer(max_shards=8)).run()
        assert report.final_n_shards > 4
        assert report.migrated_keys > 0
        assert report.series["migrated"].sum() == report.migrated_keys
        assert report.final_map_digest != report.initial_map_digest

    def test_defense_decisions_reach_the_shards(self):
        trace = generate_trace(SPEC)
        shard_map = ShardMap.balanced(trace.base_keys, 4,
                                      SPEC.domain())
        router = ClusterRouter(shard_map, trace.base_keys, "rmi",
                               rebuild_threshold=0.12, model_size=100)
        defense = SloWeightedDefense(SPEC.tenant_slos(),
                                     base_threshold=0.12,
                                     keep_deadband=0.1)
        ClusterSimulator(router, trace, tick_ops=200,
                         defense=defense).run()
        for shard in range(router.n_shards):
            # The tuner has spoken every tick: the keep screen is armed
            # (possibly at the pass-everything 1.0).
            assert router.shard(shard).trim_keep_fraction is not None

    def test_defense_skips_unprovisioned_shards(self):
        """A keyless shard has no backend to tune; the defense must
        step over it instead of crashing at the first tick."""
        spec = TraceSpec(n_base_keys=400, n_ops=800, n_tenants=3,
                         tenant_layout="skewed", slo_p95=5.0,
                         seed=17)
        trace = generate_trace(spec)
        empty_split = int(trace.base_keys.max()) + 1
        shard_map = ShardMap(spec.domain().lo, spec.domain().hi,
                             (empty_split,))
        router = ClusterRouter(shard_map, trace.base_keys, "rmi",
                               rebuild_threshold=0.12, model_size=100)
        assert router.shard(1) is None
        defense = SloWeightedDefense(spec.tenant_slos(),
                                     base_threshold=0.12)
        report = ClusterSimulator(router, trace, tick_ops=200,
                                  defense=defense).run()
        assert report.found_fraction == 1.0

    def test_defense_is_inert_on_model_free_backends(self):
        trace = generate_trace(SPEC)
        shard_map = ShardMap.balanced(trace.base_keys, 2,
                                      SPEC.domain())
        router = ClusterRouter(shard_map, trace.base_keys, "binary")
        defense = SloWeightedDefense(SPEC.tenant_slos())
        report = ClusterSimulator(router, trace, tick_ops=200,
                                  defense=defense).run()
        assert report.retrains == 0

    def test_slo_violations_counted(self):
        spec = TraceSpec(n_base_keys=400, n_ops=1_200, n_tenants=3,
                         tenant_layout="skewed", slo_p95=1.0,
                         seed=17)  # impossible SLO: every tick violates
        trace = generate_trace(spec)
        shard_map = ShardMap.balanced(trace.base_keys, 2,
                                      spec.domain())
        router = ClusterRouter(shard_map, trace.base_keys, "binary")
        report = ClusterSimulator(router, trace, tick_ops=200).run()
        assert report.tenant_slo_violation_fraction[0] == 1.0

    def test_no_slo_means_no_violations(self):
        report = build()[1].run()
        spec_no_slo = TraceSpec(n_base_keys=400, n_ops=1_200,
                                insert_fraction=0.05, n_tenants=3,
                                tenant_layout="skewed", seed=17)
        report = build(spec=spec_no_slo)[1].run()
        assert report.tenant_slo_violation_fraction == (0.0, 0.0, 0.0)
