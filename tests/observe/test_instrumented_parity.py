"""Instrumentation must be observational only.

The contract of the whole subsystem: with a registry installed, every
simulator/cluster run produces bit-identical reports, series, and
digests — the profile is a side channel, never a participant.  These
tests run each pipeline with and without a registry and compare the
canonical dicts, then assert the registry actually saw the counters
it promises (so a refactor can't silently disconnect a hook and keep
passing), and that the CLI's profile does not depend on the job
count.
"""

import json

import numpy as np

from repro import observe
from repro.cluster import ClusterRouter, ClusterSimulator, ShardMap
from repro.experiments.__main__ import main
from repro.workload import ServingSimulator, TraceSpec, generate_trace
from repro.workload.backends import make_backend

SPEC = TraceSpec(n_base_keys=400, n_ops=1_600, query_mix="zipfian",
                 insert_fraction=0.05, delete_fraction=0.02,
                 modify_fraction=0.02, range_fraction=0.03,
                 poison_schedule="drip", poison_percentage=10.0,
                 seed=31)

CLUSTER_SPEC = TraceSpec(n_base_keys=400, n_ops=1_200,
                         query_mix="zipfian", insert_fraction=0.05,
                         n_tenants=3, tenant_layout="skewed",
                         slo_p95=5.0, seed=31)


def _serving_report(metrics):
    trace = generate_trace(SPEC)
    backend = make_backend("rmi", trace.base_keys)
    return ServingSimulator(backend, trace, tick_ops=200,
                            metrics=metrics).run()


def _cluster_report(metrics):
    trace = generate_trace(CLUSTER_SPEC)
    shard_map = ShardMap.balanced(trace.base_keys, 3,
                                  CLUSTER_SPEC.domain())
    router = ClusterRouter(shard_map, trace.base_keys, "rmi")
    return ClusterSimulator(router, trace, tick_ops=200,
                            metrics=metrics).run()


class TestServingParity:
    def test_reports_bit_identical_with_instrumentation(self):
        plain = _serving_report(None)
        reg = observe.MetricsRegistry()
        instrumented = _serving_report(reg)
        assert plain.to_dict() == instrumented.to_dict()
        for name in plain.series:
            assert np.array_equal(plain.series[name],
                                  instrumented.series[name],
                                  equal_nan=True), name

    def test_tick_counters_recorded(self):
        reg = observe.MetricsRegistry()
        report = _serving_report(reg)
        assert reg.counters == {"serving.ops": report.n_ops,
                                "serving.ticks": report.n_ticks}

    def test_trace_log_is_per_tick_and_deterministic(self):
        a, b = observe.MetricsRegistry(), observe.MetricsRegistry()
        report = _serving_report(a)
        _serving_report(b)
        assert a.events == b.events
        assert len(a.events) == report.n_ticks
        assert a.events[0]["event"] == "serving.tick"
        assert sum(e["ops"] + e["injected"] for e in a.events) \
            == report.n_ops

    def test_installed_registry_is_picked_up(self):
        """Components fall back to the process-global hook when no
        registry is passed explicitly."""
        trace = generate_trace(SPEC)
        with observe.installed() as reg:
            backend = make_backend("rmi", trace.base_keys)
            ServingSimulator(backend, trace, tick_ops=200).run()
        assert reg.counters["serving.ticks"] > 0


class TestClusterParity:
    def test_reports_bit_identical_with_instrumentation(self):
        plain = _cluster_report(None)
        reg = observe.MetricsRegistry()
        instrumented = _cluster_report(reg)
        assert plain.to_dict() == instrumented.to_dict()
        for family in ("series", "tenant_series", "shard_series"):
            mine = getattr(plain, family)
            theirs = getattr(instrumented, family)
            for name in mine:
                assert np.array_equal(mine[name], theirs[name],
                                      equal_nan=True), name

    def test_cluster_and_router_stages_recorded(self):
        reg = observe.MetricsRegistry()
        report = _cluster_report(reg)
        counters = reg.counters
        assert counters["cluster.ticks"] == report.n_ticks
        assert counters["cluster.ops"] == report.n_ops
        assert counters["router.events"] >= report.n_ops
        assert counters["router.shard_batches"] > 0
        assert len(reg.events) == report.n_ticks

    def test_split_points_series_matches_shard_map(self):
        """The satellite channel: interior splits as a first-class
        per-tick series, NaN-padded like the other shard families."""
        report = _cluster_report(None)
        splits = report.shard_series["shard_split_points"]
        loads = report.shard_series["shard_loads"]
        assert splits.shape == loads.shape
        assert splits.dtype == np.float64
        # k shards -> k-1 interior splits; the final column pads.
        finite = np.isfinite(splits)
        n_shards = report.series["n_shards"].astype(int)
        assert (finite.sum(axis=1) == n_shards - 1).all()
        # Split positions are strictly increasing across each row.
        for row, k in zip(splits, n_shards):
            vals = row[np.isfinite(row)]
            assert (np.diff(vals) > 0).all()
            assert vals.size == k - 1


def test_closedloop_profile_is_equal_at_jobs_1_and_2(tmp_path):
    """No clock feeds the profile, so a jobs-2 thread-executor run
    records exactly the jobs-1 run's ``instrument`` section."""
    profiles = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["closedloop", "--quick", "--jobs", jobs,
                     "--executor", "thread", "--instrument",
                     "--out", str(out)]) == 0
        document = json.loads(
            (out / "closedloop" / "result.json").read_text())
        profiles.append(document["instrument"])
    assert profiles[0] == profiles[1]
    assert profiles[0]["counters"]["serving.ticks"] > 0
