"""Unit tests for the serving simulator's replay and metrics."""

import json
import math

import numpy as np
import pytest

from repro.workload import (
    BACKENDS,
    ServingSimulator,
    Trace,
    TraceSpec,
    generate_trace,
    last_finite,
    make_backend,
)
from repro.workload.trace import OP_INSERT, OP_QUERY

SPEC = TraceSpec(n_base_keys=500, n_ops=800, query_mix="uniform",
                 insert_fraction=0.05, delete_fraction=0.03,
                 modify_fraction=0.02, range_fraction=0.05,
                 poison_schedule="drip", poison_percentage=10.0,
                 seed=43)


@pytest.fixture(scope="module")
def trace():
    return generate_trace(SPEC)


def replay(trace, backend_name, **kwargs):
    backend = make_backend(backend_name, trace.base_keys,
                           rebuild_threshold=0.08)
    return ServingSimulator(backend, trace, **kwargs).run()


@pytest.mark.parametrize("name", sorted(BACKENDS))
class TestReportInvariants:
    def test_percentiles_ordered(self, name, trace):
        report = replay(trace, name)
        assert report.p50 <= report.p95 <= report.p99
        assert report.mean_probes > 0
        assert report.total_probes > 0

    def test_series_aligned_and_complete(self, name, trace):
        report = replay(trace, name, tick_ops=150)
        expected_ticks = -(-trace.n_ops // 150)  # ceil
        assert report.n_ticks == expected_ticks
        for series in report.series.values():
            assert series.size == expected_ticks
        assert (np.diff(report.series["retrains"]) >= 0).all()
        assert report.series["amplification"][0] > 0

    def test_counts_carried(self, name, trace):
        report = replay(trace, name)
        assert report.ops_by_kind == trace.counts()
        assert report.n_ops == trace.n_ops
        assert 0.9 < report.found_fraction <= 1.0
        assert report.final_n_keys > 0

    def test_to_dict_json_safe(self, name, trace):
        import json

        payload = replay(trace, name).to_dict()
        json.dumps(payload)  # must not raise
        assert payload["backend"] == name
        assert payload["spec_digest"] == SPEC.digest


class TestDeterminism:
    def test_identical_reports_on_identical_replays(self, trace):
        a = replay(trace, "rmi")
        b = replay(trace, "rmi")
        assert a.to_dict() == b.to_dict()
        for name in a.series:
            assert np.array_equal(a.series[name], b.series[name],
                                  equal_nan=True)

    def test_batched_replay_equals_op_at_a_time(self, trace):
        """Run batching is an optimisation, not a semantics change:
        a tick size of 1 (no batching possible) must produce the same
        summary as the default batched replay."""
        batched = replay(trace, "rmi", tick_ops=800)
        serial = replay(trace, "rmi", tick_ops=1)
        for key in ("p50", "p95", "p99", "mean_probes", "total_probes",
                    "found_fraction", "retrains", "final_n_keys"):
            assert batched.to_dict()[key] == serial.to_dict()[key]

    @pytest.mark.parametrize("backend", ("rmi", "dynamic"))
    def test_tick_size_invariant_under_mutation_pressure(self,
                                                         backend):
        """Rebuild thresholds must fire at the same op regardless of
        batching: a mutation-heavy trace whose insert runs straddle
        threshold crossings is the case that would diverge if the
        simulator let a backend's batch-level rebuild check decide
        retrain timing."""
        heavy = generate_trace(TraceSpec(
            n_base_keys=300, n_ops=1000, insert_fraction=0.3,
            delete_fraction=0.1, poison_schedule="burst",
            poison_percentage=15.0, seed=3))
        a, b = [ServingSimulator(
            make_backend(backend, heavy.base_keys,
                         rebuild_threshold=0.1),
            heavy, tick_ops=tick).run().to_dict()
            for tick in (1000, 1)]
        for key in ("p50", "p95", "p99", "mean_probes", "total_probes",
                    "found_fraction", "retrains", "final_n_keys",
                    "final_amplification", "max_error_bound"):
            assert a[key] == b[key], key
        assert a["retrains"] >= 5  # pressure actually applied


class TestPoisonVisibility:
    def test_drip_poison_amplifies_learned_lookups(self):
        """By the end of a drip trace the learned index pays more per
        lookup than it did clean; the binary baseline does not care."""
        spec = TraceSpec(n_base_keys=600, n_ops=1200,
                         poison_schedule="drip",
                         poison_percentage=15.0, seed=47)
        trace = generate_trace(spec)
        rmi = replay(trace, "rmi")
        binary = replay(trace, "binary")
        assert rmi.final_amplification > 1.05
        assert binary.final_amplification < 1.05
        assert rmi.retrains >= 1

    def test_retrains_track_dynamic_threshold(self, trace):
        report = replay(trace, "dynamic")
        assert report.retrains >= 1
        assert report.series["retrains"][-1] == report.retrains


class TestValidation:
    def test_bad_tick_ops_rejected(self, trace):
        backend = make_backend("binary", trace.base_keys)
        with pytest.raises(ValueError, match="tick_ops"):
            ServingSimulator(backend, trace, tick_ops=0)


def _hand_trace(kinds, keys, aux=None):
    """A synthetic trace over a tiny arithmetic base keyset."""
    spec = TraceSpec(n_base_keys=64, n_ops=len(kinds), seed=3)
    kinds = np.asarray(kinds, dtype=np.int8)
    keys = np.asarray(keys, dtype=np.int64)
    aux = (np.zeros(kinds.size, dtype=np.int64) if aux is None
           else np.asarray(aux, dtype=np.int64))
    return Trace(spec=spec, base_keys=np.arange(0, 640, 10,
                                                dtype=np.int64),
                 kinds=kinds, keys=keys, aux=aux)


class TestLastFiniteFinals:
    """ISSUE 4 satellite: a read-free tail must never leak NaN into
    the summary fields — finals fall back to the last finite tick."""

    def test_churn_only_tail_keeps_finals_finite(self):
        base = np.arange(0, 640, 10, dtype=np.int64)
        queries = base[np.arange(100) % base.size]
        inserts = np.arange(5, 1005, 10, dtype=np.int64)[:100]
        trace = _hand_trace(
            kinds=[OP_QUERY] * 100 + [OP_INSERT] * 100,
            keys=np.concatenate([queries, inserts]))
        report = ServingSimulator(
            make_backend("rmi", trace.base_keys), trace,
            tick_ops=100).run()
        # The tail tick measured no reads: NaN in the series is the
        # documented per-tick encoding ...
        assert math.isnan(float(report.series["p50"][-1]))
        # ... but every summary field is finite, and the final
        # amplification is the churn-only tick's (finite) reading.
        payload = report.to_dict()
        for field in ("p50", "p95", "p99", "mean_probes",
                      "final_amplification", "max_error_bound"):
            assert isinstance(payload[field], float), field
            assert math.isfinite(payload[field]), field
        assert report.final_amplification == float(
            report.series["amplification"][-1])
        assert "nan" not in json.dumps(payload)

    def test_read_free_trace_falls_back_to_zero(self):
        inserts = np.arange(5, 2005, 10, dtype=np.int64)[:100]
        trace = _hand_trace(kinds=[OP_INSERT] * 100, keys=inserts)
        report = ServingSimulator(
            make_backend("binary", trace.base_keys), trace,
            tick_ops=50).run()
        assert report.p50 == report.p95 == report.p99 == 0.0
        assert report.mean_probes == 0.0
        assert report.found_fraction == 0.0
        assert "nan" not in json.dumps(report.to_dict())

    def test_last_finite_helper(self):
        nan = float("nan")
        assert last_finite([1.0, 2.0, nan]) == 2.0
        assert last_finite([nan, 3.5, nan, nan]) == 3.5
        assert last_finite([nan, nan]) == 0.0
        assert last_finite([], default=1.0) == 1.0
        assert last_finite([float("inf"), 4.0, nan]) == 4.0
