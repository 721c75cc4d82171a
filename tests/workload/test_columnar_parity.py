"""Columnar ``replay_ops`` vs the op-by-op oracle: the parity contract.

Every backend's ``replay_ops`` must be **bit-identical** to the
op-by-op walk of :mod:`replay_oracle` — same series arrays, same
finals, same retrain timing, same backend end state.  These tests pin
that contract across fixed-tick, rate-driven and closed-loop replays
(adversary plus defense tuner) on every registered backend, and over
hazard slices, which every backend replays on ``_replay_scalar``.

Satellite regressions ride along: probe-sample validation, the
poison-budget ledger (``injected_poison + discarded_poison`` equals
what the adversary emitted), and a re-chunking invariance property.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from replay_oracle import (
    MIX,
    assert_reports_identical,
    both,
    op_by_op,
    serve,
    serving_fixed,
    serving_loop,
    serving_rate,
)
from repro.workload import (
    BACKENDS,
    OP_DELETE,
    OP_INSERT,
    OP_MODIFY,
    OP_POISON,
    OP_QUERY,
    OP_RANGE,
    AdaptiveAdversary,
    ServingSimulator,
    TraceSpec,
    generate_trace,
    make_adversary,
    make_backend,
)
from repro.workload.columnar import decompose_ops


class TestServingParity:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_fixed_tick(self, backend):
        col, ref = both(serving_fixed, backend, tick_ops=200)
        assert_reports_identical(col, ref)

    @pytest.mark.parametrize("backend", ("rmi", "dynamic"))
    def test_odd_tick_sizes(self, backend):
        for tick_ops in (37, 1):
            col, ref = both(serving_fixed, backend, tick_ops=tick_ops)
            assert_reports_identical(col, ref)

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_rate_driven(self, backend):
        col, ref = both(serving_rate, backend)
        assert_reports_identical(col, ref)

    @pytest.mark.parametrize("backend", ("rmi", "dynamic"))
    def test_closed_loop_adversary_and_tuner(self, backend):
        col, ref = both(serving_loop, backend)
        assert_reports_identical(col, ref)
        assert col.injected_poison > 0  # the loop actually closed

    def test_backend_end_state_matches(self):
        trace = generate_trace(MIX)
        backends = []
        for reference in (False, True):
            b = make_backend("dynamic", trace.base_keys,
                             rebuild_threshold=0.12)
            ServingSimulator(op_by_op(b) if reference else b, trace,
                             tick_ops=200).run()
            backends.append(b)
        col, ref = backends
        assert col.retrain_count == ref.retrain_count
        assert col.pending_updates == ref.pending_updates
        assert np.array_equal(col.live_keys(), ref.live_keys())


class TestProbeSampleValidation:
    def test_zero_sample_size_rejected(self):
        trace = generate_trace(MIX)
        backend = make_backend("binary", trace.base_keys)
        with pytest.raises(ValueError, match="probe_sample_size"):
            ServingSimulator(backend, trace, probe_sample_size=0)

    def test_traceless_base_keys_rejected(self):
        """A trace with no base keys cannot seed the amplification
        baseline; the constructor must say so instead of letting a
        NaN baseline blank the series."""
        spec = TraceSpec(n_base_keys=200, n_ops=300, seed=5)
        trace = generate_trace(spec)
        empty = dataclasses.replace(
            trace, base_keys=np.empty(0, dtype=np.int64))
        backend = make_backend("binary", trace.base_keys)
        with pytest.raises(ValueError, match="no base keys"):
            ServingSimulator(backend, empty)


class _GuardlessAdversary(AdaptiveAdversary):
    """Emits on every tick including the last, so some of its budget
    lands after the stream ends — exactly the discard the ledger
    must account for."""

    name = "guardless"

    def __init__(self, base_keys, domain, budget, seed, per_tick=7):
        super().__init__(base_keys, domain, budget, seed)
        self._per_tick = per_tick
        self._cursor = int(domain.hi) + 1

    def __call__(self, obs):  # bypass the final-tick guard
        if self.remaining <= 0:
            return None
        count = min(self._per_tick, self.remaining)
        keys = np.arange(self._cursor, self._cursor + count,
                         dtype=np.int64)
        self._cursor += count
        self._emitted += count
        return keys


class TestPoisonLedger:
    @pytest.mark.parametrize("reference", (False, True))
    def test_budget_reconciles_with_discards(self, reference):
        spec = TraceSpec(n_base_keys=400, n_ops=900, seed=11)
        trace = generate_trace(spec)
        adv = _GuardlessAdversary(trace.base_keys, spec.domain(),
                                  budget=1_000, seed=3)
        report = serve(trace, "rmi", op_by_op if reference else None,
                       tick_ops=200, adversary=adv)
        # The final observation's keys have no tick left to land in.
        assert report.discarded_poison > 0
        assert (adv._emitted
                == report.injected_poison + report.discarded_poison)
        assert report.to_dict()["discarded_poison"] \
            == report.discarded_poison

    def test_guarded_adversaries_never_discard(self):
        spec = TraceSpec(n_base_keys=400, n_ops=900, seed=11)
        trace = generate_trace(spec)
        adv = make_adversary("oblivious", trace.base_keys,
                             spec.domain(), 40, 7)
        backend = make_backend("rmi", trace.base_keys,
                               rebuild_threshold=0.12)
        report = ServingSimulator(backend, trace, tick_ops=200,
                                  adversary=adv).run()
        assert report.discarded_poison == 0
        assert report.injected_poison == adv.budget


class TestRechunkInvariance:
    """Replay metrics are a function of the op stream, not of how the
    stream is cut into ticks — on both replay arms."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           tick_ops=st.sampled_from((50, 81, 200)),
           backend=st.sampled_from(("binary", "rmi", "dynamic")),
           reference=st.booleans())
    def test_totals_survive_rechunking(self, seed, tick_ops, backend,
                                       reference):
        spec = TraceSpec(n_base_keys=300, n_ops=600,
                         insert_fraction=0.10, delete_fraction=0.05,
                         range_fraction=0.05, seed=seed)
        trace = generate_trace(spec)
        runs = []
        for ticks in (tick_ops, trace.n_ops):
            runs.append(serve(trace, backend,
                              op_by_op if reference else None,
                              tick_ops=ticks))
        a, whole = runs
        # Tick-size-independent aggregates: the probe stream and the
        # query hit totals are identical, so the finals agree.
        assert a.p50 == whole.p50
        assert a.p95 == whole.p95
        assert a.p99 == whole.p99
        assert a.mean_probes == whole.mean_probes
        assert a.found_fraction == whole.found_fraction
        assert a.retrains == whole.retrains


@st.composite
def hazard_slice(draw):
    """Random ops over a small key pool (so mutations collide), plus
    one key both inserted and deleted, in either order."""
    ops = draw(st.lists(st.tuples(
        st.sampled_from((OP_QUERY, OP_RANGE, OP_INSERT, OP_DELETE,
                         OP_MODIFY, OP_POISON)),
        st.integers(0, 120), st.integers(0, 120)), max_size=30))
    key = draw(st.integers(0, 120))
    for kind in (OP_INSERT, OP_DELETE):
        ops.insert(draw(st.integers(0, len(ops))), (kind, key, 0))
    kinds, keys, aux = (np.asarray(col, dtype=np.int64)
                        for col in zip(*ops))
    aux = np.where(kinds == OP_RANGE, keys + aux, aux)  # range hi
    return kinds.astype(np.int8), keys, aux


class TestHazardFallback:
    """A slice whose insert and delete keys overlap replays on every
    backend's ``_replay_scalar``; generated traces never hold one."""

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @settings(max_examples=25, deadline=None)
    @given(slices=st.lists(hazard_slice(), min_size=1, max_size=3))
    def test_hazard_slices_match_the_oracle(self, backend, slices):
        base = np.arange(0, 400, 4, dtype=np.int64)
        col, ref = (make_backend(backend, base, rebuild_threshold=0.05)
                    for _ in range(2))
        op_by_op(ref)
        for kinds, keys, aux in slices:
            ops = decompose_ops(kinds, keys, aux)
            assert ops.hazard
            found, probes = col.replay_ops(kinds, keys, aux)
            ref_found, ref_probes = ref.replay_ops(kinds, keys, aux)
            queries = ops.read_is_query
            assert np.array_equal(found[queries], ref_found[queries])
            assert np.array_equal(probes, ref_probes)
            assert col.retrain_count == ref.retrain_count
            assert col.n_keys == ref.n_keys
            assert col.state_digest() == ref.state_digest()
