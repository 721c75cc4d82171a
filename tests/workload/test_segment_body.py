"""The rebuild-free segment body: one apply, one read adjustment.

``ServingBackend._serve_segment`` answers every read of a segment
against the side tables *as they stood at the read's op* and applies
the segment's effects once.  A side-table probe count is a binary
search's path length, so it depends on the table's size and the
query's rank at that op, not only on membership; these tests pin
that as-of answer to the op-by-op oracle on long segments where
reads land on keys every effect kind moves, pin the path walk that
counts it to a real table's search, pin the per-segment call budget,
and bound the memory of one 40,000-op segment.
"""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from replay_oracle import MIX, op_by_op
from repro.index import SortedStore
from repro.runtime import stable_seed_words
from repro.workload import (
    OP_DELETE,
    OP_INSERT,
    OP_MODIFY,
    OP_POISON,
    OP_QUERY,
    OP_RANGE,
    ServingSimulator,
    TraceSpec,
    generate_trace,
    make_backend,
)
from repro.workload.columnar import (
    EFF_DROP_DELTA,
    EFF_DROP_QUAR,
    EFF_FRESH,
    EFF_REVIVE,
    EFF_TOMB,
    decompose_ops,
    prefix_less_sums,
    search_probes,
)

#: Base keys are the multiples of 4 below POOL; the other pool keys
#: are fresh.  Reads and mutations draw from the same pool, so reads
#: land on keys the slice itself moves.
POOL = 400
BASE = np.arange(0, POOL, 4, dtype=np.int64)


def _as_of_world(backend):
    """A backend with long rebuild-free segments and a quarantine:
    threshold 0.9, TRIM at 0.8 where it applies, one rebuild first."""
    kw = {"model_size": 10} if backend in ("rmi", "dynamic") else {}
    trim = None if backend == "binary" else 0.8
    b = make_backend(backend, BASE, rebuild_threshold=0.9,
                     trim_keep_fraction=trim, **kw)
    b.rebuild()
    return b


def _hazard_free(ops):
    """Rewrite a mutation that would both insert and delete one key
    within the slice as a query, so the slice replays columnar."""
    inserted, deleted = set(), set()
    for i, (kind, key, aux) in enumerate(ops):
        ins = ({key} if kind in (OP_INSERT, OP_POISON)
               else {aux} if kind == OP_MODIFY else set())
        dels = {key} if kind in (OP_DELETE, OP_MODIFY) else set()
        if ins & (deleted | dels) or dels & inserted:
            ops[i] = (OP_QUERY, key, 0)
        else:
            inserted |= ins
            deleted |= dels
    kinds, keys, aux = (np.asarray(col, dtype=np.int64)
                        for col in zip(*ops))
    aux = np.where(kinds == OP_RANGE, keys + aux, aux)  # range hi
    return kinds.astype(np.int8), keys, aux


long_slice = st.lists(
    st.tuples(st.sampled_from((OP_QUERY, OP_QUERY, OP_RANGE, OP_INSERT,
                               OP_DELETE, OP_MODIFY, OP_POISON)),
              st.integers(0, POOL), st.integers(0, POOL)),
    min_size=40, max_size=120).map(_hazard_free)


def _replay_both(backend, slices):
    """Replay the slices on a columnar and an op-by-op backend of the
    same world, asserting equality slice by slice."""
    col, ref = _as_of_world(backend), op_by_op(_as_of_world(backend))
    for kinds, keys, aux in slices:
        ops = decompose_ops(kinds, keys, aux)
        assert not ops.hazard
        found, probes = col.replay_ops(kinds, keys, aux)
        ref_found, ref_probes = ref.replay_ops(kinds, keys, aux)
        queries = ops.read_is_query
        assert np.array_equal(found[queries], ref_found[queries])
        assert np.array_equal(probes, ref_probes)
        assert col.retrain_count == ref.retrain_count
        assert col.state_digest() == ref.state_digest()
    return col


def _every_effect_kind():
    """Two slices that between them make every effect kind of the
    generic side tables, each moved key read before and after."""
    world = _as_of_world("rmi")
    quarantined = int(world._quarantine[0])
    model = [int(k) for k in world._snapshot[:3]]
    fresh = [1, 3]
    first = [(OP_QUERY, k, 0) for k in (*model, quarantined, *fresh)]
    first += [(OP_INSERT, fresh[0], 0), (OP_QUERY, fresh[0], 0),
              (OP_DELETE, model[0], 0), (OP_QUERY, model[0], 0),
              (OP_DELETE, quarantined, 0), (OP_QUERY, quarantined, 0),
              (OP_RANGE, fresh[0] - 1, 2), (OP_QUERY, fresh[1], 0)]
    second = [(OP_QUERY, k, 0) for k in (model[0], fresh[0])]
    second += [(OP_INSERT, model[0], 0), (OP_QUERY, model[0], 0),
               (OP_DELETE, fresh[0], 0), (OP_QUERY, fresh[0], 0),
               (OP_MODIFY, model[1], fresh[1]), (OP_QUERY, fresh[1], 0),
               (OP_QUERY, model[1], 0), (OP_QUERY, model[2], 0)]
    return [_hazard_free(first), _hazard_free(second)]


class TestAsOfReads:
    """Long rebuild-free segments whose reads interleave with every
    effect kind (fresh, revive, tomb, drop-delta, drop-quarantine)
    replay bit-identical to the op-by-op oracle."""

    def test_the_example_makes_every_effect_kind(self):
        world = _as_of_world("rmi")
        kinds_seen = set()
        for kinds, keys, aux in _every_effect_kind():
            ops = decompose_ops(kinds, keys, aux)
            eff = world._classify_mutations(ops.sub_ins, ops.sub_key)
            kinds_seen |= set(eff.tolist())
            world.replay_ops(kinds, keys, aux)
        assert kinds_seen >= {EFF_FRESH, EFF_REVIVE, EFF_TOMB,
                              EFF_DROP_DELTA, EFF_DROP_QUAR}

    @pytest.mark.parametrize("backend",
                             ("linear", "rmi", "dynamic", "binary"))
    @settings(max_examples=30, deadline=None)
    @example(slices=_every_effect_kind())
    @given(slices=st.lists(long_slice, min_size=1, max_size=4))
    def test_long_segments_match_the_oracle(self, backend, slices):
        _replay_both(backend, slices)


class TestSegmentBudget:
    """At most one effect apply and one read adjustment per
    rebuild-free segment, counted inside ``replay_ops`` only (the
    simulator's probe sample calls ``lookup_batch`` too)."""

    @pytest.mark.parametrize("backend", ("rmi", "dynamic"))
    def test_one_apply_and_one_adjust_per_segment(self, backend):
        trace = generate_trace(MIX)
        b = make_backend(backend, trace.base_keys, rebuild_threshold=0.12)
        calls = Counter()
        replaying = []

        def counted(name):
            inner = getattr(b, name)

            def hook(*args, **kwargs):
                calls[name] += bool(replaying)
                return inner(*args, **kwargs)
            setattr(b, name, hook)

        counted("_apply_effects")
        counted("_adjust_reads")
        replay = b.replay_ops

        def replay_ops(kinds, keys, aux):
            retrains = b.retrain_count
            replaying.append(True)
            try:
                return replay(kinds, keys, aux)
            finally:
                replaying.pop()
                # Every fire retrains once and ends a segment.
                calls["segments"] += 1 + b.retrain_count - retrains

        b.replay_ops = replay_ops
        ServingSimulator(b, trace, tick_ops=200).run()
        assert b.retrain_count > 0
        assert calls["_apply_effects"] <= calls["segments"]
        assert calls["_adjust_reads"] <= calls["segments"]


#: perfbench's serve-churn trace at benchmark seed 1 (its
#: ``derived_seed(1, "serve-churn")`` and spec).
CHURN = TraceSpec(
    seed=int(np.random.SeedSequence(
        stable_seed_words(1, "serve-churn")).generate_state(1)[0]),
    n_base_keys=5_000, domain_factor=10, n_ops=40_000,
    query_mix="zipfian", insert_fraction=0.05, delete_fraction=0.02,
    modify_fraction=0.02, range_fraction=0.03, poison_schedule="drip",
    poison_percentage=10.0)


class TestOneLongSegment:
    def test_memory_stays_linear_and_ticks_agree(self):
        """At threshold 1.0 the whole trace is one segment: one
        ``replay_ops`` over it peaks at no more than 16 MiB and
        answers exactly what 200-op ticks answer."""
        trace = generate_trace(CHURN)
        whole, ticked = (make_backend("rmi", trace.base_keys,
                                      rebuild_threshold=1.0,
                                      model_size=100)
                         for _ in range(2))
        tracemalloc.start()
        try:
            found, probes = whole.replay_ops(trace.kinds, trace.keys,
                                             trace.aux)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert whole.retrain_count == 0
        assert peak <= 16 * 2**20, peak
        parts = [ticked.replay_ops(trace.kinds[i:i + 200],
                                   trace.keys[i:i + 200],
                                   trace.aux[i:i + 200])
                 for i in range(0, trace.n_ops, 200)]
        assert np.array_equal(found, np.concatenate([f for f, _ in parts]))
        assert np.array_equal(probes,
                              np.concatenate([p for _, p in parts]))
        assert whole.state_digest() == ticked.state_digest()


class TestPrefixLessSums:
    """Equal to the literal definition, across chunk boundaries (at
    ``n`` = 700 a chunk is 93 queries)."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 700), m=st.integers(0, 700),
           seed=st.integers(0, 2**31 - 1))
    def test_matches_the_definition(self, n, m, seed):
        rng = np.random.default_rng(seed)
        values = rng.choice(4 * (n + m) + 1, n, replace=False)
        weights = rng.choice(np.asarray([-1, 1]), n)
        upto = rng.integers(0, n + 1, m)
        queries = rng.integers(0, 4 * (n + m) + 1, m)
        expected = [int(weights[:u][values[:u] < q].sum())
                    for u, q in zip(upto, queries)]
        assert prefix_less_sums(values, weights, upto,
                                queries).tolist() == expected


class TestSearchProbes:
    """Equal to a binary search of a real table, for every table size
    up to 200 and every rank in it, member or not, at batch sizes
    either side of the walk's interpreted small-batch cut."""

    @pytest.fixture(scope="class")
    def cases(self):
        rows = []
        for size in range(201):
            table = np.arange(0, 2 * size, 2, dtype=np.int64)
            store = SortedStore(table) if size else None
            for rank in range(size + 1):
                # A member sits at its rank, a non-member in the gap
                # just below it.
                for member in ((False, True) if rank < size
                               else (False,)):
                    query = 2 * rank - 1 + member
                    probes = (store.search_window(query, size - 1,
                                                  size - 1).probes
                              if size else 0)
                    rows.append((size, rank, member, probes))
        return np.asarray(rows, dtype=np.int64).T

    @pytest.mark.parametrize("batch", (1, 16, 17, 200))
    def test_equals_a_real_table_search(self, cases, batch):
        size, rank, member, probes = cases
        got = np.concatenate([
            search_probes(size[at:at + batch], rank[at:at + batch],
                          member[at:at + batch].astype(bool))
            for at in range(0, size.size, batch)])
        assert np.array_equal(got, probes)
