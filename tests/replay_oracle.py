"""The op-by-op replay oracle and the scenarios it is checked on.

:func:`op_by_op` shadows ``replay_ops`` on one backend or cluster
router with a walk over the single-op surface both share:
``lookup_batch`` per run of queries, ``range_scan`` per range, and
``insert_batch``/``delete_batch`` one key at a time (a modify deletes,
then inserts), so every rebuild fires at the op where pending updates
cross the threshold.  The simulators look ``replay_ops`` up on the
instance every tick, so a wrapped target runs through the same tick
driver as production.  Imported as ``replay_oracle``, a plain
module, rather than from ``conftest``, which pytest loads itself.
"""

import dataclasses
import functools

import numpy as np

from repro.cluster import (
    ClusterRouter,
    ClusterSimulator,
    Rebalancer,
    ShardMap,
    SloWeightedDefense,
    make_cluster_adversary,
)
from repro.workload import (
    OP_DELETE,
    OP_INSERT,
    OP_MODIFY,
    OP_POISON,
    OP_QUERY,
    OP_RANGE,
    ServingSimulator,
    TraceSpec,
    TrimAutoTuner,
    generate_rate_driven_trace,
    generate_trace,
    make_adversary,
    make_arrival,
    make_backend,
)


def replay_op_by_op(target, kinds, keys, aux):
    """``replay_ops`` answered one op at a time; ``found`` is only
    meaningful for queries (a range reports ``False``)."""
    found_out = [np.zeros(0, dtype=bool)]
    probes_out = [np.zeros(0, dtype=np.int64)]
    start = 0
    while start < kinds.size:
        kind = kinds[start]
        stop = start + 1
        while stop < kinds.size and kinds[stop] == kind:
            stop += 1
        run_keys, run_aux = keys[start:stop], aux[start:stop]
        if kind == OP_QUERY:
            found, probes = target.lookup_batch(run_keys)
            found_out.append(found)
            probes_out.append(probes)
        elif kind == OP_RANGE:
            probes_out.append(np.asarray(
                [target.range_scan(int(lo), int(hi))
                 for lo, hi in zip(run_keys, run_aux)], dtype=np.int64))
            found_out.append(np.zeros(run_keys.size, dtype=bool))
        elif kind in (OP_INSERT, OP_POISON):
            for key in run_keys:
                target.insert_batch(key[np.newaxis])
        elif kind == OP_DELETE:
            for key in run_keys:
                target.delete_batch(key[np.newaxis])
        elif kind == OP_MODIFY:
            for key, new in zip(run_keys, run_aux):
                target.delete_batch(key[np.newaxis])
                target.insert_batch(new[np.newaxis])
        else:
            raise ValueError(f"unknown op kind: {kind}")
        start = stop
    return np.concatenate(found_out), np.concatenate(probes_out)


def op_by_op(target):
    """Shadow ``target.replay_ops`` with the op-by-op walk; returns
    ``target``."""
    target.replay_ops = functools.partial(replay_op_by_op, target)
    return target


def both(scenario, *args, **kwargs):
    """``(production, op-by-op reference)`` reports of one scenario."""
    return (scenario(*args, **kwargs),
            scenario(*args, prepare=op_by_op, **kwargs))


def assert_reports_identical(a, b):
    """Bit-equal ``to_dict()`` and every series family of two serving
    or cluster reports (NaN equal to NaN)."""
    da, db = a.to_dict(), b.to_dict()
    assert da == db, {k: (da[k], db[k]) for k in da if da[k] != db[k]}
    for family in ("series", "tenant_series", "shard_series"):
        mine, theirs = getattr(a, family, {}), getattr(b, family, {})
        assert sorted(mine) == sorted(theirs), family
        for name in mine:
            assert np.array_equal(mine[name], theirs[name],
                                  equal_nan=True), (family, name)


# ----------------------------------------------------------------------
# Scenarios: each builds a fresh backend or router, hands it to
# ``prepare`` (if given), replays, and returns the report.
# ----------------------------------------------------------------------
MIX = TraceSpec(n_base_keys=500, n_ops=1_500, insert_fraction=0.12,
                delete_fraction=0.08, modify_fraction=0.05,
                range_fraction=0.08, seed=23)
TENANTS = dataclasses.replace(MIX, n_tenants=4, tenant_layout="skewed",
                              slo_p95=6.0)
LOOP = TraceSpec(n_base_keys=500, n_ops=1_600, insert_fraction=0.10,
                 delete_fraction=0.05, seed=31)


def serve(trace, backend, prepare=None, **kwargs):
    b = make_backend(backend, trace.base_keys, rebuild_threshold=0.12)
    if prepare is not None:
        prepare(b)
    return ServingSimulator(b, trace, **kwargs).run()


def serving_fixed(backend, tick_ops=200, prepare=None):
    return serve(generate_trace(MIX), backend, prepare,
                 tick_ops=tick_ops)


def serving_rate(backend, prepare=None):
    sizes = make_arrival("poisson", rate=120, seed=9).tick_sizes(8)
    spec = TraceSpec(n_base_keys=400, n_ops=int(sizes.sum()),
                     insert_fraction=0.08, delete_fraction=0.05,
                     range_fraction=0.05, seed=9)
    return serve(generate_rate_driven_trace(spec, sizes), backend,
                 prepare, tick_sizes=sizes)


def serving_loop(backend, prepare=None):
    """Adversary and tuner ports closed around the replay."""
    trace = generate_trace(LOOP)
    return serve(trace, backend, prepare, tick_ops=100,
                 adversary=make_adversary("escalate", trace.base_keys,
                                          LOOP.domain(), 60),
                 tuner=TrimAutoTuner(base_threshold=0.12))


def cluster(backend, spec=TENANTS, tick_ops=200, managed=False,
            prepare=None, **ports):
    """Four shards; ``managed`` adds the hotshard adversary, the
    rebalancer, the SLO defense and TRIM at 0.9."""
    trace = generate_trace(spec)
    shard_map = ShardMap.balanced(trace.base_keys, 4, spec.domain())
    kw = {"model_size": 100} if backend in ("rmi", "dynamic") else {}
    router = ClusterRouter(
        shard_map, trace.base_keys, backend, rebuild_threshold=0.12,
        trim_keep_fraction=0.9 if managed else None, **kw)
    if prepare is not None:
        prepare(router)
    if managed:
        ports.update(
            adversary=make_cluster_adversary(
                "hotshard", trace.base_keys, spec.domain(), 40,
                victim_range=spec.tenant_ranges()[0]),
            rebalancer=Rebalancer(cooldown_ticks=0, max_shards=8),
            defense=SloWeightedDefense(spec.tenant_slos(),
                                       base_threshold=0.12))
    return ClusterSimulator(router, trace, tick_ops=tick_ops,
                            **ports).run()
