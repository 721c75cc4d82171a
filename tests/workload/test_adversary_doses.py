"""Digest pins on every injection policy's per-tick doses.

The serving goldens pin the adversaries only through whole-replay
report digests; these pins hold each policy's emitted keys directly.
A fixed three-tenant ``skewed`` world is driven through a scripted
observation stream that varies amplification, p95, retrains and the
per-shard loads the ``hotshard`` placement steers by, and each
policy's per-tick output is hashed.  The faults
:func:`~repro.experiments.cluster_serving.compromise_faults` plants on
the replica duel's world are pinned the same way.

A refactor of the adversaries must leave every digest here unchanged.
"""

import hashlib
import math

import numpy as np
import pytest

from repro.cluster import ShardMap, make_cluster_adversary
from repro.cluster.simulator import ClusterTickObservation
from repro.experiments.cluster_serving import compromise_faults
from repro.workload import (
    TickObservation,
    TraceSpec,
    generate_trace,
    make_adversary,
)

SPEC = TraceSpec(n_base_keys=400, n_ops=1_200, insert_fraction=0.05,
                 n_tenants=3, tenant_layout="skewed", slo_p95=5.0,
                 slo_tier_factor=1.5, seed=17)

TICKS = 12
AMPLIFICATION = (1.0, 1.1, 1.2, 1.6, 1.4, 1.0, 2.0, 1.2, 1.3, 1.1,
                 1.0, 1.0)
P95 = (math.nan, 6.0, 7.0, 6.5, 8.0, 9.0, 7.0, 7.5, 10.0, 9.0, 9.0,
       9.0)
RETRAINS_DELTA = (0, 0, 1, 0, 0, 0, 1, 0, 0, 1, 0, 0)
# Per-tick shard loads: the hottest shard moves, and from tick 6 the
# map has five shards (a split) so the ranges move too.
LOADS = ((50, 40, 30, 20), (10, 60, 30, 20), (10, 20, 70, 20),
         (10, 20, 30, 80), (90, 20, 30, 20), (40, 40, 30, 20),
         (10, 20, 30, 40, 90), (10, 90, 30, 40, 20),
         (10, 20, 30, 90, 20), (90, 20, 30, 40, 20),
         (10, 20, 90, 40, 20), (10, 20, 30, 40, 20))

POLICY_DIGESTS = {
    "oblivious":
        "f72e8fb580fd4c7d61f10a62731da1b42c33e7074e2005511c9a6c93e92f709c",
    "escalate":
        "01e27fc5128845843ed920c8045c3fefbd94c39fc2902b67383b1eb322ade7ae",
    "hillclimb":
        "7f2488834a4c2e4873335aed95064332048fd8f9760f4386e2543d20e9391af9",
    "backoff":
        "f70ba540d9ee9f30ae4ea216e674b0cc4128a1e7491218a3ea348bbff5515014",
}
PLACEMENT_DIGESTS = {
    "uniform":
        "5fc195bf82eb7a1bea255283e27b48def2b680d1cddbd21617eb1ce80559fc28",
    "concentrated":
        "e5f4ab3af506f79ed65bf26214396c533869bbfab03d313e752dfaf8ae013ec3",
    "hotshard":
        "929536bf0848a83e1c7978dc714398d052b27c1e9f19eb893ab0f88321bd2800",
}
COMPROMISE_DIGEST = (
    "42b327c01e1614190d10888b5bb0527ce09ef30ed792e8a7dab5dbfeead9457a")


def _digest(budget, doses):
    h = hashlib.sha256(f"budget={budget};".encode())
    for tick, keys in enumerate(doses):
        h.update(f"{tick}:".encode())
        if keys is None:
            h.update(b"none;")
        else:
            h.update(np.asarray(keys, dtype="<i8").tobytes() + b";")
    return h.hexdigest()


@pytest.fixture(scope="module")
def world():
    trace = generate_trace(SPEC)
    return trace.base_keys, SPEC.domain()


def _observation(tick):
    return TickObservation(
        tick=tick, ticks_total=TICKS, p50=P95[tick] - 1.0,
        p95=P95[tick], p99=P95[tick] + 1.0, mean_probes=3.0,
        error_bound=8.0, retrains=sum(RETRAINS_DELTA[:tick + 1]),
        retrains_delta=RETRAINS_DELTA[tick],
        amplification=AMPLIFICATION[tick], n_keys=400 + 4 * tick,
        injected_total=0)


def _cluster_observation(tick, base_keys, domain):
    loads = LOADS[tick]
    shard_map = ShardMap.balanced(base_keys, len(loads), domain)
    return ClusterTickObservation(
        tick=tick, ticks_total=TICKS, p95=P95[tick], mean_probes=3.0,
        retrains=sum(RETRAINS_DELTA[:tick + 1]),
        retrains_delta=RETRAINS_DELTA[tick], n_keys=400 + 4 * tick,
        n_shards=len(loads), imbalance=1.0, injected_total=0,
        migrated_total=0,
        tenant_p95=(P95[tick],) * SPEC.n_tenants,
        tenant_amplification=(AMPLIFICATION[tick],) * SPEC.n_tenants,
        shard_loads=loads, shard_p95=(P95[tick],) * len(loads),
        shard_ranges=tuple(shard_map.shard_range(s)
                           for s in range(len(loads))))


@pytest.mark.parametrize("name", sorted(POLICY_DIGESTS))
def test_policy_doses(name, world):
    base_keys, domain = world
    adversary = make_adversary(name, base_keys, domain, 90)
    doses = [adversary(_observation(tick)) for tick in range(TICKS)]
    assert _digest(adversary.budget, doses) == POLICY_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(PLACEMENT_DIGESTS))
def test_placement_doses(name, world):
    base_keys, domain = world
    adversary = make_cluster_adversary(
        name, base_keys, domain, 60,
        victim_range=SPEC.tenant_ranges()[0], model_size=100)
    doses = [adversary(_cluster_observation(tick, base_keys, domain))
             for tick in range(TICKS)]
    assert _digest(adversary.budget, doses) == PLACEMENT_DIGESTS[name]


def test_compromise_faults():
    spec = TraceSpec(
        n_base_keys=400, n_ops=1_600, query_mix="uniform",
        insert_fraction=0.04, poison_schedule="none",
        poison_percentage=0.0, n_tenants=3, tenant_layout="skewed",
        tenant_skew=0.5, slo_p95=5.0, slo_tier_factor=1.5, seed=23)
    trace = generate_trace(spec)
    shard_map = ShardMap.balanced(trace.base_keys, 2, spec.domain())
    victim_shard, n_keys, faults = compromise_faults(
        trace, shard_map, 80, 100)
    h = hashlib.sha256(f"{victim_shard};{n_keys};".encode())
    for fault in faults:
        h.update(f"{fault.kind}|{fault.shard}|{fault.replica}|"
                 f"{fault.tick}|{fault.until}|{fault.attempts}|"
                 .encode())
        h.update(np.asarray(fault.keys, dtype="<i8").tobytes() + b";")
    assert len(faults) == 4
    assert h.hexdigest() == COMPROMISE_DIGEST
