"""The cluster replay loop: per-shard, per-tenant serving metrics.

:class:`ClusterSimulator` is the :class:`~repro.workload.simulator.
ServingSimulator` one level up: it drives a multi-tenant trace through
a :class:`~repro.cluster.router.ClusterRouter`, applies the
:class:`~repro.cluster.rebalance.Rebalancer` and
:class:`~repro.cluster.rebalance.SloWeightedDefense` at tick
boundaries, and records three families of series:

* **cluster** — p50/p95/p99 probe percentiles, throughput proxy,
  worst shard error bound, cumulative retrains, live keys, shard
  count, router imbalance, keys migrated, poison injected;
* **per-tenant** (2D, ``ticks × tenants``) — probe p95 and
  amplification against per-tenant probe samples, the series SLO
  compliance is judged on;
* **per-shard** (2D, ``ticks × max-shards``, NaN-padded on topology
  changes) — load, probe p95, live keys per shard, and the shard
  map's interior split-point positions (``shard_split_points``; a
  map with *k* shards fills *k−1* columns, the rest NaN like any
  other absent shard column) — the series that show a hot shard
  heating up, a split cooling it, and a concentrated attack
  dragging the partition boundaries toward the victim's range.

All metrics are deterministic cost proxies (probe counts, key
counts), so a cluster cell keeps the jobs/executor parity guarantee
of every other sweep on the engine.  The replay loop is the serving
simulator's :class:`~repro.workload.simulator.TickDriver`: each tick
is one :meth:`ClusterRouter.replay_ops` call, which fires every shard
retrain at the exact op where it would fire one op at a time, and
rebalancing happens only at tick boundaries.

Cluster adversaries
-------------------
The simulator reuses the PR 4 feedback port: after every tick the
adversary observes a :class:`ClusterTickObservation` and its returned
keys are injected at the start of the next tick.  Three placements,
two of them pools released by the closed-loop
:class:`~repro.workload.closedloop.ObliviousDripAdversary`:

``uniform``       evenly spaced fresh keys across the whole domain —
                  the placement-blind baseline every shard absorbs a
                  proportional dose of;
``concentrated``  Algorithm 2 (architecture-aware) output against the
                  *victim tenant's* sub-CDF, every key inside the
                  victim's range — the cluster-aware attack that
                  drags split points and forces hot-shard splits
                  there;
``hotshard``      feedback-driven: packs crafted keys, at the drip's
                  dose, around the centre of whichever shard the
                  observation shows hottest inside the victim's range.

All placements therefore share one budget and one drip pacing by
construction, so a gap between them is attributable to *placement*
alone — the cluster-level analogue of PR 4's same-world timing duels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..data.keyset import Domain
from ..io import json_float
from ..observe.metrics import MetricsRegistry
from ..observe.metrics import active as observe_active
from ..runtime import stable_seed_words
from ..workload.closedloop import (
    AdaptiveAdversary,
    ObliviousDripAdversary,
    pack_around,
    rmi_pool,
)
from ..workload.simulator import (
    TickDriver,
    TickObservation,
    last_finite,
    percentiles,
)
from ..workload.trace import Trace
from .rebalance import Rebalancer, SloWeightedDefense
from .router import ClusterRouter

__all__ = [
    "ClusterTickObservation", "ClusterReport", "ClusterSimulator",
    "HotShardAdversary", "concentrated_pool", "CLUSTER_ADVERSARIES",
    "make_cluster_adversary",
]

_CLUSTER_SERIES = ("p50", "p95", "p99", "mean_probes", "error_bound",
                   "retrains", "n_keys", "n_shards", "imbalance",
                   "migrated", "injected", "degraded", "flagged",
                   "latency_ms")
_TENANT_SERIES = ("tenant_p95", "tenant_amplification")
_SHARD_SERIES = ("shard_loads", "shard_p95", "shard_n_keys",
                 "shard_split_points")


@dataclass(frozen=True)
class ClusterTickObservation:
    """What the cluster feedback ports see at one tick boundary.

    Percentiles are backfilled to the last finite value like the
    single-backend observation; the per-tenant and per-shard tuples
    are the tick's raw rows (NaN where a tenant or shard saw no
    reads).  ``shard_ranges`` aligns with the shard tuples so a
    policy can target key space, not just indices.
    """

    tick: int
    ticks_total: int
    p95: float
    mean_probes: float
    retrains: int
    retrains_delta: int
    n_keys: int
    n_shards: int
    imbalance: float
    injected_total: int
    migrated_total: int
    tenant_p95: tuple[float, ...]
    tenant_amplification: tuple[float, ...]
    shard_loads: tuple[int, ...]
    shard_p95: tuple[float, ...]
    shard_ranges: tuple[tuple[int, int], ...]


#: Cluster feedback-port signatures (policies are plain callables).
ClusterAdversaryPort = Callable[[ClusterTickObservation],
                                "np.ndarray | None"]


@dataclass(frozen=True, eq=False)  # array fields: identity equality
class ClusterReport:
    """Everything one cluster replay measured.

    ``series`` holds the 1D cluster channels; ``tenant_series`` and
    ``shard_series`` hold the 2D ones (``ticks × tenants`` and
    ``ticks × max-shards``, the latter NaN-padded where a tick had
    fewer shards).
    """

    backend: str
    spec_digest: str
    initial_map_digest: str
    final_map_digest: str
    n_ops: int
    tick_ops: int
    n_tenants: int
    series: dict[str, np.ndarray]
    tenant_series: dict[str, np.ndarray]
    shard_series: dict[str, np.ndarray]
    p50: float
    p95: float
    p99: float
    mean_probes: float
    found_fraction: float
    retrains: int
    injected_poison: int
    # Crafted keys the adversary emitted but the run never injected
    # (left pending when the trace ended); budget reconciliation is
    # emitted == injected_poison + discarded_poison.
    discarded_poison: int
    migrated_keys: int
    final_n_shards: int
    max_imbalance: float
    final_tenant_p95: tuple[float, ...]
    final_tenant_amplification: tuple[float, ...]
    tenant_slo_violation_fraction: tuple[float, ...]
    # Transport health (identically zero on the in-process router —
    # the bit-parity contract with a no-injection process transport):
    # ticks with at least one degraded replica slot, and replicas the
    # divergence detector flagged as poisoned.
    degraded_ticks: int
    flagged_replicas: int

    @property
    def n_ticks(self) -> int:
        return int(self.series["p50"].size)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe, deterministic summary (no wall-clock)."""
        return {
            "backend": self.backend,
            "spec_digest": self.spec_digest,
            "initial_map_digest": self.initial_map_digest,
            "final_map_digest": self.final_map_digest,
            "n_ops": self.n_ops,
            "tick_ops": self.tick_ops,
            "n_ticks": self.n_ticks,
            "n_tenants": self.n_tenants,
            "p50": json_float(self.p50),
            "p95": json_float(self.p95),
            "p99": json_float(self.p99),
            "mean_probes": json_float(self.mean_probes),
            "found_fraction": json_float(self.found_fraction),
            "retrains": self.retrains,
            "injected_poison": self.injected_poison,
            "discarded_poison": self.discarded_poison,
            "migrated_keys": self.migrated_keys,
            "final_n_shards": self.final_n_shards,
            "max_imbalance": json_float(self.max_imbalance),
            "final_tenant_p95": [json_float(v)
                                 for v in self.final_tenant_p95],
            "final_tenant_amplification": [
                json_float(v)
                for v in self.final_tenant_amplification],
            "tenant_slo_violation_fraction": [
                json_float(v)
                for v in self.tenant_slo_violation_fraction],
            "degraded_ticks": self.degraded_ticks,
            "flagged_replicas": self.flagged_replicas,
        }


# ----------------------------------------------------------------------
# Cluster adversaries (the PR 4 port, cluster-aware placements)
# ----------------------------------------------------------------------

def _fresh_even_keys(base: np.ndarray, lo: int, hi: int,
                     count: int) -> np.ndarray:
    """``count`` unoccupied keys evenly spaced across ``[lo, hi]``.

    Deterministic and RNG-free: candidates walk an even grid and each
    occupied candidate slides right to the nearest free value, so two
    processes (and two budgets paced differently) craft identical
    pools.
    """
    base = np.sort(np.asarray(base, dtype=np.int64))
    out: list[int] = []
    taken = set()
    for i in range(count):
        candidate = lo + ((2 * i + 1) * (hi - lo)) // max(2 * count, 1)
        for _ in range(hi - lo + 1):
            if candidate > hi:
                candidate = lo
            slot = int(np.searchsorted(base, candidate))
            occupied = (slot < base.size
                        and int(base[slot]) == candidate)
            if not occupied and candidate not in taken:
                break
            candidate += 1
        else:  # pragma: no cover - range denser than the budget
            break
        out.append(candidate)
        taken.add(candidate)
    return np.asarray(sorted(out), dtype=np.int64)


def concentrated_pool(base_keys: np.ndarray,
                      victim_range: tuple[int, int], budget: int,
                      model_size: int) -> np.ndarray:
    """Cluster-aware placement: Algorithm 2 against the victim tenant.

    The architecture-aware RMI attack runs against the victim's
    *sub-CDF* (its keys, its range as the domain, the model count its
    key mass would be provisioned), so every crafted key lands inside
    the victim's slice of the key space — and, unlike a single dense
    cluster, the per-model placement survives the equal-size
    repartition of every subsequent retrain.  The local mass spike
    drags equal-mass split points toward the victim and concentrates
    model damage on exactly the shards serving it — the shard map
    itself becomes part of the attack surface.

    The paper caps Algorithm 2's budget at 20% of the victimised
    keys; a larger requested budget is clamped (the ledger follows
    the crafted pool), which only makes a same-budget duel against
    the uniform placement conservative.
    """
    if model_size < 1:
        raise ValueError(
            f"model_size must be >= 1, got {model_size}")
    lo, hi = int(victim_range[0]), int(victim_range[1])
    base = np.sort(np.asarray(base_keys, dtype=np.int64))
    inside = base[(base >= lo) & (base <= hi)]
    if inside.size == 0:
        raise ValueError(
            f"victim range [{lo}, {hi}] holds no base keys")
    return rmi_pool(inside, Domain(lo, hi), model_size,
                    min(20.0, 100.0 * budget / inside.size))


class HotShardAdversary(AdaptiveAdversary):
    """Feedback-driven placement: chase the hottest victim shard.

    Each tick the observation's per-shard loads pick the busiest
    shard overlapping the victim's range (tenant 0's, by the grid's
    convention); the drip's dose packs outward from that shard's
    key-range centre, skipping occupied and already-crafted values.
    The keys are crafted lazily, so this is the one placement that
    genuinely *uses* the feedback port's cluster channels.
    """

    name = "hotshard"

    def __init__(self, base_keys: np.ndarray, domain: Domain,
                 budget: int, victim_range: tuple[int, int]):
        super().__init__(base_keys, domain, budget)
        self._victim = (int(victim_range[0]), int(victim_range[1]))
        self._crafted: set[int] = set()

    def _hottest_victim_shard(self, obs: ClusterTickObservation,
                              ) -> tuple[int, int]:
        lo, hi = self._victim
        best, best_load = None, -1
        for (shard_lo, shard_hi), load in zip(obs.shard_ranges,
                                              obs.shard_loads):
            if shard_hi < lo or shard_lo > hi:
                continue
            if load > best_load:
                best, best_load = (max(shard_lo, lo),
                                   min(shard_hi, hi)), load
        return best if best is not None else (lo, hi)

    def _next_keys(self, obs: ClusterTickObservation) -> np.ndarray:
        chances = max(1, obs.ticks_total - 1)
        dose = min(-(-self.budget // chances), self.remaining)
        lo, hi = self._hottest_victim_shard(obs)
        return np.sort(pack_around(self._base, self._crafted,
                                   (lo + hi) // 2, lo, hi, dose))


CLUSTER_ADVERSARIES = ("uniform", "concentrated", "hotshard")


def make_cluster_adversary(name: str, base_keys: np.ndarray,
                           domain: Domain, budget: int,
                           victim_range: tuple[int, int],
                           model_size: int = 100) -> AdaptiveAdversary:
    """Instantiate a registered cluster placement policy.

    ``model_size`` only reaches the architecture-aware
    ``concentrated`` pool; passing it for the others is allowed (and
    ignored) so callers can treat the registry uniformly.
    """
    if name not in CLUSTER_ADVERSARIES:
        raise ValueError(
            f"unknown cluster adversary {name!r}; known: "
            f"{sorted(CLUSTER_ADVERSARIES)}")
    lo, hi = victim_range
    if not domain.lo <= lo <= hi <= domain.hi:
        raise ValueError(
            f"victim range [{lo}, {hi}] must sit inside the "
            f"domain [{domain.lo}, {domain.hi}]")
    if name == "hotshard":
        return HotShardAdversary(base_keys, domain, budget,
                                 victim_range)
    if name == "uniform":
        pool = _fresh_even_keys(base_keys, domain.lo, domain.hi, budget)
    else:
        pool = concentrated_pool(base_keys, victim_range, budget,
                                 model_size)
    return ObliviousDripAdversary(base_keys, domain, budget, pool=pool)


# ----------------------------------------------------------------------
# The simulator
# ----------------------------------------------------------------------

class ClusterSimulator:
    """Drive one multi-tenant trace through one sharded cluster.

    Parameters
    ----------
    router:
        A freshly built :class:`ClusterRouter` over the trace's base
        keys.
    trace:
        The operation stream; its spec carries the tenant layout and
        SLO targets.
    tick_ops:
        Operations per metrics tick.
    probe_sample_size:
        Per-tenant probe-sample size for the amplification series
        (drawn deterministically from each tenant's base keys).
    adversary:
        Optional cluster feedback port; returned keys are injected at
        the start of the next tick, ahead of its stream.
    rebalancer:
        Optional :class:`Rebalancer`; its split/merge decisions apply
        at tick boundaries and their migration cost lands in the
        ``migrated`` series of the following tick.
    defense:
        Optional :class:`SloWeightedDefense`; per-shard decisions
        apply through the router's shard tuner hooks every tick.
    """

    def __init__(self, router: ClusterRouter, trace: Trace,
                 tick_ops: int = 200, probe_sample_size: int = 48,
                 adversary: "ClusterAdversaryPort | None" = None,
                 rebalancer: "Rebalancer | None" = None,
                 defense: "SloWeightedDefense | None" = None,
                 metrics: "MetricsRegistry | None" = None):
        if tick_ops < 1:
            raise ValueError(f"tick_ops must be >= 1: {tick_ops}")
        if probe_sample_size < 1:
            # A zero-sized sample would poison every per-tenant
            # baseline with NaN and silently blank the amplification
            # series; refuse up front instead.
            raise ValueError(
                f"probe_sample_size must be >= 1: {probe_sample_size}")
        self._router = router
        self._trace = trace
        self._spec = trace.spec
        self._tick_ops = int(tick_ops)
        self._adversary = adversary
        self._rebalancer = rebalancer
        self._defense = defense
        # Opt-in instrumentation (explicit registry wins, else the
        # process-installed one); forwarded to the router, which
        # counts what it routes and hands it on to the transport book.
        self._metrics = (metrics if metrics is not None
                         else observe_active())
        if self._metrics is not None:
            router.set_metrics(self._metrics)
        self._n_tenants = self._spec.n_tenants
        tenants = self._spec.tenant_of(trace.base_keys)
        samples: list[np.ndarray] = []
        for tenant in range(self._n_tenants):
            own = trace.base_keys[tenants == tenant]
            rng = np.random.default_rng(stable_seed_words(
                self._spec.seed, "cluster-probe-sample", tenant,
                self._spec.digest))
            size = min(probe_sample_size, own.size)
            if size == 0:  # a tenant with no keys measures nothing
                samples.append(np.empty(0, dtype=np.int64))
            else:
                samples.append(rng.choice(own, size=size,
                                          replace=False))
        # Every tenant's sample goes out in one lookup; tenant t's
        # slice of it ends at _sample_ends[t].
        self._sample_keys = np.concatenate(samples)
        self._sample_ends = np.cumsum([s.size for s in samples])

    # ------------------------------------------------------------------
    def _sample_costs(self) -> np.ndarray:
        """Mean probes over each tenant's fixed sample (measure only;
        NaN for a tenant without one)."""
        _, probes = self._router.lookup_batch(self._sample_keys)
        # Measurement lookups must not count as served load.
        self._router.drain_tick_loads()
        # Lookups are independent per key, so each slice's mean is the
        # one a lookup of that tenant's sample alone would give.
        return np.asarray([
            float(own.mean()) if own.size else float("nan")
            for own in np.split(probes, self._sample_ends[:-1])])

    def _tenants_on_shard(self, lo: int, hi: int) -> np.ndarray:
        """Tenants whose key ranges overlap ``[lo, hi]``."""
        if self._spec.tenant_layout == "shared" \
                or self._n_tenants == 1:
            return np.arange(self._n_tenants, dtype=np.int64)
        first = int(self._spec.tenant_of(np.asarray([lo]))[0])
        last = int(self._spec.tenant_of(np.asarray([hi]))[0])
        return np.arange(first, last + 1, dtype=np.int64)

    def run(self) -> ClusterReport:
        """Replay the whole trace; returns the metrics report."""
        trace, router, spec = self._trace, self._router, self._spec
        initial_digest = router.shard_map.digest
        baselines = self._sample_costs()
        driver = TickDriver(router, trace, self._tick_ops, None,
                            _CLUSTER_SERIES, "cluster", self._metrics)
        series = driver.series
        tenant_rows: dict[str, list[np.ndarray]] = {
            name: [] for name in _TENANT_SERIES}
        shard_rows: dict[str, list[np.ndarray]] = {
            name: [] for name in _SHARD_SERIES}
        migrated_total = 0
        migrated_at_boundary = 0

        def close_tick(tick: int, read_keys: np.ndarray,
                       probes: np.ndarray) -> dict[str, int]:
            nonlocal migrated_at_boundary
            migrated, migrated_at_boundary = migrated_at_boundary, 0
            tenants = spec.tenant_of(read_keys)
            shards = router.shard_map.route(read_keys)
            loads = router.drain_tick_loads()
            series["n_shards"].append(float(router.n_shards))
            series["imbalance"].append(
                ClusterRouter.imbalance(loads))
            series["migrated"].append(float(migrated))

            tenant_p95 = np.full(self._n_tenants, np.nan)
            for tenant in range(self._n_tenants):
                own = probes[tenants == tenant]
                if own.size:
                    tenant_p95[tenant] = percentiles(own, (95,))[0]
            costs = self._sample_costs()
            amp = np.asarray(
                [costs[t] / baselines[t]
                 if math.isfinite(baselines[t]) and baselines[t] > 0
                 else float("nan")
                 for t in range(self._n_tenants)])
            tenant_rows["tenant_p95"].append(tenant_p95)
            tenant_rows["tenant_amplification"].append(amp)

            shard_p95 = np.full(router.n_shards, np.nan)
            for shard in range(router.n_shards):
                own = probes[shards == shard]
                if own.size:
                    shard_p95[shard] = percentiles(own, (95,))[0]
            shard_rows["shard_loads"].append(
                loads.astype(np.float64))
            shard_rows["shard_p95"].append(shard_p95)
            shard_rows["shard_n_keys"].append(
                router.shard_n_keys().astype(np.float64))
            # Interior split positions as of this tick's map: the
            # first-class drift channel (k shards fill k-1 columns;
            # the NaN padding below aligns it with shard_loads).
            shard_rows["shard_split_points"].append(
                np.asarray(router.shard_map.splits,
                           dtype=np.float64))

            # Drain the transport window last so the tick's own
            # measurement lookups (amplification sampling above) are
            # charged to the tick they ran in; divergence detection
            # runs inside this call on the cross-process router.
            degraded, flagged, latency_ms = \
                router.transport_tick_stats()
            series["degraded"].append(float(degraded))
            series["flagged"].append(float(flagged))
            series["latency_ms"].append(float(latency_ms))
            return {"migrated": migrated,
                    "n_shards": int(series["n_shards"][-1]),
                    "retrains": int(series["retrains"][-1])}

        def apply_defense(obs: ClusterTickObservation) -> None:
            tenant_amp = np.asarray(obs.tenant_amplification)
            observed_p95 = np.asarray(obs.tenant_p95)
            for shard in range(router.n_shards):
                if router.shard(shard) is None:
                    continue  # unprovisioned: nothing to tune yet
                lo, hi = router.shard_map.shard_range(shard)
                on_shard = self._tenants_on_shard(lo, hi)
                shard_amp = float(np.nanmax(tenant_amp[on_shard])) \
                    if np.isfinite(tenant_amp[on_shard]).any() \
                    else float("nan")
                local = TickObservation(
                    tick=obs.tick, ticks_total=obs.ticks_total,
                    p50=obs.p95, p95=obs.p95, p99=obs.p95,
                    mean_probes=obs.mean_probes,
                    error_bound=0.0,
                    retrains=obs.retrains,
                    retrains_delta=obs.retrains_delta,
                    amplification=shard_amp,
                    n_keys=int(router.shard(shard).n_keys),
                    injected_total=obs.injected_total)
                keep, threshold = self._defense.decide_shard(
                    shard, router.n_shards, local, observed_p95,
                    tenant_amp, on_shard)
                router.set_shard_trim_keep_fraction(shard, keep)
                router.set_shard_rebuild_threshold(shard, threshold)

        def feedback(tick: int) -> "np.ndarray | None":
            nonlocal migrated_at_boundary, migrated_total
            if (self._adversary is None and self._defense is None
                    and self._rebalancer is None):
                return None
            obs = ClusterTickObservation(
                **driver.observed(tick),
                n_shards=int(series["n_shards"][-1]),
                imbalance=float(series["imbalance"][-1]),
                migrated_total=migrated_total,
                tenant_p95=tuple(
                    float(v) for v in tenant_rows["tenant_p95"][-1]),
                tenant_amplification=tuple(
                    float(v)
                    for v in tenant_rows["tenant_amplification"][-1]),
                shard_loads=tuple(
                    int(v) for v in shard_rows["shard_loads"][-1]),
                shard_p95=tuple(
                    float(v) for v in shard_rows["shard_p95"][-1]),
                shard_ranges=tuple(
                    router.shard_map.shard_range(s)
                    for s in range(router.n_shards)))
            if self._defense is not None:
                apply_defense(obs)
            # No topology change after the final tick: nothing would
            # serve under the new map, and the migration cost would
            # have no tick row left to land in (the same guard the
            # adversary port applies to its keys).
            last_tick = tick >= driver.bounds.size - 1
            if self._rebalancer is not None and not last_tick:
                decision = self._rebalancer.decide(
                    np.asarray(obs.shard_loads, dtype=np.int64),
                    np.asarray(obs.shard_p95),
                    router.shard_n_keys())
                if decision is not None:
                    if decision.kind == "split":
                        moved = router.split_shard(decision.shard)
                    else:
                        moved = router.merge_shards(decision.shard)
                    migrated_at_boundary += moved
                    migrated_total += moved
            if self._adversary is None:
                return None
            return self._adversary(obs)

        driver.run(close_tick, feedback, open_tick=router.start_tick)

        tenant_arrays = {
            name: np.vstack(rows)
            for name, rows in tenant_rows.items()}
        max_shards = max(row.size
                         for row in shard_rows["shard_loads"])
        shard_arrays = {}
        for name, rows in shard_rows.items():
            padded = np.full((len(rows), max_shards), np.nan)
            for i, row in enumerate(rows):
                padded[i, :row.size] = row
            shard_arrays[name] = padded

        final_p95 = tuple(
            last_finite(tenant_arrays["tenant_p95"][:, t],
                        float("nan"))
            for t in range(self._n_tenants))
        final_amp = tuple(
            last_finite(tenant_arrays["tenant_amplification"][:, t],
                        1.0)
            for t in range(self._n_tenants))
        slos = spec.tenant_slos()
        violations = []
        for tenant in range(self._n_tenants):
            observed = tenant_arrays["tenant_p95"][:, tenant]
            finite = observed[np.isfinite(observed)]
            if finite.size == 0 or not math.isfinite(slos[tenant]):
                violations.append(0.0)
            else:
                violations.append(
                    float((finite > slos[tenant]).mean()))

        return ClusterReport(
            backend=router.backend_name,
            spec_digest=spec.digest,
            initial_map_digest=initial_digest,
            final_map_digest=router.shard_map.digest,
            n_ops=trace.n_ops,
            tick_ops=self._tick_ops,
            n_tenants=self._n_tenants,
            **driver.finals(),
            tenant_series=tenant_arrays,
            shard_series=shard_arrays,
            retrains=int(router.retrain_count),
            migrated_keys=migrated_total,
            final_n_shards=int(router.n_shards),
            max_imbalance=float(np.max(series["imbalance"]))
            if series["imbalance"] else 1.0,
            final_tenant_p95=final_p95,
            final_tenant_amplification=final_amp,
            tenant_slo_violation_fraction=tuple(violations),
            degraded_ticks=int(np.count_nonzero(
                np.asarray(series["degraded"]) > 0)),
            flagged_replicas=(int(series["flagged"][-1])
                              if series["flagged"] else 0))
