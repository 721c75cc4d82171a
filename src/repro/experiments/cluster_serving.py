"""The ``cluster`` target: sharded multi-tenant serving grids.

Each cell replays one (tenant layout × shard count × backend ×
adversary × defense) scenario: a multi-tenant trace over a
CDF-partitioned :class:`~repro.cluster.shardmap.ShardMap`, a
:class:`~repro.cluster.router.ClusterRouter` of per-shard serving
backends, a poison *placement* on the cluster feedback port, and —
in the ``managed`` defense arm — the split/merge
:class:`~repro.cluster.rebalance.Rebalancer` plus the SLO-weighted
per-shard TRIM auto-tuners.

The grid asks the cluster-level question the single-index
reproduction cannot: does *aiming* a fixed poison budget at one
tenant's key range beat spreading it across the cluster, and how much
of the victim's damage does cluster management (rebalancing +
per-shard tuning) claw back?  Same-world design as the ``closedloop``
grid: every cell of one (layout, seed) pair replays the identical
trace over the identical base keys with the identical budget and drip
pacing — placement is the only attacker difference, so the committed
concentrated-beats-uniform regression measures placement alone.

Cells are engine-backed (checkpoint, resume, process/thread fan-out,
jobs parity) and persist their full series — cluster channels as 1D
``tick_*`` arrays, per-tenant and per-shard channels as 2D arrays
(``tenant_p95``, ``tenant_amplification``, ``shard_loads``,
``shard_p95``, ``shard_n_keys``, ``shard_split_points``) — as
``.npz`` artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from ..cluster import (
    ClusterRouter,
    ClusterSimulator,
    ConcentratedClusterAdversary,
    FaultSpec,
    Rebalancer,
    ShardMap,
    SloWeightedDefense,
    TransportClusterRouter,
    TransportConfig,
    make_cluster_adversary,
)
from ..io import json_fields, json_float, parse_json_float
from ..runtime import Cell, CellOutput, sweep
from ..workload import TraceSpec, generate_trace
from .report import (
    DuelRow,
    format_ratio,
    render_duel,
    render_table,
    section,
)

__all__ = ["ClusterConfig", "ClusterRow", "ClusterResult",
           "plan_cells", "run_cluster_cell", "run", "quick_config",
           "full_config", "CLUSTER_DEFENSES", "VICTIM_TENANT",
           "ReplicaDuelArm", "ReplicaDuelResult",
           "run_poisoned_replica_scenario"]

CLUSTER_DEFENSES = ("static", "managed")

#: The tenant under attack — tenant 0 is the heavy (premium) tenant
#: of the ``skewed`` layout, with the tightest SLO tier.
VICTIM_TENANT = 0


@dataclass(frozen=True)
class ClusterConfig:
    """The layout×shards×backend×adversary×defense grid of one sweep."""

    tenant_layouts: tuple[str, ...] = ("skewed",)
    shard_counts: tuple[int, ...] = (4,)
    backends: tuple[str, ...] = ("rmi", "dynamic")
    adversaries: tuple[str, ...] = ("uniform", "concentrated")
    defenses: tuple[str, ...] = CLUSTER_DEFENSES
    n_tenants: int = 3
    tenant_skew: float = 0.5
    n_base_keys: int = 600
    n_ops: int = 2_400
    tick_ops: int = 200
    poison_percentage: float = 12.0
    insert_fraction: float = 0.04
    rebuild_threshold: float = 0.12
    model_size: int = 100
    slo_p95: float = 5.0
    slo_tier_factor: float = 1.5
    max_shards: int = 12
    transport: str = "inproc"
    replicas: int = 1
    seed: int = 23


def quick_config() -> ClusterConfig:
    """8 cells, seconds of work — the CI smoke grid.

    The defaults are the calibrated demonstration scenario: on both
    learned backends the concentrated (cluster-aware) placement beats
    the uniform spread on the victim tenant, and cluster management
    recovers at least half of that gap (pinned by
    ``tests/experiments/test_cluster.py``).
    """
    return ClusterConfig()


def full_config() -> ClusterConfig:
    """108 cells over both ranged layouts, 3 shard counts, 3 backends."""
    return ClusterConfig(
        tenant_layouts=("ranges", "skewed"),
        shard_counts=(2, 4, 8),
        backends=("binary", "rmi", "dynamic"),
        adversaries=("uniform", "concentrated", "hotshard"),
        n_base_keys=2_000,
        n_ops=8_000,
        tick_ops=400)


@dataclass(frozen=True)
class ClusterRow:
    """One grid point's cluster summary."""

    tenant_layout: str
    n_shards: int
    backend: str
    adversary: str
    defense: str
    p95: float
    victim_p95: float
    victim_amplification: float
    victim_slo_violations: float
    retrains: int
    injected_poison: int
    migrated_keys: int
    final_n_shards: int
    max_imbalance: float


@dataclass(frozen=True)
class ClusterResult:
    """All rows of the grid, in plan order."""

    config: ClusterConfig
    rows: tuple[ClusterRow, ...]

    def row(self, **criteria: Any) -> ClusterRow:
        """The unique row matching all ``field=value`` criteria."""
        hits = [r for r in self.rows
                if all(getattr(r, k) == v for k, v in criteria.items())]
        if len(hits) != 1:
            raise KeyError(
                f"{criteria} matches {len(hits)} rows, expected 1")
        return hits[0]

    def format(self) -> str:
        """One block per (layout, shard count), plus the duel."""
        blocks = []
        for layout in self.config.tenant_layouts:
            for n_shards in self.config.shard_counts:
                rows = [r for r in self.rows
                        if (r.tenant_layout, r.n_shards)
                        == (layout, n_shards)]
                if not rows:
                    continue
                title = (f"cluster: {layout} tenants, {n_shards} "
                         f"shards ({self.config.n_tenants} tenants, "
                         f"{self.config.poison_percentage:g}% budget "
                         f"on tenant {VICTIM_TENANT})")
                body = [[r.backend, r.adversary, r.defense,
                         f"{r.p95:.1f}", f"{r.victim_p95:.1f}",
                         format_ratio(r.victim_amplification),
                         f"{r.victim_slo_violations:.0%}",
                         r.retrains, r.migrated_keys,
                         r.final_n_shards,
                         f"{r.max_imbalance:.2f}"]
                        for r in rows]
                table = render_table(
                    ["backend", "adversary", "defense", "p95",
                     "victim p95", "victim amp", "slo viol",
                     "retrains", "migrated", "shards", "imbal"],
                    body)
                blocks.append(f"{section(title)}\n{table}")
        duel = self._format_duel()
        if duel:
            blocks.append(duel)
        return "\n\n".join(blocks)

    def duel_rows(self) -> list[DuelRow]:
        """Concentrated-vs-uniform gaps and management recovery.

        The gap is on the victim tenant's final amplification at the
        ``static`` defense; recovery is the managed arm's claw-back of
        the concentrated attack's damage.
        """
        if ("uniform" not in self.config.adversaries
                or "static" not in self.config.defenses):
            return []
        rows = []
        for layout in self.config.tenant_layouts:
            for n_shards in self.config.shard_counts:
                for backend in self.config.backends:
                    for adversary in self.config.adversaries:
                        if adversary == "uniform":
                            continue
                        try:
                            uniform = self.row(
                                tenant_layout=layout,
                                n_shards=n_shards, backend=backend,
                                adversary="uniform",
                                defense="static")
                            static = self.row(
                                tenant_layout=layout,
                                n_shards=n_shards, backend=backend,
                                adversary=adversary,
                                defense="static")
                        except KeyError:  # pragma: no cover
                            continue
                        recovered = None
                        if "managed" in self.config.defenses:
                            managed = self.row(
                                tenant_layout=layout,
                                n_shards=n_shards, backend=backend,
                                adversary=adversary,
                                defense="managed")
                            recovered = (
                                static.victim_amplification
                                - managed.victim_amplification)
                        rows.append(DuelRow(
                            group=(layout, str(n_shards), backend,
                                   adversary),
                            gap=(static.victim_amplification
                                 - uniform.victim_amplification),
                            recovered=recovered))
        return rows

    def _format_duel(self) -> str:
        return render_duel(
            "duel: placement gap and cluster-management recovery "
            "(victim tenant's final amplification)",
            ["layout", "shards", "backend", "adversary"],
            self.duel_rows(),
            gap_header="gap vs uniform",
            recovered_header="managed recovered")

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe summary (the CLI's ``--out`` payload)."""
        return {
            "seed": self.config.seed,
            "n_tenants": self.config.n_tenants,
            "n_base_keys": self.config.n_base_keys,
            "n_ops": self.config.n_ops,
            "poison_percentage": self.config.poison_percentage,
            "victim_tenant": VICTIM_TENANT,
            "transport": self.config.transport,
            "replicas": self.config.replicas,
            "cells": [json_fields(r) for r in self.rows],
        }


def spec_for(params: dict[str, Any]) -> TraceSpec:
    """The canonical multi-tenant spec of a cluster cell.

    No poison schedule: like the ``closedloop`` grid, every crafted
    key flows through the feedback port, so all placements of one
    (layout, seed) pair share one bit-identical organic stream.
    """
    return TraceSpec(
        n_base_keys=params["n_base_keys"],
        n_ops=params["n_ops"],
        query_mix="uniform",
        insert_fraction=params["insert_fraction"],
        poison_schedule="none",
        poison_percentage=0.0,
        n_tenants=params["n_tenants"],
        tenant_layout=params["tenant_layout"],
        tenant_skew=params["tenant_skew"],
        slo_p95=params["slo_p95"],
        slo_tier_factor=params["slo_tier_factor"],
        seed=params["seed"])


def plan_cells(config: ClusterConfig) -> list[Cell]:
    """One cell per (layout, shard count, backend, adversary, defense)."""
    return [
        Cell.make("cluster-serving",
                  tenant_layout=layout,
                  n_shards=n_shards,
                  backend=backend,
                  adversary=adversary,
                  defense=defense,
                  n_tenants=config.n_tenants,
                  tenant_skew=config.tenant_skew,
                  n_base_keys=config.n_base_keys,
                  n_ops=config.n_ops,
                  tick_ops=config.tick_ops,
                  poison_percentage=config.poison_percentage,
                  insert_fraction=config.insert_fraction,
                  rebuild_threshold=config.rebuild_threshold,
                  model_size=config.model_size,
                  slo_p95=config.slo_p95,
                  slo_tier_factor=config.slo_tier_factor,
                  max_shards=config.max_shards,
                  transport=config.transport,
                  replicas=config.replicas,
                  seed=config.seed)
        for layout in config.tenant_layouts
        for n_shards in config.shard_counts
        for backend in config.backends
        for adversary in config.adversaries
        for defense in config.defenses
    ]


def run_cluster_cell(cell: Cell) -> CellOutput:
    """Replay one sharded scenario; keep all three series families.

    Deterministic in the cell parameters alone: the trace, the shard
    map, the crafted pools, and every rebalance/tuning decision all
    derive from them, so resumed and fanned-out runs replay identical
    clusters.
    """
    p = cell.params_dict
    spec = spec_for(p)
    trace = generate_trace(spec)
    shard_map = ShardMap.balanced(trace.base_keys, p["n_shards"],
                                  spec.domain())

    build_args: dict[str, Any] = {}
    if p["backend"] in ("rmi", "dynamic"):
        build_args["model_size"] = p["model_size"]
    if p.get("transport", "inproc") == "process":
        # The cross-process cluster: every shard is a group of
        # ``replicas`` worker processes behind the wire protocol.
        # Injection stays off, so the cell's numbers are pinned
        # bit-identical to the in-process arm (the parity suite's
        # contract) — the axis measures the transport, not a scenario.
        router: ClusterRouter = TransportClusterRouter(
            shard_map, trace.base_keys, p["backend"],
            rebuild_threshold=p["rebuild_threshold"],
            replicas=p.get("replicas", 1), **build_args)
    else:
        router = ClusterRouter(
            shard_map, trace.base_keys, p["backend"],
            rebuild_threshold=p["rebuild_threshold"], **build_args)

    budget = max(1, int(p["n_base_keys"] * p["poison_percentage"]
                        / 100.0))
    adversary = make_cluster_adversary(
        p["adversary"], trace.base_keys, spec.domain(), budget,
        p["seed"],
        victim_range=spec.tenant_ranges()[VICTIM_TENANT],
        model_size=p["model_size"])

    rebalancer = defense = None
    if p["defense"] == "managed":
        rebalancer = Rebalancer(max_shards=p["max_shards"])
        # Calibrated screen: a shallow deadband + strong gain so the
        # TRIM arm reacts to sub-probe model drift, while recovery
        # runs mostly through SLO-pressured retrain deferral —
        # faithful to Section VI (TRIM cannot cheaply separate CDF
        # poison) and to the PR 4 closed-loop finding.
        defense = SloWeightedDefense(
            spec.tenant_slos(),
            base_threshold=p["rebuild_threshold"],
            keep_deadband=0.1, keep_gain=0.75)

    try:
        report = ClusterSimulator(router, trace,
                                  tick_ops=p["tick_ops"],
                                  adversary=adversary,
                                  rebalancer=rebalancer,
                                  defense=defense).run()
    finally:
        router.close()

    result = report.to_dict()
    result.update({
        "tenant_layout": p["tenant_layout"],
        "n_shards": p["n_shards"],
        "adversary": p["adversary"],
        "defense": p["defense"],
        "budget": budget,
        "victim_p95": json_float(
            report.final_tenant_p95[VICTIM_TENANT]),
        "victim_amplification": json_float(
            report.final_tenant_amplification[VICTIM_TENANT]),
        "victim_slo_violations": json_float(
            report.tenant_slo_violation_fraction[VICTIM_TENANT]),
    })
    arrays = {f"tick_{name}": series
              for name, series in report.series.items()}
    arrays.update(report.tenant_series)
    arrays.update(report.shard_series)
    return CellOutput(result=result, arrays=arrays)


# ----------------------------------------------------------------------
# The poisoned-replica duel: the replication acceptance scenario
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ReplicaDuelArm:
    """One arm of the poisoned-replica duel."""

    read_mode: str
    detector: bool
    flagged: tuple[tuple[int, int], ...]
    victim_p95: float
    victim_amplification: float
    victim_slo_violations: float
    degraded_ticks: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "read_mode": self.read_mode,
            "detector": self.detector,
            "flagged": [list(slot) for slot in self.flagged],
            "victim_p95": json_float(self.victim_p95),
            "victim_amplification": json_float(
                self.victim_amplification),
            "victim_slo_violations": json_float(
                self.victim_slo_violations),
            "degraded_ticks": self.degraded_ticks,
        }


@dataclass(frozen=True)
class ReplicaDuelResult:
    """Both arms of the duel, plus the compromise parameters."""

    backend: str
    replicas: int
    victim_shard: int
    poison_budget: int
    slo_p95: float
    quorum: ReplicaDuelArm
    primary: ReplicaDuelArm

    def format(self) -> str:
        title = (f"replication duel: compromised replica 0 of shard "
                 f"{self.victim_shard} ({self.backend} backend, "
                 f"{self.replicas} replicas, {self.poison_budget} "
                 f"silent poison inserts, victim SLO p95 <= "
                 f"{self.slo_p95:g})")
        body = []
        for label, arm in (("quorum + detector", self.quorum),
                           ("primary, no detector", self.primary)):
            flagged = (", ".join(f"s{s}r{r}" for s, r in arm.flagged)
                       or "-")
            body.append([label, flagged, f"{arm.victim_p95:.1f}",
                         format_ratio(arm.victim_amplification),
                         f"{arm.victim_slo_violations:.0%}",
                         arm.degraded_ticks])
        table = render_table(
            ["arm", "flagged", "victim p95", "victim amp",
             "slo viol", "degraded ticks"], body)
        return f"{section(title)}\n{table}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "backend": self.backend,
            "replicas": self.replicas,
            "victim_shard": self.victim_shard,
            "poison_budget": self.poison_budget,
            "slo_p95": json_float(self.slo_p95),
            "quorum": self.quorum.to_dict(),
            "primary": self.primary.to_dict(),
        }


def _poison_doses(pool: np.ndarray, shard: int,
                  ticks: tuple[int, ...]) -> tuple[FaultSpec, ...]:
    """Split a crafted pool into one single-tick dose per tick."""
    parts = np.array_split(np.asarray(pool, dtype=np.int64),
                           len(ticks))
    return tuple(
        FaultSpec(kind="poison", shard=shard, replica=0, tick=tick,
                  until=tick, keys=tuple(int(k) for k in part))
        for tick, part in zip(ticks, parts) if part.size)


def run_poisoned_replica_scenario(backend: str = "rmi",
                                  replicas: int = 3,
                                  seed: int = 23) -> ReplicaDuelResult:
    """The committed silent-compromise demonstration.

    One replica of the victim tenant's shard is compromised: every
    early tick it silently absorbs a dose of Algorithm-2 poison
    (crafted against the victim's sub-CDF) that its peers never see.
    Reads still come back valid-looking, so byte-level checks can't
    catch it — the duel measures the two defenses replication buys:

    * **quorum + detector** — quorum reads outvote the poisoned
      replica's inflated probe costs, and the divergence detector
      flags and quarantines it once its error-bound series drifts
      from its peers;
    * **primary, no detector** — the naive arm trusts replica 0
      alone, so the victim tenant eats the full poisoned latency.

    Deterministic in ``(backend, replicas, seed)``; the acceptance
    test pins the detector flagging exactly the compromised slot and
    the quorum arm holding the victim inside its SLO band.
    """
    if backend not in ("rmi", "dynamic"):
        raise ValueError(
            "the compromise targets a learned backend: "
            f"{backend!r}")
    spec = TraceSpec(
        n_base_keys=400, n_ops=1_600, query_mix="uniform",
        insert_fraction=0.04, poison_schedule="none",
        poison_percentage=0.0, n_tenants=3, tenant_layout="skewed",
        tenant_skew=0.5, slo_p95=5.0, slo_tier_factor=1.5, seed=seed)
    trace = generate_trace(spec)
    shard_map = ShardMap.balanced(trace.base_keys, 2, spec.domain())
    lo, hi = spec.tenant_ranges()[VICTIM_TENANT]
    victim_shard = int(shard_map.route(
        np.asarray([(lo + hi) // 2], dtype=np.int64))[0])
    crafted = ConcentratedClusterAdversary(
        trace.base_keys, spec.domain(), 80, seed, (lo, hi),
        model_size=100)
    shard_lo, shard_hi = shard_map.shard_range(victim_shard)
    pool = crafted.pool[(crafted.pool >= shard_lo)
                        & (crafted.pool <= shard_hi)]
    faults = _poison_doses(pool, victim_shard, (1, 2, 3, 4))

    def run_arm(read_mode: str, detector: bool) -> ReplicaDuelArm:
        router = TransportClusterRouter(
            shard_map, trace.base_keys, backend,
            transport=TransportConfig(faults=faults),
            replicas=replicas, read_mode=read_mode,
            detect_divergence=detector,
            rebuild_threshold=0.12, model_size=100)
        try:
            report = ClusterSimulator(router, trace,
                                      tick_ops=200).run()
            flagged = tuple(router.flagged_replicas())
        finally:
            router.close()
        return ReplicaDuelArm(
            read_mode=read_mode, detector=detector, flagged=flagged,
            victim_p95=report.final_tenant_p95[VICTIM_TENANT],
            victim_amplification=report.final_tenant_amplification[
                VICTIM_TENANT],
            victim_slo_violations=report.tenant_slo_violation_fraction[
                VICTIM_TENANT],
            degraded_ticks=report.degraded_ticks)

    return ReplicaDuelResult(
        backend=backend, replicas=replicas,
        victim_shard=victim_shard, poison_budget=int(pool.size),
        slo_p95=5.0,
        quorum=run_arm("quorum", True),
        primary=run_arm("primary", False))


def run(config: ClusterConfig | None = None, jobs: int = 1,
        checkpoint_dir: str | Path | None = None, resume: bool = False,
        executor: str = "process", progress=None) -> ClusterResult:
    """Run the whole grid; identical results for any jobs/executor."""
    config = config or quick_config()
    plan = plan_cells(config)
    outputs = sweep(run_cluster_cell, plan, "cluster-serving", config,
                    jobs=jobs, checkpoint_dir=checkpoint_dir,
                    resume=resume, executor=executor, progress=progress)
    rows = []
    for cell, output in zip(plan, outputs):
        p, outcome = cell.params_dict, output.result
        rows.append(ClusterRow(
            tenant_layout=p["tenant_layout"],
            n_shards=p["n_shards"],
            backend=p["backend"],
            adversary=p["adversary"],
            defense=p["defense"],
            p95=parse_json_float(outcome["p95"]),
            victim_p95=parse_json_float(outcome["victim_p95"]),
            victim_amplification=parse_json_float(
                outcome["victim_amplification"]),
            victim_slo_violations=parse_json_float(
                outcome["victim_slo_violations"]),
            retrains=outcome["retrains"],
            injected_poison=outcome["injected_poison"],
            migrated_keys=outcome["migrated_keys"],
            final_n_shards=outcome["final_n_shards"],
            max_imbalance=parse_json_float(
                outcome["max_imbalance"])))
    return ClusterResult(config=config, rows=tuple(rows))
