"""The leave-one-out ablation grid: plan, cell runners, result.

One sweep per scenario: an **all-on baseline** cell with every
applicable defense armed, one **one-off** cell per component (that
component removed, the rest exactly as the baseline runs them), and
an **all-off floor**.  Same-world design as the serving grids: every
cell of one scenario replays the identical trace over the identical
base keys with the identical adversary, so metric deltas are
attributable to the removed component alone.

Two scenarios, both reusing the committed serving-cell recipes:

* ``drip`` — the closed-loop escalation duel of the ``closedloop``
  target (rate-driven trace, Algorithm 2 pool, latency-escalation
  adversary), with the TRIM auto-tuner's keep rule, the quarantine
  side list, and the churn-burst threshold boost as the toggleable
  layers;
* ``cluster`` — the sharded multi-tenant victim scenario of the
  ``cluster`` target (concentrated placement against tenant 0), with
  the full managed stack toggleable: TRIM, quarantine, deferral, SLO
  weighting, the rebalancer, and migration re-screening.  Over the
  process transport with ``replicas >= 3`` the grid adds the
  replication layer (quorum reads + divergence detection) and plants
  the silent poisoned-replica compromise in *every* cell, so the
  quorum one-off measures what replication actually absorbs.

Cells are engine-backed (checkpoint, resume, process/thread fan-out,
jobs parity) and content-addressed purely by their parameters — the
``--components`` filter only drops one-off cells from the plan, it
never changes a surviving cell's digest, so filtered and resumed
runs share checkpoints.
"""

from __future__ import annotations

import math
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
from ..core.rmi_attack import poison_rmi
from ..core.threat_model import RMIAttackerCapability
from ..data.keyset import KeySet
from ..experiments.closedloop_serving import spec_for as drip_spec_for
from ..experiments.cluster_serving import (
    VICTIM_TENANT,
    spec_for as cluster_spec_for,
)
from ..experiments.report import format_ratio, render_table, section
from ..io import json_fields, json_float, parse_json_float
from ..runtime import Cell, CellOutput, sweep
from ..workload import (
    ServingSimulator,
    TrimAutoTuner,
    generate_rate_driven_trace,
    generate_trace,
    make_adversary,
    make_arrival,
    make_backend,
)
from .components import (
    COMPONENT_NAMES,
    SCENARIOS,
    applicable_components,
)
from .importance import (
    AblationReport,
    MetricSummary,
    build_report,
    format_reports,
    to_section,
)

__all__ = ["AblateConfig", "AblateRow", "AblateResult", "plan_cells",
           "run_ablate_cell", "run", "quick_config", "full_config",
           "variant_names"]

#: The calibrated drip-scenario tuner: a shallow deadband plus a
#: strong keep gain so the TRIM arm actually engages under the
#: escalation adversary (the neutral defaults barely move against a
#: drip — the PR 4 finding), matching the managed cluster arm's
#: calibration in ``cluster_serving``.
DRIP_KEEP_DEADBAND = 0.1
DRIP_KEEP_GAIN = 0.75

#: Ticks that each receive one dose of the silent replica compromise
#: (cluster scenario over the process transport with replicas >= 3).
COMPROMISE_TICKS = (1, 2, 3, 4)


@dataclass(frozen=True)
class AblateConfig:
    """One leave-one-out grid: scenarios, filter, scenario knobs."""

    scenarios: tuple[str, ...] = SCENARIOS
    components: "tuple[str, ...] | None" = None
    backend: str = "rmi"
    n_base_keys: int = 600
    # drip scenario (mirrors the closedloop quick grid)
    arrival: str = "poisson"
    n_ticks: int = 14
    rate: float = 90.0
    target_amplification: float = 1.3
    # cluster scenario (mirrors the cluster quick grid)
    tenant_layout: str = "skewed"
    n_shards: int = 4
    n_tenants: int = 3
    tenant_skew: float = 0.5
    n_ops: int = 2_400
    tick_ops: int = 200
    slo_p95: float = 5.0
    slo_tier_factor: float = 1.5
    max_shards: int = 12
    # shared
    poison_percentage: float = 12.0
    insert_fraction: float = 0.04
    rebuild_threshold: float = 0.12
    model_size: int = 100
    transport: str = "inproc"
    replicas: int = 1
    seed: int = 11

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ValueError("scenarios must name at least one "
                             "scenario to ablate")
        for scenario in self.scenarios:
            if scenario not in SCENARIOS:
                raise ValueError(
                    f"scenarios must name scenarios in "
                    f"{list(SCENARIOS)}, got {scenario!r}")
        if self.components is not None:
            if not self.components:
                raise ValueError(
                    "components must name at least one defense "
                    "component when given")
            for name in self.components:
                if name not in COMPONENT_NAMES:
                    raise ValueError(
                        f"components must name defense components in "
                        f"{list(COMPONENT_NAMES)}, got {name!r}")
        if self.transport not in ("inproc", "process"):
            raise ValueError(
                f"transport must be 'inproc' or 'process', got "
                f"{self.transport!r}")
        if self.replicas < 1:
            raise ValueError(
                f"replicas must be >= 1, got {self.replicas}")
        if self.replicas > 1 and self.transport != "process":
            raise ValueError(
                "replicas > 1 requires the process transport, got "
                f"transport={self.transport!r}")


def quick_config() -> AblateConfig:
    """13 cells (5 drip + 8 cluster), seconds of work — CI smoke.

    The defaults are the calibrated demonstration grid: every defense
    the scenarios carry gets a measurable leave-one-out delta, the
    all-on baseline beats the all-off floor on victim amplification,
    and on the drip scenario retrain deferral outranks the TRIM
    screen (pinned by ``tests/experiments/test_ablate.py``) — the
    paper's Section VI point that screening cannot cheaply separate
    CDF-shaped poison, while not-retraining-on-the-burst can.
    """
    return AblateConfig()


def full_config() -> AblateConfig:
    """The overnight grid: bigger worlds, same leave-one-out shape."""
    return AblateConfig(
        n_base_keys=2_000,
        n_ticks=24,
        rate=250.0,
        n_ops=8_000,
        tick_ops=400)


def variant_names(config: AblateConfig,
                  scenario: str) -> tuple[str, ...]:
    """Plan order: baseline, one ``no-<component>`` each, floor."""
    specs = applicable_components(scenario, config.transport,
                                  config.replicas, config.components)
    return ("baseline", *(f"no-{spec.name}" for spec in specs),
            "floor")


def plan_cells(config: AblateConfig) -> list[Cell]:
    """Every scenario's leave-one-out cells, in plan order."""
    cells = []
    for scenario in config.scenarios:
        for variant in variant_names(config, scenario):
            if scenario == "drip":
                cells.append(Cell.make(
                    "defense-ablation",
                    scenario=scenario,
                    variant=variant,
                    arrival=config.arrival,
                    backend=config.backend,
                    adversary="escalate",
                    n_base_keys=config.n_base_keys,
                    n_ticks=config.n_ticks,
                    rate=config.rate,
                    poison_percentage=config.poison_percentage,
                    insert_fraction=config.insert_fraction,
                    rebuild_threshold=config.rebuild_threshold,
                    model_size=config.model_size,
                    target_amplification=config.target_amplification,
                    seed=config.seed))
            else:
                cells.append(Cell.make(
                    "defense-ablation",
                    scenario=scenario,
                    variant=variant,
                    backend=config.backend,
                    adversary="concentrated",
                    tenant_layout=config.tenant_layout,
                    n_shards=config.n_shards,
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
                    seed=config.seed))
    return cells


def _enabled_set(scenario: str,
                 p: dict[str, Any]) -> frozenset[str]:
    """The armed components of one cell, from its variant name.

    The enabled set always derives from the *full* applicable list —
    the ``--components`` filter drops one-off cells from the plan but
    never disarms anything in the cells that do run.
    """
    names = tuple(spec.name for spec in applicable_components(
        scenario, p.get("transport", "inproc"),
        p.get("replicas", 1)))
    variant = p["variant"]
    if variant == "baseline":
        return frozenset(names)
    if variant == "floor":
        return frozenset()
    removed = variant[len("no-"):]
    if not variant.startswith("no-") or removed not in names:
        raise ValueError(
            f"variant must be 'baseline', 'floor', or "
            f"'no-<component>' applicable to {scenario!r}, got "
            f"{variant!r}")
    return frozenset(name for name in names if name != removed)


def _budget(p: dict[str, Any]) -> int:
    return max(1, int(p["n_base_keys"] * p["poison_percentage"]
                      / 100.0))


def _run_drip_cell(p: dict[str, Any]) -> CellOutput:
    """The closed-loop escalation duel with the chosen layers armed."""
    enabled = _enabled_set("drip", p)
    arrival = make_arrival(p["arrival"], rate=p["rate"],
                           seed=p["seed"])
    tick_sizes = arrival.tick_sizes(p["n_ticks"])
    spec = drip_spec_for(p, n_ops=int(tick_sizes.sum()))
    trace = generate_rate_driven_trace(spec, tick_sizes)

    budget = _budget(p)
    n_models = max(1, p["n_base_keys"] // p["model_size"])
    pool = np.asarray(poison_rmi(
        KeySet(trace.base_keys, domain=spec.domain()), n_models,
        RMIAttackerCapability(
            poisoning_percentage=p["poison_percentage"]),
    ).poison_keys, dtype=np.int64)
    adversary = make_adversary(
        p["adversary"], trace.base_keys, spec.domain(), budget,
        p["seed"], pool=pool,
        target_amplification=p["target_amplification"])

    # The tuner carries both drip-side layers: keep_gain=0 turns the
    # armed screen into a pass-through (keep pinned at 1.0), boost=1
    # disables the churn-burst threshold deferral.  Neither armed ==
    # the fixed-defense floor, so the tuner drops out entirely.
    tuner = None
    if enabled & {"trim", "deferral"}:
        tuner = TrimAutoTuner(
            base_threshold=p["rebuild_threshold"],
            keep_deadband=DRIP_KEEP_DEADBAND,
            keep_gain=(DRIP_KEEP_GAIN if "trim" in enabled else 0.0),
            **({} if "deferral" in enabled else {"boost": 1.0}))

    build_args: dict[str, Any] = {}
    if p["backend"] in ("rmi", "dynamic"):
        build_args["model_size"] = p["model_size"]
    backend = make_backend(
        p["backend"], trace.base_keys,
        rebuild_threshold=p["rebuild_threshold"],
        quarantine_rejects=("quarantine" in enabled), **build_args)
    report = ServingSimulator(backend, trace, tick_sizes=tick_sizes,
                              adversary=adversary, tuner=tuner).run()

    result = report.to_dict()
    result.update({
        "scenario": p["scenario"],
        "variant": p["variant"],
        "budget": budget,
        "ablate_amplification": result["final_amplification"],
        "ablate_p95": result["p95"],
        "ablate_slo_violations": json_float(float("nan")),
    })
    return CellOutput(
        result=result,
        arrays={f"tick_{name}": series
                for name, series in report.series.items()})


def _compromise_faults(trace, spec, shard_map,
                       p: dict[str, Any]) -> tuple[FaultSpec, ...]:
    """The silent poisoned-replica doses against the victim's shard.

    Crafted against the victim tenant's sub-CDF and filtered to the
    compromised shard's range, split into one dose per early tick —
    the ``run_poisoned_replica_scenario`` recipe, parameterised by
    the cell.  Replica 0 absorbs them all; its peers never see them.
    """
    lo, hi = spec.tenant_ranges()[VICTIM_TENANT]
    victim_shard = int(shard_map.route(
        np.asarray([(lo + hi) // 2], dtype=np.int64))[0])
    crafted = ConcentratedClusterAdversary(
        trace.base_keys, spec.domain(), _budget(p), p["seed"],
        (lo, hi), model_size=p["model_size"])
    shard_lo, shard_hi = shard_map.shard_range(victim_shard)
    pool = crafted.pool[(crafted.pool >= shard_lo)
                        & (crafted.pool <= shard_hi)]
    parts = np.array_split(pool, len(COMPROMISE_TICKS))
    return tuple(
        FaultSpec(kind="poison", shard=victim_shard, replica=0,
                  tick=tick, until=tick,
                  keys=tuple(int(k) for k in part))
        for tick, part in zip(COMPROMISE_TICKS, parts) if part.size)


def _run_cluster_cell(p: dict[str, Any]) -> CellOutput:
    """The sharded victim scenario with the chosen layers armed."""
    enabled = _enabled_set("cluster", p)
    spec = cluster_spec_for(p)
    trace = generate_trace(spec)
    shard_map = ShardMap.balanced(trace.base_keys, p["n_shards"],
                                  spec.domain())

    build_args: dict[str, Any] = {
        "quarantine_rejects": "quarantine" in enabled}
    if p["backend"] in ("rmi", "dynamic"):
        build_args["model_size"] = p["model_size"]
    router_kwargs: dict[str, Any] = dict(
        rebuild_threshold=p["rebuild_threshold"],
        migration_rescreen="migration_rescreen" in enabled,
        **build_args)
    if p["transport"] == "process":
        # Replication-scale cells carry the silent compromise in
        # every variant, so the quorum one-off measures exactly what
        # quorum reads + the divergence detector absorb.
        faults = (_compromise_faults(trace, spec, shard_map, p)
                  if p["replicas"] >= 3 else ())
        router: ClusterRouter = TransportClusterRouter(
            shard_map, trace.base_keys, p["backend"],
            transport=(TransportConfig(faults=faults)
                       if faults else None),
            replicas=p["replicas"],
            read_mode=("quorum" if "quorum" in enabled
                       else "primary"),
            detect_divergence=("quorum" in enabled),
            **router_kwargs)
    else:
        router = ClusterRouter(shard_map, trace.base_keys,
                               p["backend"], **router_kwargs)

    budget = _budget(p)
    adversary = make_cluster_adversary(
        p["adversary"], trace.base_keys, spec.domain(), budget,
        p["seed"],
        victim_range=spec.tenant_ranges()[VICTIM_TENANT],
        model_size=p["model_size"])

    rebalancer = (Rebalancer(max_shards=p["max_shards"])
                  if "rebalancer" in enabled else None)
    defense = None
    if enabled & {"trim", "deferral", "slo_weighting"}:
        defense = SloWeightedDefense(
            spec.tenant_slos(),
            base_threshold=p["rebuild_threshold"],
            keep_deadband=DRIP_KEEP_DEADBAND,
            keep_gain=DRIP_KEEP_GAIN,
            trim="trim" in enabled,
            deferral="deferral" in enabled,
            slo_weighting="slo_weighting" in enabled)

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
        "scenario": p["scenario"],
        "variant": p["variant"],
        "budget": budget,
        "ablate_amplification": json_float(
            report.final_tenant_amplification[VICTIM_TENANT]),
        "ablate_p95": json_float(
            report.final_tenant_p95[VICTIM_TENANT]),
        "ablate_slo_violations": json_float(
            report.tenant_slo_violation_fraction[VICTIM_TENANT]),
    })
    arrays = {f"tick_{name}": series
              for name, series in report.series.items()}
    arrays.update(report.tenant_series)
    arrays.update(report.shard_series)
    return CellOutput(result=result, arrays=arrays)


def run_ablate_cell(cell: Cell) -> CellOutput:
    """Replay one ablation cell; keep the scenario's full series.

    Deterministic in the cell parameters alone — the enabled set is a
    pure function of the variant name, so resumed and fanned-out runs
    replay identical stacks.
    """
    p = cell.params_dict
    if p["scenario"] == "drip":
        return _run_drip_cell(p)
    return _run_cluster_cell(p)


@dataclass(frozen=True)
class AblateRow:
    """One grid point's victim-facing summary."""

    scenario: str
    variant: str
    amplification: float
    p95: float
    slo_violations: float  # NaN on the single-tenant drip scenario
    retrains: int
    injected_poison: int


@dataclass(frozen=True)
class AblateResult:
    """All rows of the grid, in plan order."""

    config: AblateConfig
    rows: tuple[AblateRow, ...]

    def row(self, **criteria: Any) -> AblateRow:
        """The unique row matching all ``field=value`` criteria."""
        hits = [r for r in self.rows
                if all(getattr(r, k) == v
                       for k, v in criteria.items())]
        if len(hits) != 1:
            raise KeyError(
                f"{criteria} matches {len(hits)} rows, expected 1")
        return hits[0]

    def _metrics(self, scenario: str, variant: str) -> MetricSummary:
        r = self.row(scenario=scenario, variant=variant)
        return MetricSummary(amplification=r.amplification,
                             p95=r.p95,
                             slo_violations=r.slo_violations)

    def reports(self) -> tuple[AblationReport, ...]:
        """One ranked importance report per scenario."""
        out = []
        for scenario in self.config.scenarios:
            one_offs = [
                (spec.name, spec.title,
                 self._metrics(scenario, f"no-{spec.name}"))
                for spec in applicable_components(
                    scenario, self.config.transport,
                    self.config.replicas, self.config.components)]
            out.append(build_report(
                scenario,
                baseline=self._metrics(scenario, "baseline"),
                floor=self._metrics(scenario, "floor"),
                one_offs=one_offs))
        return tuple(out)

    def format(self) -> str:
        """Per-scenario cell tables, then the ranked importance."""
        blocks = []
        for scenario in self.config.scenarios:
            rows = [r for r in self.rows if r.scenario == scenario]
            if not rows:
                continue
            title = (f"ablation grid: {scenario} scenario "
                     f"({len(rows)} cells, "
                     f"{self.config.poison_percentage:g}% budget, "
                     f"seed {self.config.seed})")
            body = [[r.variant, format_ratio(r.amplification),
                     f"{r.p95:.1f}",
                     ("-" if math.isnan(r.slo_violations)
                      else f"{r.slo_violations:.0%}"),
                     r.retrains, r.injected_poison]
                    for r in rows]
            table = render_table(
                ["variant", "amplif.", "p95", "slo viol",
                 "retrains", "injected"], body)
            blocks.append(f"{section(title)}\n{table}")
        blocks.append(format_reports(list(self.reports())))
        return "\n\n".join(blocks)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe summary (the CLI's ``--out`` payload).

        The ``ablation`` block is the declared result section —
        see ``repro.contracts.validate_ablation_section``.
        """
        return {
            "seed": self.config.seed,
            "scenarios": list(self.config.scenarios),
            "components": (None if self.config.components is None
                           else list(self.config.components)),
            "backend": self.config.backend,
            "n_base_keys": self.config.n_base_keys,
            "poison_percentage": self.config.poison_percentage,
            "transport": self.config.transport,
            "replicas": self.config.replicas,
            "cells": [json_fields(r) for r in self.rows],
            "ablation": to_section(list(self.reports())),
        }


def run(config: AblateConfig | None = None, jobs: int = 1,
        checkpoint_dir: str | Path | None = None,
        resume: bool = False, executor: str = "process",
        progress=None) -> AblateResult:
    """Run the whole grid; identical results for any jobs/executor."""
    config = config or quick_config()
    plan = plan_cells(config)
    outputs = sweep(run_ablate_cell, plan, "defense-ablation", config,
                    jobs=jobs, checkpoint_dir=checkpoint_dir,
                    resume=resume, executor=executor, progress=progress)
    rows = []
    for cell, output in zip(plan, outputs):
        p, outcome = cell.params_dict, output.result
        rows.append(AblateRow(
            scenario=p["scenario"],
            variant=p["variant"],
            amplification=parse_json_float(
                outcome["ablate_amplification"]),
            p95=parse_json_float(outcome["ablate_p95"]),
            slo_violations=parse_json_float(
                outcome["ablate_slo_violations"]),
            retrains=outcome["retrains"],
            injected_poison=outcome["injected_poison"]))
    return AblateResult(config=config, rows=tuple(rows))
