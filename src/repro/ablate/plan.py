"""The leave-one-out ablation grid: plan, cell runners, result.

One sweep per scenario: an **all-on baseline** cell with every
applicable defense armed, one **one-off** cell per component (that
component removed, the rest exactly as the baseline runs them), and
an **all-off floor**.  Same-world design as the serving grids: every
cell of one scenario replays the identical trace over the identical
base keys with the identical adversary, so metric deltas are
attributable to the removed component alone.

Two scenarios, each cell replaying its target's own world through
that target's replay function, so no cell can drift from the world it
ablates:

* ``drip`` — every cell calls
  :func:`~repro.experiments.closedloop_serving.replay_closedloop`:
  the closed-loop escalation duel of the ``closedloop`` target
  (rate-driven trace, Algorithm 2 pool, latency-escalation
  adversary), with the TRIM auto-tuner's keep rule, the quarantine
  side list, and the churn-burst threshold boost as the toggleable
  layers;
* ``cluster`` — every cell calls
  :func:`~repro.experiments.cluster_serving.replay_cluster` with its
  enabled set: the sharded multi-tenant victim scenario of the
  ``cluster`` target (concentrated placement against tenant 0), with
  the full managed stack toggleable: TRIM, quarantine, deferral, SLO
  weighting, the rebalancer, and migration re-screening.  Over the
  process transport with ``replicas >= 3`` the grid adds the
  replication layer (quorum reads + divergence detection) and plants
  the silent poisoned-replica compromise
  (:func:`~repro.experiments.cluster_serving.compromise_faults`) in
  *every* cell, so the quorum one-off measures what replication
  actually absorbs.

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

from ..experiments.closedloop_serving import replay_closedloop
from ..experiments.cluster_serving import (
    KEEP_DEADBAND,
    KEEP_GAIN,
    VICTIM_TENANT,
    replay_cluster,
)
from ..experiments.report import format_ratio, render_table, section
from ..io import json_fields, json_float, parse_json_float
from ..runtime import Cell, CellOutput, sweep
from ..workload import TrimAutoTuner
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

    The all-on baseline beats the all-off floor on victim
    amplification, and on the drip scenario retrain deferral outranks
    the TRIM screen (pinned by ``tests/experiments/test_ablate.py``).
    ``trim`` and ``quarantine`` in both scenarios, and ``rebalancer``
    and ``migration_rescreen`` in the cluster one, score exactly
    +0.000: the drip baseline fires no retrain and keeps a keep
    fraction of 1.0 every tick, and the cluster baseline migrates no
    keys.  So deferral outranking TRIM here shows that TRIM never
    fired, not that it failed to separate the poison (Section VI).
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


def run_ablate_cell(cell: Cell) -> CellOutput:
    """Replay one ablation cell; keep the scenario's full series.

    Deterministic in the cell parameters alone — the enabled set is a
    pure function of the variant name, so resumed and fanned-out runs
    replay identical stacks.
    """
    p = cell.params_dict
    enabled = _enabled_set(p["scenario"], p)
    if p["scenario"] == "drip":
        # The tuner carries both drip-side layers: keep_gain=0 turns
        # the armed screen into a pass-through (keep pinned at 1.0),
        # boost=1 disables the churn-burst threshold deferral.
        # Neither armed == the fixed-defense floor, so the tuner drops
        # out entirely.
        tuner = None
        if enabled & {"trim", "deferral"}:
            tuner = TrimAutoTuner(
                base_threshold=p["rebuild_threshold"],
                keep_deadband=KEEP_DEADBAND,
                keep_gain=(KEEP_GAIN if "trim" in enabled else 0.0),
                **({} if "deferral" in enabled else {"boost": 1.0}))
        report, budget = replay_closedloop(
            p, tuner, quarantine_rejects="quarantine" in enabled)
        amplification, p95, slo_violations = (
            report.final_amplification, report.p95, float("nan"))
        series_2d: dict[str, Any] = {}
    else:
        # Replication-scale cells carry the silent compromise in every
        # variant, so the quorum one-off measures exactly what quorum
        # reads + the divergence detector absorb.
        report, budget = replay_cluster(
            p, enabled, compromise=(p["transport"] == "process"
                                    and p["replicas"] >= 3))
        amplification, p95, slo_violations = (
            report.final_tenant_amplification[VICTIM_TENANT],
            report.final_tenant_p95[VICTIM_TENANT],
            report.tenant_slo_violation_fraction[VICTIM_TENANT])
        series_2d = {**report.tenant_series, **report.shard_series}
    result = report.to_dict()
    result.update({
        "scenario": p["scenario"],
        "variant": p["variant"],
        "budget": budget,
        "ablate_amplification": json_float(amplification),
        "ablate_p95": json_float(p95),
        "ablate_slo_violations": json_float(slo_violations),
    })
    arrays = {f"tick_{name}": series
              for name, series in report.series.items()}
    return CellOutput(result=result, arrays={**arrays, **series_2d})


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
