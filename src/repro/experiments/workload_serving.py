"""The ``workload`` target: streaming scenarios on the sweep engine.

Each cell of the grid replays one (query mix × poison schedule ×
backend) streaming scenario through the serving simulator and reports
latency percentiles, the throughput proxy, error-bound drift, retrain
count, and poison amplification.  Cells are engine-backed — checkpoint,
resume, process/thread fan-out, jobs parity — and each cell persists
its full per-tick time series as ``.npz`` artifacts, so the latency
trajectory of every scenario survives for offline plotting.

Every cell regenerates its trace from the canonical
:class:`~repro.workload.trace.TraceSpec` its parameters describe; the
spec digest is recorded in the result so an artifact can always be
traced back to the exact scenario that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any


from ..io import json_fields, parse_json_float
from ..runtime import Cell, CellOutput, sweep
from ..workload import (
    ServingSimulator,
    TraceSpec,
    generate_trace,
    make_backend,
)
from .report import format_ratio, render_table, section

__all__ = ["WorkloadConfig", "WorkloadRow", "WorkloadResult",
           "plan_cells", "run_workload_cell", "run", "quick_config",
           "full_config"]


@dataclass(frozen=True)
class WorkloadConfig:
    """The scenario×backend×schedule grid of one workload sweep."""

    query_mixes: tuple[str, ...] = ("uniform", "zipfian")
    poison_schedules: tuple[str, ...] = ("oneshot", "drip")
    backends: tuple[str, ...] = ("binary", "rmi", "dynamic")
    n_base_keys: int = 800
    n_ops: int = 1_200
    tick_ops: int = 200
    poison_percentage: float = 10.0
    insert_fraction: float = 0.05
    delete_fraction: float = 0.03
    modify_fraction: float = 0.02
    range_fraction: float = 0.04
    rebuild_threshold: float = 0.08
    seed: int = 67


def quick_config() -> WorkloadConfig:
    """12 cells, seconds of work — the CI smoke grid."""
    return WorkloadConfig()


def full_config() -> WorkloadConfig:
    """45 cells over every mix, schedule, and backend."""
    return WorkloadConfig(
        query_mixes=("uniform", "zipfian", "hotspot"),
        poison_schedules=("oneshot", "drip", "burst"),
        backends=("binary", "btree", "linear", "rmi", "dynamic"),
        n_base_keys=20_000,
        n_ops=50_000,
        tick_ops=1_000)


@dataclass(frozen=True)
class WorkloadRow:
    """One grid point's serving summary."""

    query_mix: str
    poison_schedule: str
    backend: str
    p50: float
    p95: float
    p99: float
    mean_probes: float
    found_fraction: float
    retrains: int
    amplification: float
    max_error_bound: float


@dataclass(frozen=True)
class WorkloadResult:
    """All rows of the grid, in plan order."""

    config: WorkloadConfig
    rows: tuple[WorkloadRow, ...]

    def format(self) -> str:
        """One block per (query mix, schedule), backends as rows."""
        blocks = []
        for mix in self.config.query_mixes:
            for schedule in self.config.poison_schedules:
                rows = [r for r in self.rows
                        if (r.query_mix, r.poison_schedule)
                        == (mix, schedule)]
                if not rows:
                    continue
                title = (f"workload: {mix} queries, {schedule} poison "
                         f"({self.config.poison_percentage:g}% budget, "
                         f"{self.config.n_ops} ops)")
                body = [[r.backend, f"{r.p50:.1f}", f"{r.p95:.1f}",
                         f"{r.p99:.1f}", f"{r.mean_probes:.2f}",
                         f"{r.found_fraction:.1%}", r.retrains,
                         format_ratio(r.amplification),
                         f"{r.max_error_bound:.0f}"]
                        for r in rows]
                table = render_table(
                    ["backend", "p50", "p95", "p99", "mean",
                     "found", "retrains", "amplif.", "max err"],
                    body)
                blocks.append(f"{section(title)}\n{table}")
        return "\n\n".join(blocks)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe summary (the CLI's ``--out`` payload)."""
        return {
            "seed": self.config.seed,
            "n_base_keys": self.config.n_base_keys,
            "n_ops": self.config.n_ops,
            "cells": [json_fields(r) for r in self.rows],
        }


def spec_for(params: dict[str, Any]) -> TraceSpec:
    """The canonical trace spec a workload cell's parameters name."""
    return TraceSpec(
        n_base_keys=params["n_base_keys"],
        n_ops=params["n_ops"],
        query_mix=params["query_mix"],
        insert_fraction=params["insert_fraction"],
        delete_fraction=params["delete_fraction"],
        modify_fraction=params["modify_fraction"],
        range_fraction=params["range_fraction"],
        poison_schedule=params["poison_schedule"],
        poison_percentage=params["poison_percentage"],
        seed=params["seed"])


def plan_cells(config: WorkloadConfig) -> list[Cell]:
    """One cell per (query mix, poison schedule, backend)."""
    return [
        Cell.make("workload-serving",
                  query_mix=mix,
                  poison_schedule=schedule,
                  backend=backend,
                  n_base_keys=config.n_base_keys,
                  n_ops=config.n_ops,
                  tick_ops=config.tick_ops,
                  poison_percentage=config.poison_percentage,
                  insert_fraction=config.insert_fraction,
                  delete_fraction=config.delete_fraction,
                  modify_fraction=config.modify_fraction,
                  range_fraction=config.range_fraction,
                  rebuild_threshold=config.rebuild_threshold,
                  seed=config.seed)
        for mix in config.query_mixes
        for schedule in config.poison_schedules
        for backend in config.backends
    ]


def run_workload_cell(cell: Cell) -> CellOutput:
    """Replay one scenario on one backend; keep the time series.

    The trace regenerates deterministically from the cell parameters
    (its spec digest travels in the result), so resumed and fanned-out
    runs replay identical streams.  The per-tick series land as
    ``.npz`` artifacts next to the checkpoint.
    """
    p = cell.params_dict
    trace = generate_trace(spec_for(p))
    backend = make_backend(p["backend"], trace.base_keys,
                           rebuild_threshold=p["rebuild_threshold"])
    report = ServingSimulator(backend, trace,
                              tick_ops=p["tick_ops"]).run()
    return CellOutput(
        result=report.to_dict(),
        arrays={f"tick_{name}": series
                for name, series in report.series.items()})


def run(config: WorkloadConfig | None = None, jobs: int = 1,
        checkpoint_dir: str | Path | None = None, resume: bool = False,
        executor: str = "process", progress=None) -> WorkloadResult:
    """Run the whole grid; identical results for any jobs/executor."""
    config = config or quick_config()
    plan = plan_cells(config)
    outputs = sweep(run_workload_cell, plan, "workload-serving", config,
                    jobs=jobs, checkpoint_dir=checkpoint_dir,
                    resume=resume, executor=executor, progress=progress)
    rows = []
    for cell, output in zip(plan, outputs):
        p, outcome = cell.params_dict, output.result
        rows.append(WorkloadRow(
            query_mix=p["query_mix"],
            poison_schedule=p["poison_schedule"],
            backend=p["backend"],
            p50=parse_json_float(outcome["p50"]),
            p95=parse_json_float(outcome["p95"]),
            p99=parse_json_float(outcome["p99"]),
            mean_probes=parse_json_float(outcome["mean_probes"]),
            found_fraction=parse_json_float(outcome["found_fraction"]),
            retrains=outcome["retrains"],
            amplification=parse_json_float(
                outcome["final_amplification"]),
            max_error_bound=parse_json_float(
                outcome["max_error_bound"])))
    return WorkloadResult(config=config, rows=tuple(rows))
