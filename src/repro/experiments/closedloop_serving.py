"""The ``closedloop`` target: control-loop serving grids.

Each cell replays one (arrival model × backend × adversary × defense)
scenario: a rate-driven trace (the arrival model fixes the per-tick op
counts), an injection policy on the simulator's feedback port, and
optionally the TRIM auto-tuner on the defense port.  The grid is the
adaptive-vs-oblivious × tuned-vs-fixed experiment the static paper
cannot express: does watching serving latency buy the attacker
anything, and how much of it does a watching defender claw back?

Same-world design: every cell of one (arrival, seed) pair replays the
*identical* trace over the identical base keys, and every injection
policy — including the oblivious drip baseline — releases the same
Algorithm 2 (architecture-aware) pool.  Amplification differences
between cells are therefore attributable to the policy loop alone,
never to key quality or workload luck; this is what makes the
committed adaptive-beats-oblivious regression meaningful.

Cells are engine-backed (checkpoint, resume, process/thread fan-out,
jobs parity) and persist their full per-tick series — including the
control-loop channels ``injected``/``keep_fraction``/
``rebuild_threshold`` — as ``.npz`` artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from ..core.rmi_attack import poison_rmi
from ..core.threat_model import RMIAttackerCapability
from ..data.keyset import KeySet
from ..io import json_fields, json_float, parse_json_float
from ..runtime import Cell, CellOutput, sweep
from ..workload import (
    ServingSimulator,
    TraceSpec,
    TrimAutoTuner,
    generate_rate_driven_trace,
    make_adversary,
    make_arrival,
    make_backend,
)
from .report import (
    DuelRow,
    format_ratio,
    render_duel,
    render_table,
    section,
)

__all__ = ["ClosedLoopConfig", "ClosedLoopRow", "ClosedLoopResult",
           "plan_cells", "run_closedloop_cell", "run", "quick_config",
           "full_config", "DEFENSES"]

DEFENSES = ("fixed", "tuned")


@dataclass(frozen=True)
class ClosedLoopConfig:
    """The arrival×backend×adversary×defense grid of one sweep."""

    arrivals: tuple[str, ...] = ("poisson",)
    backends: tuple[str, ...] = ("rmi", "dynamic")
    adversaries: tuple[str, ...] = ("oblivious", "escalate",
                                    "hillclimb", "backoff")
    defenses: tuple[str, ...] = DEFENSES
    n_base_keys: int = 600
    n_ticks: int = 14
    rate: float = 90.0
    poison_percentage: float = 12.0
    insert_fraction: float = 0.04
    rebuild_threshold: float = 0.12
    model_size: int = 100
    target_amplification: float = 1.3
    seed: int = 11


def quick_config() -> ClosedLoopConfig:
    """16 cells, seconds of work — the CI smoke grid.

    The defaults are the calibrated demonstration scenario: on both
    learned backends the escalation adversary beats the oblivious
    drip, and the auto-tuner recovers more than half of that gap
    (pinned by ``tests/experiments/test_closedloop.py``).
    """
    return ClosedLoopConfig()


def full_config() -> ClosedLoopConfig:
    """96 cells over every arrival model and the model-free floor."""
    return ClosedLoopConfig(
        arrivals=("constant", "poisson", "diurnal"),
        backends=("binary", "linear", "rmi", "dynamic"),
        n_base_keys=2_000,
        n_ticks=24,
        rate=250.0)


@dataclass(frozen=True)
class ClosedLoopRow:
    """One grid point's control-loop summary."""

    arrival: str
    backend: str
    adversary: str
    defense: str
    p50: float
    p95: float
    p99: float
    retrains: int
    injected_poison: int
    amplification: float
    max_error_bound: float
    final_keep_fraction: float      # NaN while TRIM never armed
    final_rebuild_threshold: float


@dataclass(frozen=True)
class ClosedLoopResult:
    """All rows of the grid, in plan order."""

    config: ClosedLoopConfig
    rows: tuple[ClosedLoopRow, ...]

    def row(self, **criteria: Any) -> ClosedLoopRow:
        """The unique row matching all ``field=value`` criteria."""
        hits = [r for r in self.rows
                if all(getattr(r, k) == v for k, v in criteria.items())]
        if len(hits) != 1:
            raise KeyError(
                f"{criteria} matches {len(hits)} rows, expected 1")
        return hits[0]

    def format(self) -> str:
        """One block per arrival model, plus the duel summary."""
        blocks = []
        for arrival in self.config.arrivals:
            rows = [r for r in self.rows if r.arrival == arrival]
            if not rows:
                continue
            title = (f"closed loop: {arrival} arrivals "
                     f"({self.config.n_ticks} ticks @ "
                     f"{self.config.rate:g} ops, "
                     f"{self.config.poison_percentage:g}% budget)")
            body = [[r.backend, r.adversary, r.defense,
                     f"{r.p95:.1f}", format_ratio(r.amplification),
                     r.retrains, r.injected_poison,
                     ("off" if r.final_keep_fraction
                      != r.final_keep_fraction
                      else f"{r.final_keep_fraction:.2f}"),
                     f"{r.final_rebuild_threshold:.3f}"]
                    for r in rows]
            table = render_table(
                ["backend", "adversary", "defense", "p95", "amplif.",
                 "retrains", "injected", "keep", "threshold"],
                body)
            blocks.append(f"{section(title)}\n{table}")
        duel = self._format_duel()
        if duel:
            blocks.append(duel)
        return "\n\n".join(blocks)

    def duel_rows(self) -> list[DuelRow]:
        """Adaptive-vs-oblivious gaps (and tuner recovery) per cell."""
        if ("oblivious" not in self.config.adversaries
                or "fixed" not in self.config.defenses):
            return []
        rows = []
        for arrival in self.config.arrivals:
            for backend in self.config.backends:
                for adversary in self.config.adversaries:
                    if adversary == "oblivious":
                        continue
                    try:
                        oblivious = self.row(
                            arrival=arrival, backend=backend,
                            adversary="oblivious", defense="fixed")
                        fixed = self.row(
                            arrival=arrival, backend=backend,
                            adversary=adversary, defense="fixed")
                    except KeyError:  # pragma: no cover - partial grid
                        continue
                    recovered = None
                    if "tuned" in self.config.defenses:
                        tuned = self.row(
                            arrival=arrival, backend=backend,
                            adversary=adversary, defense="tuned")
                        recovered = (fixed.amplification
                                     - tuned.amplification)
                    rows.append(DuelRow(
                        group=(arrival, backend, adversary),
                        gap=(fixed.amplification
                             - oblivious.amplification),
                        recovered=recovered))
        return rows

    def _format_duel(self) -> str:
        """Adaptive-vs-oblivious gap and tuner recovery per backend."""
        return render_duel(
            "duel: adaptive gap and tuner recovery "
            "(final amplification)",
            ["arrival", "backend", "adversary"],
            self.duel_rows(),
            gap_header="gap vs oblivious",
            recovered_header="tuner recovered")

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe summary (the CLI's ``--out`` payload)."""
        return {
            "seed": self.config.seed,
            "n_base_keys": self.config.n_base_keys,
            "n_ticks": self.config.n_ticks,
            "rate": self.config.rate,
            "poison_percentage": self.config.poison_percentage,
            "cells": [json_fields(r) for r in self.rows],
        }


def spec_for(params: dict[str, Any],
             n_ops: int) -> TraceSpec:
    """The canonical organic-stream spec of a closed-loop cell.

    The trace itself carries no poison schedule — every scenario's
    poison flows through the feedback port, so all policies of one
    (arrival, seed) pair share one bit-identical stream.
    """
    return TraceSpec(
        n_base_keys=params["n_base_keys"],
        n_ops=n_ops,
        query_mix="uniform",
        insert_fraction=params["insert_fraction"],
        poison_schedule="none",
        poison_percentage=0.0,
        seed=params["seed"])


def plan_cells(config: ClosedLoopConfig) -> list[Cell]:
    """One cell per (arrival, backend, adversary, defense)."""
    return [
        Cell.make("closedloop-serving",
                  arrival=arrival,
                  backend=backend,
                  adversary=adversary,
                  defense=defense,
                  n_base_keys=config.n_base_keys,
                  n_ticks=config.n_ticks,
                  rate=config.rate,
                  poison_percentage=config.poison_percentage,
                  insert_fraction=config.insert_fraction,
                  rebuild_threshold=config.rebuild_threshold,
                  model_size=config.model_size,
                  target_amplification=config.target_amplification,
                  seed=config.seed)
        for arrival in config.arrivals
        for backend in config.backends
        for adversary in config.adversaries
        for defense in config.defenses
    ]


def run_closedloop_cell(cell: Cell) -> CellOutput:
    """Replay one control-loop scenario; keep the time series.

    Deterministic in the cell parameters alone: the arrival counts,
    the trace, the Algorithm 2 pool, and every policy decision all
    derive from them, so resumed and fanned-out runs replay identical
    loops.
    """
    p = cell.params_dict
    arrival = make_arrival(p["arrival"], rate=p["rate"],
                           seed=p["seed"])
    tick_sizes = arrival.tick_sizes(p["n_ticks"])
    spec = spec_for(p, n_ops=int(tick_sizes.sum()))
    trace = generate_rate_driven_trace(spec, tick_sizes)

    budget = max(1, int(p["n_base_keys"] * p["poison_percentage"]
                        / 100.0))
    n_models = max(1, p["n_base_keys"] // p["model_size"])
    pool = np.asarray(poison_rmi(
        KeySet(trace.base_keys, domain=spec.domain()), n_models,
        RMIAttackerCapability(
            poisoning_percentage=p["poison_percentage"]),
    ).poison_keys, dtype=np.int64)

    policy_kwargs: dict[str, Any] = {}
    if p["adversary"] == "escalate":
        policy_kwargs["target_amplification"] = \
            p["target_amplification"]
    adversary = make_adversary(p["adversary"], trace.base_keys,
                               spec.domain(), budget, p["seed"],
                               pool=pool, **policy_kwargs)
    tuner = (TrimAutoTuner(base_threshold=p["rebuild_threshold"])
             if p["defense"] == "tuned" else None)

    build_args: dict[str, Any] = {}
    if p["backend"] in ("rmi", "dynamic"):
        build_args["model_size"] = p["model_size"]
    backend = make_backend(p["backend"], trace.base_keys,
                           rebuild_threshold=p["rebuild_threshold"],
                           **build_args)
    report = ServingSimulator(backend, trace, tick_sizes=tick_sizes,
                              adversary=adversary, tuner=tuner).run()

    result = report.to_dict()
    result.update({
        "arrival": p["arrival"],
        "adversary": p["adversary"],
        "defense": p["defense"],
        "budget": budget,
        "final_keep_fraction": json_float(
            float(report.series["keep_fraction"][-1])),
        "final_rebuild_threshold": json_float(
            float(report.series["rebuild_threshold"][-1])),
    })
    return CellOutput(
        result=result,
        arrays={f"tick_{name}": series
                for name, series in report.series.items()})


def run(config: ClosedLoopConfig | None = None, jobs: int = 1,
        checkpoint_dir: str | Path | None = None, resume: bool = False,
        executor: str = "process",
        progress=None) -> ClosedLoopResult:
    """Run the whole grid; identical results for any jobs/executor."""
    config = config or quick_config()
    plan = plan_cells(config)
    outputs = sweep(run_closedloop_cell, plan, "closedloop-serving",
                    config, jobs=jobs, checkpoint_dir=checkpoint_dir,
                    resume=resume, executor=executor, progress=progress)
    rows = []
    for cell, output in zip(plan, outputs):
        p, outcome = cell.params_dict, output.result
        rows.append(ClosedLoopRow(
            arrival=p["arrival"],
            backend=p["backend"],
            adversary=p["adversary"],
            defense=p["defense"],
            p50=parse_json_float(outcome["p50"]),
            p95=parse_json_float(outcome["p95"]),
            p99=parse_json_float(outcome["p99"]),
            retrains=outcome["retrains"],
            injected_poison=outcome["injected_poison"],
            amplification=parse_json_float(
                outcome["final_amplification"]),
            max_error_bound=parse_json_float(
                outcome["max_error_bound"]),
            final_keep_fraction=parse_json_float(
                outcome["final_keep_fraction"]),
            final_rebuild_threshold=parse_json_float(
                outcome["final_rebuild_threshold"])))
    return ClosedLoopResult(config=config, rows=tuple(rows))
