"""Shared machinery for the regression-poisoning sweeps (Figs. 5, 8).

Both figures report boxplots of the Ratio Loss over 20 random keysets
for a grid of (number of keys) x (key density) cells and a range of
poisoning percentages.  Figure 5 draws keys uniformly (the CDF shape a
learned index loves); Figure 8 draws them from the paper's clipped
normal (a shape linear models already struggle with).

One greedy run per trial at the *largest* percentage yields every
smaller percentage for free: Algorithm 1 is incremental, so the loss
after ``k`` insertions is the loss of a ``k``-key attack.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ..core.greedy import greedy_poison
from ..core.metrics import BoxplotSummary, summarize
from ..data.keyset import Domain, KeySet
from ..data.synthetic import normal_keyset, uniform_keyset
from ..runtime import Cell, sweep
from .report import format_ratio, render_table, section

__all__ = [
    "SweepConfig",
    "CellResult",
    "SweepResult",
    "plan_cells",
    "run_trial_cell",
    "run_sweep",
    "fig5_config",
    "fig8_config",
]

Generator = Callable[[int, Domain, np.random.Generator], KeySet]

_GENERATORS: dict[str, Generator] = {
    "uniform": uniform_keyset,
    "normal": normal_keyset,
}


@dataclass(frozen=True)
class SweepConfig:
    """Grid of a regression-poisoning sweep.

    Attributes
    ----------
    distribution:
        ``"uniform"`` (Fig. 5) or ``"normal"`` (Fig. 8).
    key_counts:
        Numbers of legitimate keys per cell (paper: 100 .. 10,000,
        typical second-stage partition sizes).
    densities:
        ``n / m`` per cell; the key domain is derived as ``n/density``
        (the paper fixes keys+density and varies the domain).
    poisoning_percentages:
        X-axis of each boxplot (paper: up to 15%).
    n_trials:
        Independent keysets per cell (paper: 20).
    seed:
        Base seed; trial ``t`` of each cell derives its own stream.
    """

    distribution: str
    key_counts: tuple[int, ...]
    densities: tuple[float, ...]
    poisoning_percentages: tuple[float, ...]
    n_trials: int = 20
    seed: int = 7

    def __post_init__(self) -> None:
        if self.distribution not in _GENERATORS:
            raise ValueError(f"unknown distribution: {self.distribution!r}")
        if any(not 0 < d <= 1 for d in self.densities):
            raise ValueError("densities must be in (0, 1]")
        if any(not 0 < p <= 20 for p in self.poisoning_percentages):
            raise ValueError("percentages must be in (0, 20]")


@dataclass(frozen=True)
class CellResult:
    """All boxplots of one (keys, density) subplot."""

    n_keys: int
    density: float
    domain_size: int
    summaries: dict[float, BoxplotSummary]  # percentage -> summary


@dataclass(frozen=True)
class SweepResult:
    """Results for the whole grid."""

    config: SweepConfig
    cells: tuple[CellResult, ...]

    def format(self) -> str:
        """Paper-style tables, one block per subplot."""
        blocks = []
        for cell in self.cells:
            title = (f"[{self.config.distribution}] Keys: {cell.n_keys}  "
                     f"Key Domain: {cell.domain_size}  "
                     f"Density: {cell.density:.0%}")
            rows = []
            for pct in self.config.poisoning_percentages:
                s = cell.summaries[pct]
                rows.append([f"{pct:g}%", format_ratio(s.median),
                             format_ratio(s.q1), format_ratio(s.q3),
                             format_ratio(s.minimum), format_ratio(s.maximum)])
            table = render_table(
                ["poison%", "median", "q1", "q3", "min", "max"], rows)
            blocks.append(f"{section(title)}\n{table}")
        return "\n\n".join(blocks)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe summary (the CLI's ``--out`` payload)."""
        return {
            "distribution": self.config.distribution,
            "n_trials": self.config.n_trials,
            "seed": self.config.seed,
            "poisoning_percentages": list(
                self.config.poisoning_percentages),
            "cells": [
                {
                    "n_keys": cell.n_keys,
                    "density": cell.density,
                    "domain_size": cell.domain_size,
                    "summaries": {f"{pct:g}": asdict(cell.summaries[pct])
                                  for pct in
                                  self.config.poisoning_percentages},
                }
                for cell in self.cells
            ],
        }


def plan_cells(config: SweepConfig) -> list[Cell]:
    """Expand a sweep grid into one cell per (keys, density, trial).

    One greedy run at the largest percentage serves every smaller one
    (Algorithm 1 is incremental), so the trial — not the percentage —
    is the unit of parallel work.
    """
    max_pct = max(config.poisoning_percentages)
    return [
        Cell.make("regression-sweep",
                  distribution=config.distribution,
                  n_keys=n_keys,
                  density=density,
                  max_percentage=max_pct,
                  seed=config.seed,
                  trial=trial)
        for n_keys in config.key_counts
        for density in config.densities
        for trial in range(config.n_trials)
    ]


def run_trial_cell(cell: Cell) -> dict[str, Any]:
    """Run one trial: generate its keyset, mount the greedy attack.

    Seeding reproduces the pre-runtime serial path bit for bit: the
    stream is derived from ``[seed, n_keys, density*1000, trial]``
    exactly as the legacy loop did (pinned by the golden grid under
    ``tests/experiments/``).
    """
    p = cell.params_dict
    n_keys, density = p["n_keys"], p["density"]
    domain = Domain.of_size(int(round(n_keys / density)))
    rng = np.random.default_rng(
        [p["seed"], n_keys, int(density * 1000), p["trial"]])
    keyset = _GENERATORS[p["distribution"]](n_keys, domain, rng)
    budget = int(n_keys * p["max_percentage"] / 100.0)
    run = greedy_poison(keyset, budget)
    return {
        "domain_size": domain.size,
        "loss_before": run.loss_before,
        "losses": run.losses.tolist(),
        "n_injected": run.n_injected,
        "exhausted": run.exhausted,
    }


def _aggregate(config: SweepConfig,
               trial_results: list[dict[str, Any]]) -> SweepResult:
    """Fold per-trial results back into the per-subplot summaries."""
    cells = []
    cursor = 0
    for n_keys in config.key_counts:
        for density in config.densities:
            ratios: dict[float, list[float]] = {
                pct: [] for pct in config.poisoning_percentages}
            domain_size = 0
            for _ in range(config.n_trials):
                trial = trial_results[cursor]
                cursor += 1
                domain_size = trial["domain_size"]
                losses = trial["losses"]
                loss_before = trial["loss_before"]
                for pct in config.poisoning_percentages:
                    k = int(n_keys * pct / 100.0)
                    k = min(k, trial["n_injected"])
                    if k == 0 or loss_before == 0.0:
                        ratios[pct].append(1.0)
                    else:
                        ratios[pct].append(
                            float(losses[k - 1]) / loss_before)
            cells.append(CellResult(
                n_keys=n_keys,
                density=density,
                domain_size=domain_size,
                summaries={pct: summarize(vals)
                           for pct, vals in ratios.items()}))
    return SweepResult(config=config, cells=tuple(cells))


def run_sweep(config: SweepConfig, jobs: int = 1,
              checkpoint_dir: str | Path | None = None,
              resume: bool = False,
              executor: str = "process",
              progress=None) -> SweepResult:
    """Run the full grid and summarise ratio losses per cell.

    ``jobs`` fans trials out over workers (``executor`` picks process
    or thread pools); ``checkpoint_dir`` persists each completed trial
    so an interrupted sweep restarted with ``resume=True`` only
    computes what is missing.  Results are identical for every
    combination of those options.
    """
    outputs = sweep(run_trial_cell, plan_cells(config),
                    f"regression-sweep/{config.distribution}", config,
                    jobs=jobs, checkpoint_dir=checkpoint_dir,
                    resume=resume, executor=executor, progress=progress)
    return _aggregate(config, [output.result for output in outputs])


def fig5_config(profile: str = "quick") -> SweepConfig:
    """Figure 5 grid: uniform keys.

    The quick profile drops the 10,000-key row (the costly one); the
    full profile matches the paper's grid extent.
    """
    key_counts = (100, 1000) if profile == "quick" else (100, 1000, 10000)
    return SweepConfig(
        distribution="uniform",
        key_counts=key_counts,
        densities=(0.1, 0.4, 0.8),
        poisoning_percentages=(2.0, 5.0, 8.0, 11.0, 14.0),
        n_trials=20)


def fig8_config(profile: str = "quick") -> SweepConfig:
    """Figure 8 grid: the appendix's clipped-normal keys."""
    key_counts = (100, 1000) if profile == "quick" else (100, 1000, 10000)
    return SweepConfig(
        distribution="normal",
        key_counts=key_counts,
        densities=(0.1, 0.4, 0.8),
        poisoning_percentages=(2.0, 5.0, 8.0, 11.0, 14.0),
        n_trials=20)
