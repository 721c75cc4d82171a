"""Figure 7: RMI poisoning on the two real-world datasets.

Dataset A: unique Miami-Dade employee salaries (n = 5,300, density
3.71%); dataset B: OSM school latitudes (n = 302,973, density 25.25%).
Three RMI setups with second-stage model sizes 50 / 100 / 200 keys,
per-model threshold alpha = 3, poisoning percentages 5 / 10 / 20%.
Paper headlines: RMI ratio between 4x and 24x, individual second-stage
models up to ~70x; larger models allow more poisoning per model and so
larger ratios.

The datasets are the simulated stand-ins of
:mod:`repro.data.realworld` (DESIGN.md section 2).  The quick profile
scales the OSM dataset to 30,000 keys; the full profile uses the
published 302,973.

Runtime: the grid runs on :class:`repro.runtime.SweepEngine`, one cell
per (dataset, model size, poisoning percentage) — coarse enough that a
cell regenerates its keyset once, fine enough that the full-profile
OSM cells (302,973 keys each) spread across every worker.  Each cell
derives its keyset stream from a CRC-32 of the dataset name (the
scheme fig6 uses), so workers and resumed runs draw identical keys,
and each cell emits its poisoning set and per-model ratio vector as
``.npz`` artifacts through the checkpoint store.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

import numpy as np

from ..core.metrics import BoxplotSummary, summarize
from ..core.rmi_attack import poison_rmi
from ..core.threat_model import RMIAttackerCapability
from ..data.keyset import KeySet
from ..data.realworld import (
    OSM_N,
    SALARY_N,
    miami_salaries,
    osm_school_latitudes,
)
from ..io import json_float, parse_json_float
from ..runtime import Cell, CellOutput, stable_seed_words, sweep
from .report import format_ratio, render_table, section

__all__ = ["Fig7Config", "Fig7Cell", "Fig7Result", "DatasetProfile",
           "profile_dataset", "plan_cells", "run_realworld_cell", "run",
           "quick_config", "full_config"]

MIAMI, OSM = "miami-salaries", "osm-latitudes"


@dataclass(frozen=True)
class Fig7Config:
    """Parameters of the real-world RMI experiment."""

    osm_keys: int
    model_sizes: tuple[int, ...] = (50, 100, 200)
    poisoning_percentages: tuple[float, ...] = (5.0, 10.0, 20.0)
    alpha: float = 3.0
    max_exchanges_per_model: int = 2
    seed: int = 31
    include_osm: bool = True
    salary_keys: int = SALARY_N

    def datasets(self) -> tuple[tuple[str, int], ...]:
        """(name, key count) per dataset in the grid."""
        pairs = [(MIAMI, self.salary_keys)]
        if self.include_osm:
            pairs.append((OSM, self.osm_keys))
        return tuple(pairs)


@dataclass(frozen=True)
class Fig7Cell:
    """One boxplot of the figure."""

    dataset: str
    n_keys: int
    model_size: int
    n_models: int
    poisoning_percentage: float
    per_model: BoxplotSummary
    rmi_ratio: float


@dataclass(frozen=True)
class DatasetProfile:
    """Shape of one dataset's CDF (the second row of Fig. 7)."""

    dataset: str
    n_keys: int
    domain_size: int
    density: float
    percentile_keys: tuple[int, ...]  # keys at 10/25/50/75/90%

    def row(self) -> list[str]:
        """Formatted profile row."""
        p10, p25, p50, p75, p90 = self.percentile_keys
        return [self.dataset, f"{self.n_keys:,}",
                f"{self.domain_size:,}", f"{self.density:.2%}",
                f"{p10:,}", f"{p25:,}", f"{p50:,}", f"{p75:,}",
                f"{p90:,}"]


def profile_dataset(name: str, keyset: KeySet) -> DatasetProfile:
    """CDF summary of a dataset (stands in for the Fig. 7 CDF plots)."""
    percentiles = np.percentile(keyset.keys, [10, 25, 50, 75, 90])
    return DatasetProfile(
        dataset=name,
        n_keys=keyset.n,
        domain_size=keyset.m,
        density=keyset.density,
        percentile_keys=tuple(int(p) for p in percentiles))


@dataclass(frozen=True)
class Fig7Result:
    """All cells for both datasets."""

    config: Fig7Config
    cells: tuple[Fig7Cell, ...]
    profiles: tuple[DatasetProfile, ...] = ()

    def format(self) -> str:
        """One block per (dataset, model size), plus CDF profiles."""
        blocks = []
        if self.profiles:
            table = render_table(
                ["dataset", "keys", "domain", "density", "p10", "p25",
                 "p50", "p75", "p90"],
                [p.row() for p in self.profiles])
            blocks.append(f"{section('Fig. 7 CDF profiles')}\n{table}")
        seen: list[tuple[str, int]] = []
        for cell in self.cells:
            group = (cell.dataset, cell.model_size)
            if group not in seen:
                seen.append(group)
        for dataset, size in seen:
            sample = next(c for c in self.cells
                          if (c.dataset, c.model_size) == (dataset, size))
            title = (f"[{dataset}] Keys: {sample.n_keys}  "
                     f"Model Size: {size}  #Models: {sample.n_models}")
            rows = []
            for cell in self.cells:
                if (cell.dataset, cell.model_size) != (dataset, size):
                    continue
                rows.append([
                    f"{cell.poisoning_percentage:g}%",
                    format_ratio(cell.rmi_ratio),
                    format_ratio(cell.per_model.median),
                    format_ratio(cell.per_model.q3),
                    format_ratio(cell.per_model.maximum),
                ])
            table = render_table(
                ["poison%", "RMI ratio", "model med", "model q3",
                 "model max"], rows)
            blocks.append(f"{section(title)}\n{table}")
        return "\n\n".join(blocks)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe summary (the CLI's ``--out`` payload)."""
        return {
            "seed": self.config.seed,
            "profiles": [
                {
                    "dataset": p.dataset,
                    "n_keys": p.n_keys,
                    "domain_size": p.domain_size,
                    "density": p.density,
                    "percentile_keys": list(p.percentile_keys),
                }
                for p in self.profiles
            ],
            "cells": [
                {
                    "dataset": cell.dataset,
                    "n_keys": cell.n_keys,
                    "model_size": cell.model_size,
                    "n_models": cell.n_models,
                    "poisoning_percentage": cell.poisoning_percentage,
                    "per_model": asdict(cell.per_model),
                    "rmi_ratio": json_float(cell.rmi_ratio),
                }
                for cell in self.cells
            ],
        }


def quick_config() -> Fig7Config:
    """Scaled OSM dataset (30k keys); salaries at full published size."""
    return Fig7Config(osm_keys=30_000)


def full_config() -> Fig7Config:
    """Published dataset sizes (OSM n = 302,973)."""
    return Fig7Config(osm_keys=OSM_N)


def _make_keyset(dataset: str, n_keys: int, seed: int) -> KeySet:
    """The cell's keyset, regenerated deterministically per cell.

    Each dataset derives an independent stream from a CRC-32 of its
    name (via :func:`repro.runtime.stable_seed_words`); the legacy
    serial path instead threaded one generator through both datasets,
    which coupled the OSM draw to the salary draw and could never be
    split across workers.  The golden grid under
    ``tests/experiments/golden_fig7_grid.json`` pins this derivation.
    """
    rng = np.random.default_rng(stable_seed_words(seed, n_keys, dataset))
    if dataset == MIAMI:
        return miami_salaries(rng, n=n_keys)
    if dataset == OSM:
        return osm_school_latitudes(rng, n=n_keys)
    raise ValueError(f"unknown fig7 dataset: {dataset!r}")


def plan_cells(config: Fig7Config) -> list[Cell]:
    """One cell per (dataset, model size, poisoning percentage)."""
    return [
        Cell.make("fig7-rmi",
                  dataset=dataset,
                  n_keys=n_keys,
                  model_size=model_size,
                  poisoning_percentage=pct,
                  alpha=config.alpha,
                  max_exchanges_per_model=config.max_exchanges_per_model,
                  seed=config.seed)
        for dataset, n_keys in config.datasets()
        for model_size in config.model_sizes
        for pct in config.poisoning_percentages
    ]


def run_realworld_cell(cell: Cell) -> CellOutput:
    """Mount Algorithm 2 on one (dataset, model size, percentage).

    The JSON summary carries the scalars; the poisoning set and the
    full per-model ratio vector travel as array artifacts so the
    aggregation (and any external analysis) reads the exact arrays
    whether the cell was computed or resumed.
    """
    p = cell.params_dict
    keyset = _make_keyset(p["dataset"], p["n_keys"], p["seed"])
    n_models = max(p["n_keys"] // p["model_size"], 1)
    capability = RMIAttackerCapability(
        poisoning_percentage=p["poisoning_percentage"], alpha=p["alpha"])
    result = poison_rmi(
        keyset, n_models, capability,
        max_exchanges=p["max_exchanges_per_model"] * n_models)
    profile = profile_dataset(p["dataset"], keyset)
    return CellOutput(
        result={
            "n_models": n_models,
            "rmi_ratio": json_float(result.rmi_ratio_loss),
            # Identical for every cell of a dataset (profile depends
            # only on dataset/n_keys/seed); carried per cell so a
            # fully resumed run never regenerates a keyset.
            "profile": {
                "domain_size": profile.domain_size,
                "density": profile.density,
                "percentile_keys": list(profile.percentile_keys),
            },
        },
        arrays={
            "poison_keys": np.asarray(result.poison_keys,
                                      dtype=np.int64),
            "per_model_ratios": np.asarray(result.per_model_ratios,
                                           dtype=np.float64),
        })


def run(config: Fig7Config | None = None, jobs: int = 1,
        checkpoint_dir: str | Path | None = None,
        resume: bool = False, executor: str = "process",
        progress=None) -> Fig7Result:
    """Attack both (simulated) real-world datasets.

    ``jobs`` fans the grid out over workers (``executor`` picks the
    pool backend); ``checkpoint_dir``/``resume`` persist and reuse
    completed cells including their ``.npz`` artifacts.  Results are
    identical for every combination of those options.
    """
    config = config or quick_config()
    plan = plan_cells(config)
    outputs = sweep(run_realworld_cell, plan, "fig7-rmi", config,
                    jobs=jobs, checkpoint_dir=checkpoint_dir,
                    resume=resume, executor=executor, progress=progress)
    cells = []
    profile_by_dataset: dict[str, DatasetProfile] = {}
    for cell, output in zip(plan, outputs):
        p = cell.params_dict
        ratios = np.asarray(output.arrays["per_model_ratios"],
                            dtype=np.float64)
        finite = ratios[np.isfinite(ratios)]
        cells.append(Fig7Cell(
            dataset=p["dataset"],
            n_keys=p["n_keys"],
            model_size=p["model_size"],
            n_models=output.result["n_models"],
            poisoning_percentage=p["poisoning_percentage"],
            per_model=summarize(finite),
            rmi_ratio=parse_json_float(output.result["rmi_ratio"])))
        if p["dataset"] not in profile_by_dataset:
            stats = output.result["profile"]
            profile_by_dataset[p["dataset"]] = DatasetProfile(
                dataset=p["dataset"],
                n_keys=p["n_keys"],
                domain_size=stats["domain_size"],
                density=stats["density"],
                percentile_keys=tuple(stats["percentile_keys"]))
    profiles = tuple(profile_by_dataset[dataset]
                     for dataset, _ in config.datasets())
    return Fig7Result(config=config, cells=tuple(cells),
                      profiles=profiles)
