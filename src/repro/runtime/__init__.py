"""Parallel experiment runtime: cells, checkpoints, and the engine.

Every sweep in this reproduction is embarrassingly parallel: a grid of
(distribution x n x poisoning-rate x seed) cells whose results are
aggregated only at the very end.  This package factors that shape out
of the individual experiment modules:

* :mod:`repro.runtime.cell` — a :class:`Cell` is one hashable, seeded
  unit of work (an experiment name plus canonical JSON parameters).
* :mod:`repro.runtime.checkpoint` — a content-addressed on-disk store
  of completed cells, so interrupted sweeps resume instead of
  restarting.
* :mod:`repro.runtime.engine` — the :class:`SweepEngine` fans cells
  out over a process pool and hands the results back in plan order,
  which makes ``jobs=1`` and ``jobs=N`` bit-identical by construction.

Experiment modules keep their public ``run(config) -> result`` shape;
their ``jobs`` / ``checkpoint_dir`` / ``resume`` / ``executor`` /
``progress`` keywords go to :func:`sweep`, the one path from a plan
to its cell outputs.
"""

from .cell import Cell, stable_seed_words, stable_text_hash
from .checkpoint import CheckpointStore
from .engine import (
    EXECUTORS,
    CellOutput,
    SweepEngine,
    SweepProgress,
    SweepStats,
    sweep,
)

__all__ = [
    "Cell",
    "stable_text_hash",
    "stable_seed_words",
    "CheckpointStore",
    "CellOutput",
    "EXECUTORS",
    "SweepEngine",
    "SweepProgress",
    "SweepStats",
    "sweep",
]
