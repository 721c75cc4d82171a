"""The sweep engine: fan cells out, checkpoint, aggregate in order.

Determinism contract
--------------------
``SweepEngine.run`` returns one JSON-safe result dict per cell, **in
plan order**, regardless of how many workers computed them or which
finished first.  Cell runners derive all randomness from the cell's
parameters alone.  Together those two rules make ``jobs=1``,
``jobs=N``, either executor backend, and any resumed combination
produce identical aggregates.

Execution model
---------------
* ``jobs=1`` runs cells inline — no pool, no pickling, the exact code
  path a debugger wants.
* ``jobs>1`` submits cells to a pool chosen by ``executor``:
  ``"process"`` (default) uses a ``ProcessPoolExecutor`` — the runner
  must be a module-level callable (picklable) and cells carry only
  plain scalars, so both ``fork`` and ``spawn`` start methods work.
  ``"thread"`` uses a ``ThreadPoolExecutor``, which skips pickling
  entirely and suits runners that spend their time in numpy (the GIL
  is released inside BLAS/ufunc kernels); the runner must then be
  thread-safe, which every cell runner in this repository is because
  cells share no mutable state.
* Checkpoints are written by the parent as results arrive — a single
  writer, so no file races — and a run killed between cells loses at
  most the cells in flight.  ``resume=True`` reloads every completed
  cell from the store before any work is scheduled.

Artifact capture
----------------
A runner may return a :class:`CellOutput` instead of a plain dict to
attach named numpy arrays (poison sets, per-model ratio vectors) to
the cell.  The engine persists them as a sibling ``.npz`` through the
checkpoint store and re-exposes them on resume, so aggregation code
can treat freshly computed and reloaded cells identically via
:meth:`SweepEngine.run_outputs`.

A worker exception cancels the remaining queue and re-raises in the
parent; cells that completed before the failure keep their
checkpoints, so the fix-and-resume loop is cheap.

Every sweep in the repository goes through :func:`sweep`, which opens
the checkpoint store, writes its manifest and runs the engine.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import (
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..observe.metrics import MetricsRegistry
from ..observe.metrics import active as observe_active
from .cell import Cell
from .checkpoint import CheckpointStore

__all__ = ["CellOutput", "SweepEngine", "SweepStats", "SweepProgress",
           "CellRunner", "EXECUTORS", "sweep"]

#: Pool backends selectable per engine (and per CLI ``--executor``).
EXECUTORS = {
    "process": ProcessPoolExecutor,
    "thread": ThreadPoolExecutor,
}


@dataclass(frozen=True)
class CellOutput:
    """What one cell produced: a JSON-safe summary plus array artifacts.

    ``result`` must hold JSON-safe values only (it is checkpointed as
    JSON and compared across executors); ``arrays`` may hold arbitrary
    named numpy arrays, persisted losslessly as ``.npz``.
    """

    result: dict[str, Any]
    arrays: dict[str, np.ndarray] = field(default_factory=dict)


CellRunner = Callable[[Cell], "dict[str, Any] | CellOutput"]


def _coerce(value: Mapping[str, Any] | CellOutput) -> CellOutput:
    """Accept the legacy plain-dict runner return value."""
    if isinstance(value, CellOutput):
        return value
    return CellOutput(result=dict(value))


@dataclass(frozen=True)
class SweepProgress:
    """One progress tick of a running sweep (opt-in callback payload).

    ``done`` counts plan cells whose results are settled so far
    (reused + computed; duplicate cells settle with their source, so
    the final tick's ``done`` equals ``total``).  ``eta_seconds`` is a
    plain elapsed-per-computed-cell extrapolation over the remaining
    unique work — ``None`` until the first cell of this run finishes,
    and therefore ``None`` (never ``inf`` or negative) on the restore
    tick of a resumed run whose remaining cells were all checkpoint
    hits.  Wall-clock only ever flows *out* through this hook; nothing
    it carries feeds back into results, so determinism is untouched.
    """

    total: int
    done: int
    reused: int
    computed: int
    cell: Cell | None          # the cell that just finished, if one
    seconds_elapsed: float
    eta_seconds: float | None


ProgressCallback = Callable[[SweepProgress], None]


@dataclass(frozen=True)
class SweepStats:
    """Accounting of one :meth:`SweepEngine.run` call."""

    total: int      # cells in the plan
    reused: int     # satisfied from the checkpoint store
    computed: int   # actually executed this run
    jobs: int       # workers used (1 = inline)
    # Backend that actually ran the cells: "process"/"thread" when a
    # pool was constructed, "inline" when the jobs==1 (or <=1 cell)
    # path executed without one.
    executor: str = "inline"


class SweepEngine:
    """Execute a plan of cells with a runner, optionally in parallel.

    Parameters
    ----------
    runner:
        Module-level callable ``Cell -> dict | CellOutput`` (JSON-safe
        result values only, so results checkpoint and aggregate
        identically either way).
    jobs:
        Workers; ``1`` (default) runs inline.
    checkpoint:
        Optional store; completed cells (and their array artifacts)
        are written to it as they finish.
    resume:
        Reuse completed cells from ``checkpoint`` instead of
        recomputing them.  Safe even across edited grids: cells are
        content-addressed, so only exact parameter matches are reused.
    executor:
        ``"process"`` (default) or ``"thread"``; ignored at ``jobs=1``.
        Results are identical for both backends by construction.
    progress:
        Optional callback receiving a :class:`SweepProgress` tick
        after the resume batch restores and after every computed cell
        — the hook long full-profile and workload runs use for an
        ETA readout.  Exceptions it raises propagate (it runs in the
        parent, never in a worker).
    """

    def __init__(self, runner: CellRunner, jobs: int = 1,
                 checkpoint: CheckpointStore | None = None,
                 resume: bool = False, executor: str = "process",
                 progress: "ProgressCallback | None" = None,
                 metrics: "MetricsRegistry | None" = None):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if resume and checkpoint is None:
            raise ValueError("resume=True requires a checkpoint store")
        if executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {sorted(EXECUTORS)}, "
                f"got {executor!r}")
        self._runner = runner
        self._jobs = jobs
        self._checkpoint = checkpoint
        self._resume = resume
        self._executor = executor
        self._progress = progress
        # Opt-in observability: the registry counts cells (like
        # SweepStats, never into results), so the determinism
        # contract above is untouched.
        self._metrics = (metrics if metrics is not None
                         else observe_active())
        self.last_stats: SweepStats | None = None

    # ------------------------------------------------------------------
    def run(self, cells: Sequence[Cell]) -> list[dict[str, Any]]:
        """Execute the plan; results align index-for-index with ``cells``."""
        return [output.result for output in self.run_outputs(cells)]

    def run_outputs(self, cells: Sequence[Cell]) -> list[CellOutput]:
        """Like :meth:`run`, but keep each cell's array artifacts.

        Reused cells get their arrays back from the checkpoint store,
        so callers see the same :class:`CellOutput` shape whether the
        cell was computed this run or resumed from disk.
        """
        outputs: dict[int, CellOutput] = {}
        started = time.monotonic()

        # Identical cells (same digest) are computed once and shared.
        first_index: dict[str, int] = {}
        duplicates: dict[int, int] = {}
        todo: list[int] = []
        for index, cell in enumerate(cells):
            if cell.digest in first_index:
                duplicates[index] = first_index[cell.digest]
                continue
            first_index[cell.digest] = index
            todo.append(index)

        computed_so_far = 0

        def tick(cell: Cell | None, remaining: int) -> None:
            """Emit one progress event (no-op without a callback)."""
            if self._progress is None:
                return
            settled = len(outputs) + sum(
                1 for source in duplicates.values() if source in outputs)
            elapsed = time.monotonic() - started
            # The ETA contract: a finite non-negative extrapolation or
            # None, never inf/NaN/negative.  Extrapolation needs at
            # least one cell computed *this run* — on a resume whose
            # remaining cells were all checkpoint hits there is
            # nothing to extrapolate from, so the ETA stays None.
            eta = None
            if computed_so_far > 0 and remaining >= 0:
                eta = remaining * elapsed / computed_so_far
                if not (math.isfinite(eta) and eta >= 0.0):
                    eta = None
            self._progress(SweepProgress(
                total=len(cells), done=settled, reused=reused,
                computed=computed_so_far, cell=cell,
                seconds_elapsed=elapsed, eta_seconds=eta))

        reused = 0
        if self._resume and self._checkpoint is not None:
            done = self._checkpoint.completed_outputs(
                cells[i] for i in todo)
            remaining = []
            for index in todo:
                if cells[index] in done:
                    result, arrays = done[cells[index]]
                    outputs[index] = CellOutput(result=result,
                                                arrays=arrays)
                    reused += 1
                else:
                    remaining.append(index)
            todo = remaining
            if reused:
                tick(cell=None, remaining=len(todo))

        if self._jobs == 1 or len(todo) <= 1:
            for position, index in enumerate(todo):
                outputs[index] = self._finish(
                    cells[index], _coerce(self._runner(cells[index])))
                computed_so_far += 1
                tick(cells[index], remaining=len(todo) - position - 1)
            used_jobs = 1
            used_executor = "inline"
        else:
            used_jobs = min(self._jobs, len(todo))
            used_executor = self._executor
            pool_cls = EXECUTORS[self._executor]
            with pool_cls(max_workers=used_jobs) as pool:
                futures = {pool.submit(self._runner, cells[index]): index
                           for index in todo}
                try:
                    # Checkpoint each cell the moment it completes, so
                    # a run killed mid-sweep keeps everything finished.
                    for future in as_completed(futures):
                        index = futures[future]
                        outputs[index] = self._finish(
                            cells[index], _coerce(future.result()))
                        computed_so_far += 1
                        tick(cells[index],
                             remaining=len(todo) - computed_so_far)
                except BaseException:
                    for f in futures:
                        f.cancel()
                    raise

        for index, source in duplicates.items():
            outputs[index] = outputs[source]

        self.last_stats = SweepStats(
            total=len(cells), reused=reused,
            computed=len(cells) - reused - len(duplicates),
            jobs=used_jobs, executor=used_executor)
        metrics = self._metrics
        if metrics is not None:
            metrics.inc("engine.cells_total", self.last_stats.total)
            metrics.inc("engine.cells_reused", self.last_stats.reused)
            metrics.inc("engine.cells_computed",
                        self.last_stats.computed)
        return [outputs[index] for index in range(len(cells))]

    # ------------------------------------------------------------------
    def _finish(self, cell: Cell, output: CellOutput) -> CellOutput:
        """Checkpoint one freshly computed cell (summary + artifacts)."""
        if self._checkpoint is not None:
            self._checkpoint.save_cell(cell, output.result,
                                       arrays=output.arrays or None)
        return output


def sweep(runner: CellRunner, plan: Sequence[Cell], experiment: str,
          config: Any = None, *, jobs: int = 1,
          checkpoint_dir: "str | Path | None" = None,
          resume: bool = False, executor: str = "process",
          progress: "ProgressCallback | None" = None,
          ) -> list[CellOutput]:
    """Run ``plan`` through a :class:`SweepEngine`; outputs in plan order.

    With ``checkpoint_dir``, the store there records a manifest naming
    ``experiment`` and, when given, the grid's ``config`` dataclass
    (as :func:`dataclasses.asdict`) before any cell runs.
    """
    store = None
    if checkpoint_dir is not None:
        store = CheckpointStore(checkpoint_dir)
        meta: dict[str, Any] = {"experiment": experiment}
        if config is not None:
            meta["config"] = asdict(config)
        store.write_manifest(meta)
    engine = SweepEngine(runner, jobs=jobs, checkpoint=store,
                         resume=resume, executor=executor,
                         progress=progress)
    return engine.run_outputs(plan)
