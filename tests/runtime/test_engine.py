"""Tests for the sweep engine: parity, checkpoints, resume, failures,
executor backends, and artifact capture.

Cell runners live at module level so worker processes can unpickle
them by name.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.runtime import (
    Cell,
    CellOutput,
    CheckpointStore,
    SweepEngine,
    sweep,
)


def square_cell(cell: Cell) -> dict:
    return {"value": cell.params_dict["x"] ** 2}


def artifact_cell(cell: Cell) -> CellOutput:
    """Returns a summary plus a derived array artifact."""
    x = cell.params_dict["x"]
    return CellOutput(
        result={"value": x ** 2},
        arrays={"trace": np.arange(x + 1, dtype=np.int64)})


def marker_cell(cell: Cell) -> dict:
    """Records each execution on disk, so reuse is observable."""
    from pathlib import Path

    p = cell.params_dict
    marker_dir = Path(p["marker_dir"])
    marker_dir.mkdir(exist_ok=True)
    stamp = marker_dir / f"ran-{p['x']}"
    count = int(stamp.read_text()) + 1 if stamp.exists() else 1
    stamp.write_text(str(count))
    return {"value": p["x"] ** 2}


def failing_cell(cell: Cell) -> dict:
    x = cell.params_dict["x"]
    if x == 13:
        raise RuntimeError("unlucky cell")
    return {"value": x ** 2}


def plan(n, **extra):
    return [Cell.make("engine-test", x=x, **extra) for x in range(n)]


class TestSerialExecution:
    def test_results_align_with_plan_order(self):
        engine = SweepEngine(square_cell, jobs=1)
        results = engine.run(plan(5))
        assert [r["value"] for r in results] == [0, 1, 4, 9, 16]

    def test_empty_plan(self):
        assert SweepEngine(square_cell).run([]) == []

    def test_stats(self):
        engine = SweepEngine(square_cell)
        engine.run(plan(4))
        stats = engine.last_stats
        assert (stats.total, stats.computed, stats.reused) == (4, 4, 0)

    def test_duplicate_cells_computed_once(self):
        cells = plan(3) + plan(3)
        engine = SweepEngine(square_cell)
        results = engine.run(cells)
        assert [r["value"] for r in results] == [0, 1, 4, 0, 1, 4]
        assert engine.last_stats.computed == 3

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            SweepEngine(square_cell, jobs=0)

    def test_resume_requires_store(self):
        with pytest.raises(ValueError):
            SweepEngine(square_cell, resume=True)


@dataclass(frozen=True)
class _Grid:
    n: int = 3
    xs: tuple[int, ...] = (0, 1, 2)


class TestSweep:
    """``sweep``: the one path every experiment takes to the engine."""

    def test_manifest_records_experiment_and_config(self, tmp_path):
        outputs = sweep(artifact_cell, plan(3), "squares", _Grid(),
                        checkpoint_dir=tmp_path)
        assert [o.result["value"] for o in outputs] == [0, 1, 4]
        assert outputs[2].arrays["trace"].tolist() == [0, 1, 2]
        manifest = CheckpointStore(tmp_path).read_manifest()
        assert manifest["experiment"] == "squares"
        assert manifest["config"] == {"n": 3, "xs": [0, 1, 2]}

    def test_without_config_the_manifest_names_the_experiment(
            self, tmp_path):
        sweep(square_cell, plan(2), "a2-trim", checkpoint_dir=tmp_path)
        manifest = CheckpointStore(tmp_path).read_manifest()
        assert "config" not in manifest
        assert manifest["experiment"] == "a2-trim"


class TestParallelExecution:
    def test_matches_serial_results(self):
        cells = plan(12)
        serial = SweepEngine(square_cell, jobs=1).run(cells)
        parallel = SweepEngine(square_cell, jobs=4).run(cells)
        assert parallel == serial

    def test_more_jobs_than_cells(self):
        results = SweepEngine(square_cell, jobs=16).run(plan(3))
        assert [r["value"] for r in results] == [0, 1, 4]

    def test_worker_exception_propagates(self):
        engine = SweepEngine(failing_cell, jobs=2)
        with pytest.raises(RuntimeError, match="unlucky"):
            engine.run(plan(20))


class TestCheckpointing:
    def test_cells_written_as_run_progresses(self, tmp_path):
        store = CheckpointStore(tmp_path)
        cells = plan(4)
        SweepEngine(square_cell, checkpoint=store).run(cells)
        for cell in cells:
            assert store.load_cell(cell) is not None

    def test_resume_skips_completed_cells(self, tmp_path):
        store = CheckpointStore(tmp_path)
        cells = plan(6, marker_dir=str(tmp_path / "markers"))

        first = SweepEngine(marker_cell, checkpoint=store).run(cells)
        resumed = SweepEngine(marker_cell, checkpoint=store,
                              resume=True).run(cells)
        assert resumed == first
        markers = tmp_path / "markers"
        # Every cell executed exactly once across both runs.
        for x in range(6):
            assert (markers / f"ran-{x}").read_text() == "1"
        engine = SweepEngine(marker_cell, checkpoint=store, resume=True)
        engine.run(cells)
        assert (engine.last_stats.reused, engine.last_stats.computed) == (6, 0)

    def test_partial_checkpoints_fill_in_the_rest(self, tmp_path):
        store = CheckpointStore(tmp_path)
        cells = plan(4)
        # Simulate an interrupted run: two cells already done.
        store.save_cell(cells[0], {"value": 0})
        store.save_cell(cells[2], {"value": 4})
        engine = SweepEngine(square_cell, checkpoint=store, resume=True)
        results = engine.run(cells)
        assert [r["value"] for r in results] == [0, 1, 4, 9]
        assert engine.last_stats.reused == 2
        assert engine.last_stats.computed == 2

    def test_failure_keeps_finished_checkpoints(self, tmp_path):
        """Fail mid-sweep, then resume past the repaired cell."""
        store = CheckpointStore(tmp_path)
        cells = [Cell.make("engine-test", x=x) for x in (1, 2, 13, 4)]
        engine = SweepEngine(failing_cell, jobs=1, checkpoint=store)
        with pytest.raises(RuntimeError):
            engine.run(cells)
        # Cells before the failure were checkpointed.
        assert store.load_cell(cells[0]) == {"value": 1}
        assert store.load_cell(cells[1]) == {"value": 4}
        # A resumed run with a fixed runner completes without
        # recomputing them (square_cell would give the same values).
        resumed = SweepEngine(square_cell, checkpoint=store,
                              resume=True).run(cells)
        assert [r["value"] for r in resumed] == [1, 4, 169, 16]

    def test_parallel_resume_parity(self, tmp_path):
        store = CheckpointStore(tmp_path)
        cells = plan(10)
        serial = SweepEngine(square_cell).run(cells)
        store.save_cell(cells[3], {"value": 9})
        parallel = SweepEngine(square_cell, jobs=4, checkpoint=store,
                               resume=True).run(cells)
        assert parallel == serial


class TestThreadExecutor:
    def test_invalid_executor_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            SweepEngine(square_cell, executor="fiber")

    def test_matches_process_and_serial_results(self):
        cells = plan(12)
        serial = SweepEngine(square_cell, jobs=1).run(cells)
        process = SweepEngine(square_cell, jobs=4,
                              executor="process").run(cells)
        thread = SweepEngine(square_cell, jobs=4,
                             executor="thread").run(cells)
        assert thread == serial == process

    def test_stats_record_backend(self):
        engine = SweepEngine(square_cell, jobs=4, executor="thread")
        engine.run(plan(8))
        assert engine.last_stats.executor == "thread"
        assert engine.last_stats.jobs == 4

    def test_stats_report_inline_when_no_pool_ran(self):
        """A single-cell plan short-circuits past the pool; the stats
        must say so instead of naming a backend that never existed."""
        engine = SweepEngine(square_cell, jobs=4, executor="thread")
        engine.run(plan(1))
        assert engine.last_stats.executor == "inline"
        assert engine.last_stats.jobs == 1
        serial = SweepEngine(square_cell, jobs=1)
        serial.run(plan(5))
        assert serial.last_stats.executor == "inline"

    def test_checkpointed_resume_across_backends(self, tmp_path):
        """Cells checkpointed by a thread run resume under a process
        run (and vice versa) — the store is backend-agnostic."""
        store = CheckpointStore(tmp_path)
        cells = plan(8)
        first = SweepEngine(square_cell, jobs=2, executor="thread",
                            checkpoint=store).run(cells)
        engine = SweepEngine(square_cell, jobs=2, executor="process",
                             checkpoint=store, resume=True)
        assert engine.run(cells) == first
        assert engine.last_stats.reused == 8

    def test_worker_exception_propagates(self):
        engine = SweepEngine(failing_cell, jobs=2, executor="thread")
        with pytest.raises(RuntimeError, match="unlucky"):
            engine.run(plan(20))


class TestArtifacts:
    def test_run_outputs_carries_arrays_inline(self):
        outputs = SweepEngine(artifact_cell).run_outputs(plan(3))
        assert [o.result["value"] for o in outputs] == [0, 1, 4]
        for x, output in enumerate(outputs):
            assert np.array_equal(output.arrays["trace"],
                                  np.arange(x + 1))

    def test_plain_dict_runners_have_empty_arrays(self):
        outputs = SweepEngine(square_cell).run_outputs(plan(3))
        assert all(o.arrays == {} for o in outputs)

    @pytest.mark.parametrize("executor", ["process", "thread"])
    def test_arrays_checkpoint_and_cross_pool(self, tmp_path, executor):
        store = CheckpointStore(tmp_path)
        cells = plan(6)
        outputs = SweepEngine(artifact_cell, jobs=3, executor=executor,
                              checkpoint=store).run_outputs(cells)
        for cell, output in zip(cells, outputs):
            stored = store.load_arrays(cell)
            assert np.array_equal(stored["trace"],
                                  output.arrays["trace"])

    def test_resume_re_exposes_arrays(self, tmp_path):
        """A resumed run sees the same CellOutput shape as the run
        that computed the cells — arrays come back from disk."""
        store = CheckpointStore(tmp_path)
        cells = plan(5)
        first = SweepEngine(artifact_cell,
                            checkpoint=store).run_outputs(cells)
        engine = SweepEngine(artifact_cell, checkpoint=store,
                             resume=True)
        resumed = engine.run_outputs(cells)
        assert engine.last_stats.reused == 5
        for a, b in zip(first, resumed):
            assert a.result == b.result
            assert np.array_equal(a.arrays["trace"], b.arrays["trace"])

    def test_duplicate_cells_share_arrays(self):
        cells = plan(3) + plan(3)
        engine = SweepEngine(artifact_cell)
        outputs = engine.run_outputs(cells)
        assert engine.last_stats.computed == 3
        for x in range(3):
            assert outputs[x].arrays is outputs[x + 3].arrays

    def test_corrupt_artifact_recomputed_on_resume(self, tmp_path):
        """The defensive-load contract end to end: a truncated .npz
        makes only that cell recompute; the run still succeeds."""
        store = CheckpointStore(tmp_path)
        cells = plan(6)
        SweepEngine(artifact_cell, checkpoint=store).run(cells)
        store.arrays_path(cells[2]).write_bytes(b"PK\x03\x04trunc")
        engine = SweepEngine(artifact_cell, checkpoint=store,
                             resume=True)
        outputs = engine.run_outputs(cells)
        assert engine.last_stats.reused == 5
        assert engine.last_stats.computed == 1
        assert np.array_equal(outputs[2].arrays["trace"], np.arange(3))
        # The recompute healed the store.
        assert store.load_cell(cells[2]) == {"value": 4}

    def test_half_written_cell_json_recomputed_on_resume(
            self, tmp_path):
        store = CheckpointStore(tmp_path)
        cells = plan(4)
        SweepEngine(artifact_cell, checkpoint=store).run(cells)
        path = store.cell_path(cells[1])
        path.write_text(path.read_text()[:20])
        engine = SweepEngine(artifact_cell, checkpoint=store,
                             resume=True)
        results = engine.run(cells)
        assert [r["value"] for r in results] == [0, 1, 4, 9]
        assert engine.last_stats.computed == 1


class TestProgressReporter:
    def test_tick_per_computed_cell(self):
        events = []
        engine = SweepEngine(square_cell, progress=events.append)
        engine.run(plan(4))
        assert len(events) == 4
        assert [e.done for e in events] == [1, 2, 3, 4]
        assert [e.computed for e in events] == [1, 2, 3, 4]
        assert all(e.total == 4 and e.reused == 0 for e in events)
        assert events[-1].done == events[-1].total
        assert [e.cell.params_dict["x"] for e in events] == [0, 1, 2, 3]

    def test_eta_appears_and_shrinks_to_zero(self):
        events = []
        engine = SweepEngine(square_cell, progress=events.append)
        engine.run(plan(3))
        assert all(e.eta_seconds is not None for e in events)
        assert events[-1].eta_seconds == 0.0
        assert all(e.seconds_elapsed >= 0.0 for e in events)

    def test_resume_emits_one_restore_tick(self, tmp_path):
        store = CheckpointStore(tmp_path)
        SweepEngine(square_cell, checkpoint=store).run(plan(2))
        events = []
        engine = SweepEngine(square_cell, checkpoint=store, resume=True,
                             progress=events.append)
        engine.run(plan(4))
        # One restore tick (cell=None, 2 reused) + 2 computed ticks.
        assert len(events) == 3
        restore = events[0]
        assert restore.cell is None
        assert restore.reused == 2 and restore.done == 2
        assert restore.eta_seconds is None  # nothing computed yet
        assert [e.done for e in events[1:]] == [3, 4]

    def test_parallel_ticks_cover_every_cell(self):
        events = []
        engine = SweepEngine(square_cell, jobs=2, executor="thread",
                             progress=events.append)
        engine.run(plan(6))
        assert len(events) == 6
        assert [e.done for e in events] == [1, 2, 3, 4, 5, 6]
        seen = {e.cell.params_dict["x"] for e in events}
        assert seen == set(range(6))

    def test_resumed_full_hit_run_keeps_eta_none_at_jobs_2(
            self, tmp_path):
        """ISSUE 4 satellite: when every remaining cell of a resumed
        run is a checkpoint hit, nothing was computed this run, so
        the ETA must stay None — never ``inf`` or negative."""
        store = CheckpointStore(tmp_path)
        SweepEngine(square_cell, checkpoint=store).run(plan(4))
        events = []
        engine = SweepEngine(square_cell, jobs=2, executor="thread",
                             checkpoint=store, resume=True,
                             progress=events.append)
        engine.run(plan(4))
        assert engine.last_stats.computed == 0
        assert engine.last_stats.reused == 4
        (restore,) = events  # the single restore tick
        assert restore.done == restore.total == 4
        assert restore.eta_seconds is None

    def test_eta_is_finite_non_negative_or_none_on_partial_resume(
            self, tmp_path):
        store = CheckpointStore(tmp_path)
        SweepEngine(square_cell, checkpoint=store).run(plan(3))
        events = []
        SweepEngine(square_cell, jobs=2, executor="thread",
                    checkpoint=store, resume=True,
                    progress=events.append).run(plan(6))
        assert events[0].eta_seconds is None  # restore tick first
        for event in events[1:]:
            assert event.eta_seconds is not None
            assert event.eta_seconds >= 0.0
            assert event.eta_seconds != float("inf")
        assert events[-1].eta_seconds == 0.0

    def test_duplicates_settle_with_their_source(self):
        events = []
        engine = SweepEngine(square_cell, progress=events.append)
        cells = plan(2) + plan(2)  # each cell duplicated once
        engine.run(cells)
        assert len(events) == 2
        assert [e.done for e in events] == [2, 4]

    def test_no_callback_means_no_overhead_path(self):
        engine = SweepEngine(square_cell)
        assert engine.run(plan(2))  # simply must not fail
