"""The workload serving grid end to end: engine, CLI, artifacts."""

import json

import numpy as np
import pytest

from repro.experiments import workload_serving
from repro.experiments.__main__ import main
from repro.runtime import CheckpointStore

TINY = workload_serving.WorkloadConfig(
    query_mixes=("uniform",),
    poison_schedules=("drip",),
    backends=("binary", "rmi"),
    n_base_keys=300,
    n_ops=400,
    tick_ops=100)


class TestPlan:
    def test_one_cell_per_grid_point(self):
        cells = workload_serving.plan_cells(
            workload_serving.quick_config())
        assert len(cells) == 2 * 2 * 3  # mixes x schedules x backends
        assert len({c.digest for c in cells}) == len(cells)

    def test_cells_carry_scalars_only(self):
        for cell in workload_serving.plan_cells(TINY):
            for value in cell.params_dict.values():
                assert isinstance(value, (int, float, str, bool))

    def test_full_config_covers_everything(self):
        config = workload_serving.full_config()
        assert len(workload_serving.plan_cells(config)) == 3 * 3 * 5


class TestRun:
    @pytest.fixture(scope="class")
    def result(self):
        return workload_serving.run(TINY)

    def test_rows_align_with_plan(self, result):
        assert len(result.rows) == 2
        assert [r.backend for r in result.rows] == ["binary", "rmi"]

    def test_jobs_and_executor_parity(self, result):
        for jobs, executor in ((2, "thread"), (2, "process")):
            again = workload_serving.run(TINY, jobs=jobs,
                                         executor=executor)
            assert again.to_dict() == result.to_dict(), (jobs, executor)

    def test_format_mentions_the_grid(self, result):
        out = result.format()
        assert "uniform queries, drip poison" in out
        assert "binary" in out and "rmi" in out

    def test_resume_reuses_cells(self, result, tmp_path):
        first = workload_serving.run(TINY, checkpoint_dir=tmp_path)
        engine_run = workload_serving.run(TINY, checkpoint_dir=tmp_path,
                                          resume=True)
        assert engine_run.to_dict() == first.to_dict() == result.to_dict()
        store = CheckpointStore(tmp_path)
        plan = workload_serving.plan_cells(TINY)
        done = store.completed_outputs(plan)
        assert len(done) == len(plan)
        # Every checkpointed cell carries its time series.
        for _, arrays in done.values():
            assert sorted(arrays) == [
                "tick_amplification", "tick_error_bound",
                "tick_mean_probes", "tick_n_keys", "tick_p50",
                "tick_p95", "tick_p99", "tick_retrains"]
            assert arrays["tick_p50"].size == 4  # 400 ops / 100

    def test_progress_callback_ticks(self):
        events = []
        workload_serving.run(TINY, progress=events.append)
        assert len(events) == 2
        assert events[-1].done == events[-1].total == 2


class TestSpecRoundTrip:
    def test_cell_params_name_a_canonical_spec(self):
        (cell,) = workload_serving.plan_cells(
            workload_serving.WorkloadConfig(
                query_mixes=("zipfian",), poison_schedules=("burst",),
                backends=("dynamic",)))
        spec = workload_serving.spec_for(cell.params_dict)
        assert spec.query_mix == "zipfian"
        assert spec.poison_schedule == "burst"
        assert spec.digest  # canonical + hashable


class TestWorkloadCli:
    @pytest.fixture(scope="class")
    def out_dir(self, tmp_path_factory, class_tiny_config):
        out = tmp_path_factory.mktemp("workload-out")
        assert main(["workload", "--quick", "--jobs", "2",
                     "--executor", "thread", "--out", str(out)]) == 0
        return out

    @pytest.fixture(scope="class")
    def class_tiny_config(self):
        original = workload_serving.quick_config
        workload_serving.quick_config = lambda: TINY
        yield TINY
        workload_serving.quick_config = original

    def test_result_schema(self, out_dir, capsys):
        capsys.readouterr()
        payload = json.loads(
            (out_dir / "workload" / "result.json").read_text())
        assert payload["schema"] == "repro.experiments.result/v2"
        assert payload["target"] == "workload"
        assert payload["executor"] == "thread"
        cells = payload["result"]["cells"]
        assert len(cells) == 2
        for cell in cells:
            assert cell["p50"] <= cell["p95"] <= cell["p99"]

    def test_artifact_manifest_round_trips(self, out_dir):
        from repro import io

        payload = json.loads(
            (out_dir / "workload" / "result.json").read_text())
        manifest = payload["artifacts"]
        assert len(manifest) == 2
        for entry in manifest:
            arrays = io.load_arrays(out_dir / "workload" / entry["file"])
            assert sorted(arrays) == entry["arrays"]
            assert arrays["tick_p99"].dtype == np.float64

    def test_resume_rewrites_nothing_and_matches(self, out_dir,
                                                 class_tiny_config,
                                                 capsys):
        cells_dir = out_dir / "workload" / "cells"
        before = {p.name: p.stat().st_mtime_ns
                  for p in cells_dir.iterdir()}
        assert main(["workload", "--jobs", "2", "--out", str(out_dir),
                     "--resume"]) == 0
        capsys.readouterr()
        after = {p.name: p.stat().st_mtime_ns
                 for p in cells_dir.iterdir()}
        assert after == before

    def test_quick_conflicts_with_full(self):
        with pytest.raises(SystemExit):
            main(["workload", "--quick", "--profile", "full"])
