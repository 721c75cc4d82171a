"""Tests for the ``python -m repro.experiments`` entry point."""

import json

import numpy as np
import pytest

from repro.experiments.__main__ import RESULT_SCHEMA, _TARGETS, main


class TestTargetRegistry:
    def test_every_figure_present(self):
        for name in ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
                     "fig8", "workload"):
            assert name in _TARGETS

    def test_every_ablation_present(self):
        expected = {"a1-bruteforce", "a2-trim", "a3-cost", "a4-alpha",
                    "a5-allocation", "a6-deletion", "a7-polynomial",
                    "a8-blackbox", "a9-updates", "a10-ridge",
                    "a11-adversaries"}
        assert expected <= set(_TARGETS)


class TestMain:
    def test_runs_cheap_target(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "compound effect" in out

    def test_runs_fig3(self, capsys):
        assert main(["fig3"]) == 0
        assert "convex" in capsys.readouterr().out

    def test_profile_flag_accepted(self, capsys):
        assert main(["fig4", "--profile", "quick"]) == 0
        assert "greedy" in capsys.readouterr().out

    def test_unknown_target_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig2", "--profile", "huge"])

    def test_invalid_jobs_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig2", "--jobs", "0"])

    def test_resume_requires_out(self):
        with pytest.raises(SystemExit):
            main(["fig5", "--resume"])

    def test_unknown_executor_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig5", "--executor", "fiber"])

    @pytest.mark.parametrize("flags", [
        ["--transport", "process"],
        ["--transport", "process", "--replicas", "3"],
    ], ids=["transport", "replicas"])
    @pytest.mark.parametrize("target", ["fig2", "fig5", "a2-trim"])
    def test_serving_flags_rejected_off_cluster(self, target, flags,
                                                capsys):
        """Only cluster and ablate serve shards; elsewhere a
        non-default --transport/--replicas is a parser error that
        names the flag instead of being silently ignored."""
        with pytest.raises(SystemExit):
            main([target, *flags])
        assert flags[-2] in capsys.readouterr().err


def _validate_summary_schema(payload: dict) -> None:
    """The contract external plotting tools rely on (result/v2)."""
    assert payload["schema"] == RESULT_SCHEMA
    assert isinstance(payload["target"], str)
    assert payload["profile"] in ("quick", "full")
    assert isinstance(payload["jobs"], int) and payload["jobs"] >= 1
    assert payload["executor"] in ("process", "thread")
    assert isinstance(payload["result"], dict)
    assert isinstance(payload["artifacts"], list)
    for entry in payload["artifacts"]:
        assert set(entry) == {"file", "arrays"}
        assert entry["file"].endswith(".npz")
        assert all(isinstance(name, str) for name in entry["arrays"])


class TestCliSmoke:
    """End-to-end: fig5 quick through the parallel runtime."""

    @pytest.fixture(scope="class")
    def out_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("cli-out")
        assert main(["fig5", "--profile", "quick", "--jobs", "2",
                     "--out", str(out)]) == 0
        return out

    def test_prints_paper_tables(self, out_dir, capsys):
        # Output was printed during the fixture run of main(); re-run a
        # cheap serial equivalent to assert on stdout shape instead.
        assert main(["fig5", "--profile", "quick", "--jobs", "2",
                     "--out", str(out_dir), "--resume"]) == 0
        out = capsys.readouterr().out
        assert "[uniform] Keys: 100" in out
        assert "poison%" in out

    def test_result_json_schema(self, out_dir):
        payload = json.loads((out_dir / "fig5" / "result.json").read_text())
        _validate_summary_schema(payload)
        assert payload["target"] == "fig5"
        result = payload["result"]
        assert result["distribution"] == "uniform"
        assert len(result["cells"]) == 6  # 2 key counts x 3 densities
        for cell in result["cells"]:
            assert set(cell) == {"n_keys", "density", "domain_size",
                                 "summaries"}
            for summary in cell["summaries"].values():
                assert set(summary) == {"minimum", "q1", "median", "q3",
                                        "maximum", "mean", "count"}
                assert summary["count"] == result["n_trials"]
                assert summary["minimum"] <= summary["median"]
                assert summary["median"] <= summary["maximum"]

    def test_checkpoints_and_manifest_emitted(self, out_dir):
        cells_dir = out_dir / "fig5" / "cells"
        # 2 key counts x 3 densities x 20 trials
        assert len(list(cells_dir.glob("*.json"))) == 120
        manifest = json.loads(
            (out_dir / "fig5" / "manifest.json").read_text())
        assert manifest["experiment"] == "regression-sweep/uniform"

    def test_resume_reuses_cells(self, out_dir, capsys):
        """A second invocation with --resume recomputes nothing and
        reproduces the identical table."""
        assert main(["fig5", "--profile", "quick", "--jobs", "2",
                     "--out", str(out_dir)]) == 0
        fresh = capsys.readouterr().out
        before = {p.name: p.stat().st_mtime_ns
                  for p in (out_dir / "fig5" / "cells").glob("*.json")}
        assert main(["fig5", "--profile", "quick", "--jobs", "2",
                     "--out", str(out_dir), "--resume"]) == 0
        resumed = capsys.readouterr().out
        after = {p.name: p.stat().st_mtime_ns
                 for p in (out_dir / "fig5" / "cells").glob("*.json")}
        assert resumed == fresh
        assert after == before  # no cell file rewritten

    def test_ablation_target_with_out(self, tmp_path, capsys):
        assert main(["a6-deletion", "--jobs", "2",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        payload = json.loads(
            (tmp_path / "a6-deletion" / "result.json").read_text())
        _validate_summary_schema(payload)
        assert len(payload["result"]["rows"]) == 3

    def test_engine_backed_a7_emits_payload(self, tmp_path, capsys):
        """a7-a10 joined the engine-backed targets (ROADMAP leftover):
        --out must produce a result.json like any sweep target."""
        assert main(["a7-polynomial", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        payload = json.loads(
            (tmp_path / "a7-polynomial" / "result.json").read_text())
        _validate_summary_schema(payload)
        assert len(payload["result"]["rows"]) == 4  # default degrees
        cells = tmp_path / "a7-polynomial" / "cells"
        assert len(list(cells.glob("*.json"))) == 4

    def test_thread_executor_matches_process(self, out_dir, tmp_path,
                                             capsys):
        """fig5 quick through threads reproduces the process-pool
        result summary value for value."""
        assert main(["fig5", "--profile", "quick", "--jobs", "2",
                     "--executor", "thread",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        thread = json.loads(
            (tmp_path / "fig5" / "result.json").read_text())
        process = json.loads(
            (out_dir / "fig5" / "result.json").read_text())
        _validate_summary_schema(thread)
        assert thread["executor"] == "thread"
        assert thread["result"] == process["result"]


class TestFig7Cli:
    """fig7 end to end through the CLI, on a tiny grid.

    The quick profile (30k OSM keys) is CI-smoke material; here the
    config is shrunk so the full artifact story — capture, manifest,
    resume, round-trip — runs inside the tier-1 budget.
    """

    TINY = dict(osm_keys=400, salary_keys=300, model_sizes=(50,),
                poisoning_percentages=(5.0, 10.0),
                max_exchanges_per_model=1)

    @pytest.fixture(scope="class")
    def out_dir(self, tmp_path_factory):
        from repro.experiments import fig7_rmi_realworld

        config = fig7_rmi_realworld.Fig7Config(**self.TINY)
        original = fig7_rmi_realworld.quick_config
        fig7_rmi_realworld.quick_config = lambda: config
        try:
            out = tmp_path_factory.mktemp("fig7-out")
            assert main(["fig7", "--jobs", "2", "--executor", "thread",
                         "--out", str(out)]) == 0
            assert main(["fig7", "--jobs", "2", "--out", str(out),
                         "--resume"]) == 0
            yield out
        finally:
            fig7_rmi_realworld.quick_config = original

    def test_result_schema_and_cells(self, out_dir):
        payload = json.loads(
            (out_dir / "fig7" / "result.json").read_text())
        _validate_summary_schema(payload)
        assert payload["target"] == "fig7"
        cells = payload["result"]["cells"]
        assert len(cells) == 4  # 2 datasets x 1 size x 2 pcts
        assert {c["dataset"] for c in cells} == {"miami-salaries",
                                                 "osm-latitudes"}
        assert len(payload["result"]["profiles"]) == 2

    def test_artifact_manifest_round_trips(self, out_dir):
        """Every manifest entry loads via io.load_arrays and carries
        the promised arrays — the acceptance criterion."""
        from repro import io

        payload = json.loads(
            (out_dir / "fig7" / "result.json").read_text())
        manifest = payload["artifacts"]
        assert len(manifest) == 4  # one .npz per cell
        for entry in manifest:
            arrays = io.load_arrays(out_dir / "fig7" / entry["file"])
            assert sorted(arrays) == entry["arrays"]
            assert entry["arrays"] == ["per_model_ratios",
                                       "poison_keys"]
            assert arrays["poison_keys"].dtype == np.int64
            assert arrays["poison_keys"].size > 0

    def test_manifest_scoped_to_current_run(self, out_dir, capsys):
        """A different grid sharing the checkpoint dir must not leak
        its (content-addressed, intentionally retained) artifacts
        into this run's manifest."""
        from repro.experiments import fig7_rmi_realworld

        other = fig7_rmi_realworld.Fig7Config(
            **{**self.TINY, "osm_keys": 500})
        original = fig7_rmi_realworld.quick_config
        fig7_rmi_realworld.quick_config = lambda: other
        try:
            assert main(["fig7", "--jobs", "2",
                         "--out", str(out_dir)]) == 0
        finally:
            fig7_rmi_realworld.quick_config = original
        capsys.readouterr()
        payload = json.loads(
            (out_dir / "fig7" / "result.json").read_text())
        # Both grids' cells live on disk, but only the second grid's
        # 4 cells are indexed.
        on_disk = len(list((out_dir / "fig7" / "cells").glob("*.npz")))
        assert on_disk > 4
        assert len(payload["artifacts"]) == 4
        plan = fig7_rmi_realworld.plan_cells(other)
        expected = {f"cells/{c.experiment}-{c.digest}.npz"
                    for c in plan}
        assert {e["file"] for e in payload["artifacts"]} == expected

    def test_resume_rewrote_nothing(self, out_dir, capsys):
        before = {p.name: p.stat().st_mtime_ns
                  for p in (out_dir / "fig7" / "cells").iterdir()}
        assert main(["fig7", "--jobs", "2", "--out", str(out_dir),
                     "--resume"]) == 0
        capsys.readouterr()
        after = {p.name: p.stat().st_mtime_ns
                 for p in (out_dir / "fig7" / "cells").iterdir()}
        assert after == before
