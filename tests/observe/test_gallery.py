"""Gallery rendering: manifest-order invariance, stable outputs."""

import json

import numpy as np
import pytest

from repro import io
from repro.observe import gallery


def _closedloop_arrays(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    n = 8
    return {
        "tick_amplification": 1.0 + rng.random(n),
        "tick_injected": rng.integers(0, 50, n).astype(np.float64),
        "tick_keep_fraction": np.linspace(1.0, 0.8, n),
        "tick_rebuild_threshold": np.full(n, 1.6),
    }


def _cluster_arrays(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    n = 6
    splits = np.full((n, 3), np.nan)
    splits[:, 0] = np.linspace(100.0, 140.0, n)
    splits[:, 1] = np.linspace(220.0, 200.0, n)
    return {
        "tick_p50": 1.0 + rng.random(n),
        "tick_p95": 2.0 + rng.random(n),
        "tick_p99": 3.0 + rng.random(n),
        "tick_injected": rng.integers(0, 20, n).astype(np.float64),
        "tick_migrated": np.zeros(n),
        "tick_retrains": rng.integers(0, 3, n).astype(np.float64),
        "tick_imbalance": 1.0 + rng.random(n),
        "tick_degraded": np.zeros(n),
        "tick_flagged": np.zeros(n),
        "tick_latency_ms": rng.random(n) * 5.0,
        "shard_loads": rng.random((n, 4)) * 100,
        "tenant_p95": 2.0 + rng.random((n, 3)),
        "shard_split_points": splits,
    }


def _write_target(out_dir, target: str, cells: dict) -> None:
    """A synthetic ``<out>/<target>/`` tree with a result manifest."""
    target_dir = out_dir / target
    (target_dir / "cells").mkdir(parents=True)
    manifest = []
    for stem, arrays in cells.items():
        path = target_dir / "cells" / f"{stem}.npz"
        io.save_arrays(path, **arrays)
        manifest.append({"file": f"cells/{stem}.npz",
                         "arrays": sorted(arrays)})
    io.save_json({
        "schema": "repro.experiments.result/v2",
        "target": target,
        "profile": "quick",
        "jobs": 1,
        "executor": "process",
        "result": {},
        "artifacts": manifest,
    }, target_dir / "result.json")


def _gallery_bytes(out_dir, target: str) -> dict:
    written = gallery.render_result_gallery(out_dir / target)
    assert written, "gallery rendered nothing"
    return {p.name: p.read_bytes()
            for p in (out_dir / target / "figures").iterdir()}


class TestManifestOrderInvariance:
    @pytest.mark.parametrize("target,builder", [
        ("closedloop", _closedloop_arrays),
        ("cluster", _cluster_arrays)])
    def test_shuffled_manifest_renders_identically(self, tmp_path,
                                                   target, builder):
        cells = {f"{target}-serving-{stem}": builder(seed)
                 for seed, stem in enumerate(
                     ("aa11", "bb22", "cc33"))}
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        _write_target(a_dir, target, cells)
        _write_target(b_dir, target, cells)
        # Reverse b's manifest on disk: same artifacts, new order.
        result = b_dir / target / "result.json"
        payload = json.loads(result.read_text())
        payload["artifacts"] = payload["artifacts"][::-1]
        result.write_text(json.dumps(payload))
        assert _gallery_bytes(a_dir, target) \
            == _gallery_bytes(b_dir, target)

    def test_rerender_is_byte_identical(self, tmp_path):
        _write_target(tmp_path, "closedloop",
                      {"cell-1234": _closedloop_arrays(7)})
        first = _gallery_bytes(tmp_path, "closedloop")
        assert _gallery_bytes(tmp_path, "closedloop") == first


class TestGalleryContents:
    def test_cluster_gallery_has_all_figure_kinds(self, tmp_path):
        _write_target(tmp_path, "cluster",
                      {"cell-abcd": _cluster_arrays(3)})
        names = set(_gallery_bytes(tmp_path, "cluster"))
        assert names == {
            "GALLERY.md",
            "cell-abcd.timeline.svg", "cell-abcd.transport.svg",
            "cell-abcd.shards.svg", "cell-abcd.tenants.svg",
            "cell-abcd.drift.svg"}

    def test_gallery_index_links_every_figure(self, tmp_path):
        _write_target(tmp_path, "cluster",
                      {"cell-abcd": _cluster_arrays(3)})
        files = _gallery_bytes(tmp_path, "cluster")
        index = files["GALLERY.md"].decode()
        for name in files:
            if name != "GALLERY.md":
                assert f"[{name}]({name})" in index

    def test_ablate_target_renders_importance_bars(self, tmp_path):
        metrics = {"amplification": 1.0, "p95": 10.0,
                   "slo_violations": "nan"}
        section = {"scenarios": [{
            "scenario": "drip",
            "baseline": dict(metrics),
            "floor": {**metrics, "amplification": 1.2},
            "components": [
                {"component": "deferral", "rank": 1, "score": 0.2,
                 "amplification_delta": 0.2, "p95_delta": 2.0,
                 "slo_delta": "nan", "harmful": False},
                {"component": "trim", "rank": 2, "score": "nan",
                 "amplification_delta": "nan", "p95_delta": "nan",
                 "slo_delta": "nan", "harmful": False},
            ],
        }]}
        target_dir = tmp_path / "ablate"
        target_dir.mkdir()
        io.save_json({"schema": "repro.experiments.result/v2",
                      "target": "ablate", "profile": "quick",
                      "jobs": 1, "executor": "thread",
                      "result": {"ablation": section},
                      "artifacts": []},
                     target_dir / "result.json")
        first = _gallery_bytes(tmp_path, "ablate")
        assert set(first) == {"GALLERY.md",
                              "ablation-drip.importance.svg"}
        svg = first["ablation-drip.importance.svg"].decode()
        assert "1. deferral" in svg
        assert "2. trim" in svg
        index = first["GALLERY.md"].decode()
        assert "[ablation-drip.importance.svg]" \
               "(ablation-drip.importance.svg)" in index
        # Re-rendering is byte-identical — the CI diff -r gate.
        assert _gallery_bytes(tmp_path, "ablate") == first

    def test_unknown_target_renders_nothing(self, tmp_path):
        target_dir = tmp_path / "fig5"
        target_dir.mkdir()
        io.save_json({"schema": "repro.experiments.result/v2",
                      "target": "fig5", "profile": "quick",
                      "jobs": 1, "executor": "process",
                      "result": {}, "artifacts": []},
                     target_dir / "result.json")
        assert gallery.render_result_gallery(target_dir) == []
        assert not (target_dir / "figures").exists()

    def test_contract_violation_is_a_named_error(self, tmp_path):
        from repro.contracts import ContractViolation
        target_dir = tmp_path / "fig5"
        target_dir.mkdir()
        io.save_json({"target": "fig5", "artifacts": []},
                     target_dir / "result.json")
        with pytest.raises(ContractViolation,
                           match="fig5/result.json: .*schema"):
            gallery.render_result_gallery(target_dir)
        # A torn write: the document ends mid-key.
        (target_dir / "result.json").write_text(
            '{"schema": "repro.experiments.result/v2", "tar')
        with pytest.raises(ContractViolation,
                           match="fig5/result.json: .*line 1 column"):
            gallery.render_result_gallery(target_dir)

    def test_render_out_tree_walks_every_target(self, tmp_path):
        _write_target(tmp_path, "closedloop",
                      {"cell-1": _closedloop_arrays(1)})
        _write_target(tmp_path, "cluster",
                      {"cell-2": _cluster_arrays(2)})
        written = gallery.render_out_tree(
            tmp_path, store_dir=tmp_path / "no-store")
        names = {p.name for p in written}
        assert "GALLERY.md" in names
        assert any(n.endswith(".drift.svg") for n in names)
        assert any(n.endswith(".timeline.svg") for n in names)
