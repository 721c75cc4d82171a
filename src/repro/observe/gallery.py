"""Figure galleries from a result.json + artifact manifest.

The ``report`` CLI target points here: given a sweep output directory
(``--out``), every ``<target>/result.json`` found in it is turned
into a committed gallery under ``<target>/figures/`` — one or more
SVGs per cell artifact plus a ``GALLERY.md`` index.  Rendering is a
pure function of the payload and the ``.npz`` contents:

* manifest entries are sorted by artifact file name before anything
  is drawn, so the gallery is invariant to manifest ordering;
* artifact file names are content-addressed
  (``<experiment>-<digest>``), so figure names are stable across
  runs, jobs, and executors;
* the SVG builders in :mod:`repro.observe.figures` are
  byte-deterministic.

Together that gives the CI property the tentpole asks for: galleries
rendered from a ``--jobs 1`` run and a ``--jobs 2`` run of the same
grid are byte-identical directories.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping

import numpy as np

from .. import io
from ..contracts import ContractViolation, validate_result
from . import figures, trajectory

__all__ = [
    "render_out_tree",
    "render_result_gallery",
    "trajectory_figure",
]


def _timeline_figures(arrays: Mapping[str, np.ndarray]) -> dict:
    """Closed-loop attack timeline: control channels vs damage."""
    panels = [
        ("amplification", [
            ("amplification", arrays["tick_amplification"])]),
        ("attack: poison keys injected per tick", [
            ("injected", arrays["tick_injected"])]),
        ("defense response", [
            ("keep_fraction", arrays["tick_keep_fraction"]),
            ("rebuild_threshold", arrays["tick_rebuild_threshold"])]),
    ]
    return {"timeline": ("closed-loop attack timeline", panels)}


def _workload_figures(arrays: Mapping[str, np.ndarray]) -> dict:
    panels = [
        ("probe percentiles", [
            ("p50", arrays["tick_p50"]),
            ("p95", arrays["tick_p95"]),
            ("p99", arrays["tick_p99"])]),
        ("amplification", [
            ("amplification", arrays["tick_amplification"])]),
        ("index size", [("n_keys", arrays["tick_n_keys"])]),
    ]
    return {"serving": ("serving replay", panels)}


def _cluster_line_figures(arrays: Mapping[str, np.ndarray]) -> dict:
    out = {
        "timeline": ("cluster timeline", [
            ("victim-facing percentiles", [
                ("p50", arrays["tick_p50"]),
                ("p95", arrays["tick_p95"]),
                ("p99", arrays["tick_p99"])]),
            ("attack + management", [
                ("injected", arrays["tick_injected"]),
                ("migrated", arrays["tick_migrated"]),
                ("retrains", arrays["tick_retrains"])]),
            ("load imbalance", [
                ("imbalance", arrays["tick_imbalance"])]),
        ]),
        "transport": ("transport degradation", [
            ("degraded calls / flagged replicas", [
                ("degraded", arrays["tick_degraded"]),
                ("flagged", arrays["tick_flagged"])]),
            ("injected latency (ms)", [
                ("latency_ms", arrays["tick_latency_ms"])]),
        ]),
    }
    return out


def _render_cell(target: str, stem: str,
                 arrays: Mapping[str, np.ndarray],
                 figures_dir: Path) -> "list[tuple[str, str]]":
    """Render one cell's figures; return (file name, caption) pairs."""
    written: list[tuple[str, str]] = []

    def emit(kind: str, caption: str, svg: str) -> None:
        name = f"{stem}.{kind}.svg"
        (figures_dir / name).write_text(svg)
        written.append((name, caption))

    if target == "closedloop":
        for kind, (title, panels) in _timeline_figures(arrays).items():
            emit(kind, title,
                 figures.line_figure(f"{stem} — {title}", panels))
    elif target == "workload":
        for kind, (title, panels) in _workload_figures(arrays).items():
            emit(kind, title,
                 figures.line_figure(f"{stem} — {title}", panels))
    elif target == "cluster":
        for kind, (title, panels) in sorted(
                _cluster_line_figures(arrays).items()):
            emit(kind, title,
                 figures.line_figure(f"{stem} — {title}", panels))
        emit("shards", "per-shard load heatmap",
             figures.heatmap_figure(f"{stem} — per-shard load",
                                    arrays["shard_loads"],
                                    col_label="shard"))
        emit("tenants", "per-tenant p95 heatmap",
             figures.heatmap_figure(f"{stem} — per-tenant p95",
                                    arrays["tenant_p95"],
                                    col_label="tenant"))
        if "shard_split_points" in arrays:
            splits = np.asarray(arrays["shard_split_points"])
            series = [(f"split {i}", splits[:, i])
                      for i in range(splits.shape[1])]
            emit("drift", "shard-map split-point drift",
                 figures.line_figure(
                     f"{stem} — split-point drift",
                     [("split-point key positions", series)]))
    return written


def _render_ablation(ablation: Mapping,
                     figures_dir: Path) -> "list[tuple[str, str]]":
    """One importance-bar figure per ablated scenario.

    Reads only the declared ``ablation`` section keys (validated
    upstream by :func:`repro.contracts.validate_ablation_section`);
    scores travel as JSON-safe floats, so they come back through
    :func:`repro.io.parse_json_float`.
    """
    written: list[tuple[str, str]] = []
    for scenario_entry in ablation["scenarios"]:
        scenario = scenario_entry["scenario"]
        rows = []
        for component_entry in scenario_entry["components"]:
            rows.append((
                f'{component_entry["rank"]}. '
                f'{component_entry["component"]}',
                io.parse_json_float(component_entry["score"])))
        name = f"ablation-{scenario}.importance.svg"
        svg = figures.bar_figure(
            f"{scenario} — leave-one-out importance "
            f"(victim amplification delta)", rows)
        (figures_dir / name).write_text(svg)
        written.append((name,
                        f"{scenario} component importance ranking"))
    return written


def render_result_gallery(target_dir: "str | Path",
                          ) -> "list[Path]":
    """Render ``<target_dir>/figures/`` from its result.json.

    The document is validated against the declared
    ``repro.experiments.result/v2`` contract before anything is read
    from it — unknown or missing keys, and a torn file that is not
    JSON at all, raise :class:`~repro.contracts.ContractViolation`
    naming the file instead of surfacing as a KeyError three readers
    later.  Unknown *targets* render an empty list (no figures dir) —
    the ``report`` CLI walks every result.json under ``--out`` and
    only the targets with a figure recipe produce galleries.
    """
    target_dir = Path(target_dir)
    path = target_dir / "result.json"
    try:
        payload = validate_result(json.loads(path.read_text()))
    except ValueError as exc:  # malformed JSON or a ContractViolation
        raise ContractViolation(f"{path.as_posix()}: {exc}") from exc
    target = payload["target"]
    if target not in ("closedloop", "cluster", "workload", "ablate"):
        return []
    manifest = sorted(payload["artifacts"],
                      key=lambda entry: entry["file"])
    figures_dir = target_dir / "figures"
    figures_dir.mkdir(parents=True, exist_ok=True)
    index: list[tuple[str, str]] = []
    if target == "ablate":
        # The importance bars come from the validated ``ablation``
        # result section, not from the per-cell .npz series — the
        # figure is the ranking itself.
        index.extend(_render_ablation(payload["result"]["ablation"],
                                      figures_dir))
    else:
        for entry in manifest:
            artifact = target_dir / entry["file"]
            arrays = io.load_arrays(artifact)
            stem = Path(entry["file"]).stem
            index.extend(_render_cell(target, stem, arrays,
                                      figures_dir))
    lines = [f"# {target} gallery", "",
             f"{len(index)} figures from {len(manifest)} cell "
             f"artifacts.  Regenerate with "
             f"`PYTHONPATH=src python -m repro.experiments report "
             f"--out <dir>`.", ""]
    for name, caption in index:
        lines.append(f"- [{name}]({name}) — {caption}")
    (figures_dir / "GALLERY.md").write_text("\n".join(lines) + "\n")
    return [figures_dir / "GALLERY.md"] + [
        figures_dir / name for name, _ in index]


def trajectory_figure(store_dir: "str | Path" = trajectory.DEFAULT_STORE,
                      ) -> "str | None":
    """Ops/s-over-PRs sparkline SVG, or None on an empty store."""
    series = trajectory.ops_series(store_dir)
    if not series:
        return None
    n = len(trajectory.list_snapshots(store_dir))
    rows = [(lane, np.asarray(values, dtype=np.float64))
            for lane, values in sorted(series.items())]
    return figures.sparkline_figure(
        f"bench trajectory — ops/s over {n} snapshots", rows)


def render_out_tree(out_dir: "str | Path",
                    store_dir: "str | Path | None" = None,
                    ) -> "list[Path]":
    """Render galleries for every target under a sweep output dir.

    When a trajectory store exists (``store_dir`` or the default
    ``benchmarks/trajectory/``), its sparkline lands at
    ``<out_dir>/trajectory.svg`` alongside the per-target galleries.
    """
    out = Path(out_dir)
    written: list[Path] = []
    for result_path in sorted(out.glob("*/result.json")):
        written.extend(render_result_gallery(result_path.parent))
    store = Path(store_dir) if store_dir is not None \
        else trajectory.DEFAULT_STORE
    svg = trajectory_figure(store) if store.is_dir() else None
    if svg is not None:
        path = out / "trajectory.svg"
        path.write_text(svg)
        written.append(path)
    return written
