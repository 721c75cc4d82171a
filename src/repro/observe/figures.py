"""Dependency-free deterministic SVG figures.

No matplotlib in this environment, and no need for it: every figure
the galleries render is a line chart, a heatmap, or a bar chart over
small per-tick arrays.  Each builder returns the SVG as a string
built from fixed-precision formatted floats with sorted, hand-ordered
attributes and no timestamps — identical inputs yield byte-identical
output, so galleries are diffable, pinnable by digest in tests, and
comparable across ``--jobs`` settings in CI.

NaN handling matches the series semantics upstream: NaN breaks a
polyline into segments (closed-loop channels start NaN until the
control loop engages) and renders heatmap cells in neutral grey
(shard columns that do not exist yet under NaN padding).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "PALETTE",
    "bar_figure",
    "heatmap_figure",
    "line_figure",
]

#: Matplotlib's tab10 hues, hard-coded so the renderer stays
#: dependency-free and the colors stay stable forever.
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
           "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")

_FG = "#24292f"
_FRAME = "#d0d7de"
_BG = "#ffffff"
_NAN = "#e6e6e6"
#: Heatmap ramp endpoints (low -> high), interpolated in RGB.
_RAMP_LO = (33, 102, 172)
_RAMP_HI = (178, 24, 43)

_MARGIN_LEFT = 58
_MARGIN_RIGHT = 14
_TITLE_H = 26
_PANEL_PAD = 10
_LEGEND_H = 14


def _num(value: float) -> str:
    """Fixed-precision coordinate: '%.2f' with trailing zeros kept.

    Keeping the zeros (no rstrip) makes the byte layout a pure
    function of the rounded value.
    """
    return f"{value:.2f}"


def _label(value: float) -> str:
    """Axis label: compact general format, deterministic."""
    if not math.isfinite(value):
        return "nan" if math.isnan(value) else "inf"
    return f"{value:.4g}"


def _esc(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def _text(x: float, y: float, content: str, *, size: int = 11,
          anchor: str = "start", fill: str = _FG) -> str:
    return (f'<text x="{_num(x)}" y="{_num(y)}" '
            f'font-family="monospace" font-size="{size}" '
            f'fill="{fill}" text-anchor="{anchor}">'
            f'{_esc(content)}</text>')


def _rect(x: float, y: float, w: float, h: float, fill: str,
          stroke: "str | None" = None) -> str:
    stroke_attr = (f' stroke="{stroke}" stroke-width="1"'
                   if stroke else "")
    return (f'<rect x="{_num(x)}" y="{_num(y)}" width="{_num(w)}" '
            f'height="{_num(h)}" fill="{fill}"{stroke_attr}/>')


def _polyline(points: "list[tuple[float, float]]", stroke: str) -> str:
    coords = " ".join(f"{_num(x)},{_num(y)}" for x, y in points)
    return (f'<polyline points="{coords}" fill="none" '
            f'stroke="{stroke}" stroke-width="1.5"/>')


def _document(width: int, height: int, body: "list[str]") -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">')
    background = _rect(0, 0, width, height, _BG)
    return "\n".join([head, background, *body, "</svg>"]) + "\n"


def _finite_range(arrays: Iterable[np.ndarray]) -> tuple[float, float]:
    """(lo, hi) across all finite values, padded so flat lines show."""
    finite: list[float] = []
    for arr in arrays:
        values = np.asarray(arr, dtype=np.float64)
        mask = np.isfinite(values)
        if mask.any():
            finite.append(float(values[mask].min()))
            finite.append(float(values[mask].max()))
    if not finite:
        return 0.0, 1.0
    lo, hi = min(finite), max(finite)
    if hi == lo:
        pad = abs(hi) * 0.1 or 1.0
        return lo - pad, hi + pad
    return lo, hi


def _series_segments(values: np.ndarray, x0: float, plot_w: float,
                     y0: float, plot_h: float, lo: float,
                     hi: float) -> "list[list[tuple[float, float]]]":
    """Pixel-space polyline segments, split at NaN/inf gaps."""
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    if n == 0:
        return []
    step = plot_w / max(n - 1, 1)
    segments: list[list[tuple[float, float]]] = []
    current: list[tuple[float, float]] = []
    for i in range(n):
        v = values[i]
        if not math.isfinite(v):
            if len(current) > 1:
                segments.append(current)
            current = []
            continue
        x = x0 + i * step
        y = y0 + plot_h * (1.0 - (v - lo) / (hi - lo))
        current.append((x, y))
    if len(current) > 1:
        segments.append(current)
    elif len(current) == 1:
        # A lone finite point still deserves a visible dot-length dash.
        x, y = current[0]
        segments.append([(x - 0.5, y), (x + 0.5, y)])
    return segments


def line_figure(title: str,
                panels: Sequence[tuple[str, Sequence[tuple[str, np.ndarray]]]],
                *, width: int = 640, panel_height: int = 110) -> str:
    """Stacked line-chart panels sharing the x (tick) axis.

    ``panels`` is a sequence of ``(subtitle, series)`` where each
    ``series`` is a sequence of ``(label, values)`` pairs drawn in
    palette order.
    """
    body: list[str] = []
    height = (_TITLE_H
              + len(panels) * (panel_height + _LEGEND_H + _PANEL_PAD)
              + _PANEL_PAD)
    body.append(_text(_MARGIN_LEFT, 17, title, size=13))
    y_cursor = float(_TITLE_H)
    plot_w = width - _MARGIN_LEFT - _MARGIN_RIGHT
    for subtitle, series in panels:
        x0 = float(_MARGIN_LEFT)
        y0 = y_cursor + _LEGEND_H
        lo, hi = _finite_range([values for _, values in series])
        body.append(_rect(x0, y0, plot_w, panel_height, _BG,
                          stroke=_FRAME))
        # Legend row: subtitle left, series labels right-to-left.
        body.append(_text(x0, y_cursor + 10, subtitle, size=10))
        legend_x = float(width - _MARGIN_RIGHT)
        for idx in range(len(series) - 1, -1, -1):
            label = series[idx][0]
            color = PALETTE[idx % len(PALETTE)]
            body.append(_text(legend_x, y_cursor + 10, label,
                              size=10, anchor="end", fill=color))
            legend_x -= 7 * len(label) + 12
        # y-axis extremes.
        body.append(_text(x0 - 4, y0 + 9, _label(hi), size=9,
                          anchor="end"))
        body.append(_text(x0 - 4, y0 + panel_height, _label(lo),
                          size=9, anchor="end"))
        for idx, (_, values) in enumerate(series):
            color = PALETTE[idx % len(PALETTE)]
            for segment in _series_segments(values, x0, plot_w, y0,
                                            panel_height, lo, hi):
                body.append(_polyline(segment, color))
        y_cursor = y0 + panel_height + _PANEL_PAD
    # Shared x-axis extent under the last panel.
    n_ticks = max((len(values) for _, series in panels
                   for _, values in series), default=0)
    body.append(_text(_MARGIN_LEFT, y_cursor + 2, "tick 0", size=9))
    body.append(_text(width - _MARGIN_RIGHT, y_cursor + 2,
                      f"tick {max(n_ticks - 1, 0)}", size=9,
                      anchor="end"))
    return _document(width, int(height), body)


def _ramp(t: float) -> str:
    """Low->high color ramp, deterministic integer RGB."""
    r = int(round(_RAMP_LO[0] + (_RAMP_HI[0] - _RAMP_LO[0]) * t))
    g = int(round(_RAMP_LO[1] + (_RAMP_HI[1] - _RAMP_LO[1]) * t))
    b = int(round(_RAMP_LO[2] + (_RAMP_HI[2] - _RAMP_LO[2]) * t))
    return f"#{r:02x}{g:02x}{b:02x}"


def heatmap_figure(title: str, matrix: np.ndarray, *,
                   row_label: str = "tick", col_label: str = "series",
                   width: int = 640, cell_height: int = 16) -> str:
    """A (ticks x columns) matrix as colored cells, NaN in grey.

    Rendered transposed — one horizontal band per column (shard,
    tenant, split), ticks left to right — which matches how the
    cluster figures read: a band per shard over time.
    """
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    n_ticks, n_cols = matrix.shape
    lo, hi = _finite_range([matrix])
    span = hi - lo
    x0 = float(_MARGIN_LEFT)
    plot_w = width - _MARGIN_LEFT - _MARGIN_RIGHT
    cell_w = plot_w / max(n_ticks, 1)
    body: list[str] = [_text(x0, 17, title, size=13)]
    y_cursor = float(_TITLE_H)
    for col in range(n_cols):
        body.append(_text(x0 - 4, y_cursor + cell_height - 4,
                          f"{col_label} {col}", size=9, anchor="end"))
        for tick in range(n_ticks):
            value = matrix[tick, col]
            if not math.isfinite(value):
                fill = _NAN
            else:
                t = (value - lo) / span if span else 0.5
                fill = _ramp(min(max(t, 0.0), 1.0))
            body.append(_rect(x0 + tick * cell_w, y_cursor,
                              cell_w, cell_height, fill))
        y_cursor += cell_height + 2
    y_cursor += 4
    body.append(_text(x0, y_cursor + 10,
                      f"{row_label} 0..{max(n_ticks - 1, 0)}  |  "
                      f"lo {_label(lo)}", size=9))
    body.append(_text(width - _MARGIN_RIGHT, y_cursor + 10,
                      f"hi {_label(hi)}", size=9, anchor="end"))
    height = int(y_cursor + 22)
    return _document(width, height, body)


def bar_figure(title: str,
               rows: Sequence[tuple[str, float]], *,
               width: int = 520, row_height: int = 24) -> str:
    """Horizontal signed bars, one labelled row per value.

    The ablation gallery uses this for leave-one-out importance:
    each bar grows from the shared zero axis — positive (protective)
    values in the first palette hue, negative (harmful) in the
    second, NaN as a neutral grey stub on the axis — with the exact
    value printed at the right edge.
    """
    label_w = 190
    value_w = 84
    x0 = float(label_w)
    plot_w = width - label_w - value_w
    values = np.asarray([value for _, value in rows],
                        dtype=np.float64)
    finite = values[np.isfinite(values)]
    lo = min(0.0, float(finite.min())) if finite.size else 0.0
    hi = max(0.0, float(finite.max())) if finite.size else 1.0
    if hi == lo:
        hi = lo + 1.0
    span = hi - lo
    zero_x = x0 + plot_w * (0.0 - lo) / span
    body: list[str] = [_text(10, 17, title, size=13)]
    y_cursor = float(_TITLE_H)
    for label, value in rows:
        mid = y_cursor + row_height / 2
        body.append(_text(x0 - 6, mid + 4, label, size=10,
                          anchor="end"))
        body.append(_rect(x0, y_cursor + 3, plot_w, row_height - 6,
                          _BG, stroke=_FRAME))
        value = float(value)
        if math.isfinite(value):
            vx = x0 + plot_w * (value - lo) / span
            bar_x, bar_w = ((zero_x, vx - zero_x) if vx >= zero_x
                            else (vx, zero_x - vx))
            fill = PALETTE[0] if value >= 0 else PALETTE[1]
            body.append(_rect(bar_x, y_cursor + 5, max(bar_w, 1.0),
                              row_height - 10, fill))
        else:
            body.append(_rect(zero_x - 2.0, y_cursor + 5, 4.0,
                              row_height - 10, _NAN))
        body.append(_text(width - 6, mid + 4, _label(value),
                          size=10, anchor="end"))
        y_cursor += row_height
    # Zero axis drawn last so it overlays every row's frame.
    body.append(_rect(zero_x - 0.5, float(_TITLE_H), 1.0,
                      y_cursor - _TITLE_H, _FG))
    body.append(_text(x0, y_cursor + 12, f"lo {_label(lo)}", size=9))
    body.append(_text(width - _MARGIN_RIGHT, y_cursor + 12,
                      f"hi {_label(hi)}", size=9, anchor="end"))
    return _document(width, int(y_cursor + 22), body)
