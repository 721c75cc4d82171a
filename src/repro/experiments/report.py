"""Plain-text rendering of experiment results.

The paper reports boxplots; a terminal harness reports the same
five-number summaries as aligned tables plus a coarse ascii boxplot so
shapes are comparable at a glance.  Every target prints through
these helpers, so its tables paste verbatim into a document.

Serving grids (``closedloop``, ``cluster``) additionally end in a
*duel* block: every challenger row compared against its same-world
baseline, with the gap the attack opened and, when a tuned/defended
arm exists, how much of it the defense recovered.  :class:`DuelRow`
plus :func:`render_duel` are the shared rendering for both targets —
the figure targets keep their historical tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..core.metrics import BoxplotSummary

__all__ = ["section", "render_table", "ascii_boxplot", "format_ratio",
           "format_gap", "DuelRow", "render_duel"]


def section(title: str, width: int = 78) -> str:
    """A banner line announcing one experiment block."""
    bar = "=" * width
    return f"{bar}\n{title}\n{bar}"


def format_ratio(value: float) -> str:
    """Ratio losses rendered like the paper annotates them (e.g. 7.4x)."""
    if value != value:  # NaN
        return "nan"
    if value == float("inf"):
        return "inf"
    if value >= 100:
        return f"{value:.0f}x"
    return f"{value:.1f}x"


def format_gap(value: float) -> str:
    """Signed gap/recovery deltas, e.g. ``+0.132`` (``nan`` passes)."""
    if value != value:  # NaN
        return "nan"
    return f"{value:+.3f}"


@dataclass(frozen=True)
class DuelRow:
    """One challenger-vs-baseline comparison of a serving grid.

    ``group`` labels the grid point (arrival/backend/adversary for
    ``closedloop``; layout/backend/adversary for ``cluster``);
    ``gap`` is challenger-minus-baseline on the duel metric, and
    ``recovered`` — when a defended arm exists — is how much of the
    challenger's damage the defense clawed back (``None`` renders no
    column).
    """

    group: tuple[str, ...]
    gap: float
    recovered: "float | None" = None


def render_duel(title: str, group_headers: Sequence[str],
                rows: Sequence[DuelRow],
                gap_header: str = "gap vs baseline",
                recovered_header: str = "recovered") -> str:
    """The duel block: a section banner over gap/recovery columns.

    The recovery column appears iff any row carries one; rows without
    it render ``-`` there, so partially defended grids still align.
    """
    if not rows:
        return ""
    with_recovery = any(row.recovered is not None for row in rows)
    headers = [*group_headers, gap_header]
    if with_recovery:
        headers.append(recovered_header)
    body = []
    for row in rows:
        line = [*row.group, format_gap(row.gap)]
        if with_recovery:
            line.append("-" if row.recovered is None
                        else format_gap(row.recovered))
        body.append(line)
    return f"{section(title)}\n{render_table(headers, body)}"


def render_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Monospace table with right-padded columns."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(list(headers)), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in str_rows)
    return "\n".join(lines)


def ascii_boxplot(summary: BoxplotSummary, lo: float, hi: float,
                  width: int = 40) -> str:
    """One-line ascii boxplot of a summary scaled into ``[lo, hi]``.

    Layout: ``|----[==M==]------|`` where ``[``/``]`` are quartiles and
    ``M`` the median; whiskers span min..max.
    """
    if hi <= lo:
        hi = lo + 1.0
    def col(value: float) -> int:
        frac = (value - lo) / (hi - lo)
        return min(max(int(frac * (width - 1)), 0), width - 1)
    cells = [" "] * width
    for pos in range(col(summary.minimum), col(summary.maximum) + 1):
        cells[pos] = "-"
    for pos in range(col(summary.q1), col(summary.q3) + 1):
        cells[pos] = "="
    cells[col(summary.q1)] = "["
    cells[col(summary.q3)] = "]"
    cells[col(summary.median)] = "M"
    return "".join(cells)
