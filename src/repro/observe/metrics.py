"""Deterministic metrics registry + structured trace-event log.

The observability contract mirrors how ``SweepStats`` already works:
anything wall-clock stays out of canonical payloads and digests.  A
:class:`MetricsRegistry` therefore keeps two kinds of state:

* **Deterministic** — counters and the per-tick trace-event log.
  These are pure functions of the replayed workload (op counts,
  tick counts, cells computed) and are bit-identical across runs,
  jobs, and executors.
* **Wall-clock** — timing histograms (count / total / min / max
  seconds per stage).  These are recorded for profiling and surface
  only in the ``instrument`` section of result payloads, which the
  jobs-parity gates never compare (they compare ``payload["result"]``
  alone).

Instrumented code guards every touch with ``if metrics is not None``
so the disabled path costs one attribute check — no null-object
context managers on the hot loops.

Counters and timings are commutative (sums), so the registry is safe
to share across the sweep engine's thread executor; trace events are
emitted only from the single-threaded simulator tick loops, keeping
the log order deterministic.  A lock protects the read-modify-write updates.

Process-pool workers do not share the parent's registry: the
module-level :func:`install` / :func:`active` pair is per-process, so
at ``jobs>1`` on the process executor a profile honestly carries
engine-level scheduling metrics only.  Inline runs (``jobs=1``) and
thread executors capture the full stage breakdown.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any

__all__ = [
    "MetricsRegistry",
    "TimingStat",
    "active",
    "install",
    "installed",
    "uninstall",
]


@dataclass
class TimingStat:
    """Accumulated wall-clock observations for one named stage."""

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = 0.0

    def add(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    def to_dict(self) -> dict:
        mean = self.total / self.count if self.count else 0.0
        return {
            "count": self.count,
            "total_seconds": self.total,
            "mean_seconds": mean,
            "min_seconds": self.min if self.count else 0.0,
            "max_seconds": self.max,
        }


class MetricsRegistry:
    """Counters, timing histograms, and a trace-event log."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._timings: dict[str, TimingStat] = {}
        self._events: list[dict] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def inc(self, name: str, value: int = 1) -> None:
        """Add ``value`` to the counter ``name`` (deterministic)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def observe(self, name: str, seconds: float) -> None:
        """Record one wall-clock observation for stage ``name``."""
        with self._lock:
            stat = self._timings.get(name)
            if stat is None:
                stat = self._timings[name] = TimingStat()
            stat.add(seconds)

    def trace(self, event: str, **fields: Any) -> None:
        """Append a structured trace event (deterministic fields only).

        Call sites must pass values that are pure functions of the
        workload (tick indices, op counts, probe sums) — never wall
        times — and must sit on single-threaded paths so the log
        order is reproducible.
        """
        with self._lock:
            self._events.append({"event": event, **fields})

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def counters(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counters)

    @property
    def timings(self) -> dict[str, TimingStat]:
        with self._lock:
            return dict(self._timings)

    @property
    def events(self) -> list[dict]:
        with self._lock:
            return list(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._counters) + len(self._timings)

    def to_profile(self) -> dict:
        """The ``instrument`` payload section, keys sorted.

        ``counters`` / ``trace_events`` are deterministic;
        ``timings`` are wall-clock and must never feed a digest or a
        parity comparison.
        """
        with self._lock:
            return {
                "counters": {k: self._counters[k]
                             for k in sorted(self._counters)},
                "trace_events": len(self._events),
                "timings": {k: self._timings[k].to_dict()
                            for k in sorted(self._timings)},
            }


# ----------------------------------------------------------------------
# The per-process opt-in hook
# ----------------------------------------------------------------------
_ACTIVE: "MetricsRegistry | None" = None


def install(registry: MetricsRegistry) -> MetricsRegistry:
    """Make ``registry`` the process-wide default sink.

    Components that accept ``metrics=None`` fall back to the
    installed registry, so one :func:`install` at the CLI boundary
    instruments every simulator, router, and engine built afterwards
    without threading a parameter through each constructor.
    """
    global _ACTIVE
    _ACTIVE = registry
    return registry


def uninstall() -> None:
    """Clear the process-wide registry (back to zero-cost no-op)."""
    global _ACTIVE
    _ACTIVE = None


def active() -> "MetricsRegistry | None":
    """The installed registry, or ``None`` when instrumentation is off."""
    return _ACTIVE


class installed:
    """Context manager: install a registry for the enclosed block."""

    def __init__(self, registry: "MetricsRegistry | None" = None):
        # `is None`, not truthiness: an empty registry is len() == 0
        # and must still be the one that gets installed.
        self.registry = (registry if registry is not None
                         else MetricsRegistry())
        self._previous: "MetricsRegistry | None" = None

    def __enter__(self) -> MetricsRegistry:
        self._previous = active()
        install(self.registry)
        return self.registry

    def __exit__(self, *exc_info: Any) -> None:
        global _ACTIVE
        _ACTIVE = self._previous
