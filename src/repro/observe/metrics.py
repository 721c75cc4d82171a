"""Deterministic metrics registry + structured trace-event log.

A :class:`MetricsRegistry` holds counters and the per-tick trace-event
log.  Both are pure functions of the replayed workload (op counts,
tick counts, calls, cells computed), so a profile is equal across
runs, jobs, and executors.  No clock feeds it: where time goes is
perfbench's question, measured from outside the program.

Instrumented code guards every touch with ``if metrics is not None``
so the disabled path costs one attribute check — no null-object
context managers on the hot loops.

Counters are commutative (sums), so the registry is safe to share
across the sweep engine's thread executor; trace events are emitted
only from the single-threaded simulator tick loops, keeping the log
order deterministic.  A lock protects the read-modify-write updates.

Process-pool workers do not share the parent's registry: the
module-level :func:`install` / :func:`active` pair is per-process, so
at ``jobs>1`` on the process executor a profile honestly carries
engine-level counters only.  Inline runs (``jobs=1``) and thread
executors capture every counter.
"""

from __future__ import annotations

import threading
from typing import Any

__all__ = [
    "MetricsRegistry",
    "active",
    "install",
    "installed",
    "uninstall",
]


class MetricsRegistry:
    """Counters and a trace-event log."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._events: list[dict] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def inc(self, name: str, value: int = 1) -> None:
        """Add ``value`` to the counter ``name`` (deterministic)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

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
    def events(self) -> list[dict]:
        with self._lock:
            return list(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._counters)

    def to_profile(self) -> dict:
        """The ``instrument`` payload section, keys sorted: the
        counters and the trace-event count, equal across job counts
        and thread executors."""
        with self._lock:
            return {
                "counters": {k: self._counters[k]
                             for k in sorted(self._counters)},
                "trace_events": len(self._events),
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
