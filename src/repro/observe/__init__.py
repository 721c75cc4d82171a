"""Observability: metrics/trace instrumentation and figure galleries.

Two pillars:

* :mod:`repro.observe.metrics` — a deterministic
  :class:`MetricsRegistry` of counters and a structured trace-event
  log, threaded through the tick loops, router, transport, and sweep
  engine behind an opt-in hook (:func:`install` / :func:`active`).
  Disabled, every hook is a single ``is None`` check; enabled,
  results stay bit-identical because the registry only counts what
  the run did and never touches canonical payloads.  No clock feeds
  it; per-layer time is perfbench's to measure.
* :mod:`repro.observe.figures` / :mod:`repro.observe.gallery` — a
  dependency-free byte-deterministic SVG renderer and the ``report``
  CLI target that turns result.json + artifact manifests into
  committed figure galleries.
"""

from .metrics import (
    MetricsRegistry,
    active,
    install,
    installed,
    uninstall,
)

__all__ = [
    "MetricsRegistry",
    "active",
    "install",
    "installed",
    "uninstall",
]
