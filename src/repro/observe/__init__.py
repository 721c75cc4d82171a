"""Observability: metrics/trace instrumentation and figure galleries.

Two pillars:

* :mod:`repro.observe.metrics` — a deterministic
  :class:`MetricsRegistry` (counters, timing histograms) and a
  structured trace-event log, threaded through the simulators,
  router, transport, and sweep engine behind an opt-in hook
  (:func:`install` / :func:`active`).  Disabled, every hook is a
  single ``is None`` check; enabled, results stay bit-identical
  because only wall-clock timings are new state and they never touch
  canonical payloads.
* :mod:`repro.observe.figures` / :mod:`repro.observe.gallery` — a
  dependency-free byte-deterministic SVG renderer and the ``report``
  CLI target that turns result.json + artifact manifests into
  committed figure galleries.
"""

from .metrics import (
    MetricsRegistry,
    TimingStat,
    active,
    install,
    installed,
    uninstall,
)

__all__ = [
    "MetricsRegistry",
    "TimingStat",
    "active",
    "install",
    "installed",
    "uninstall",
]
