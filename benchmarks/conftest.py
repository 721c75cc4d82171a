"""Shared helpers for the pytest-benchmark scripts.

``once`` times a whole experiment a single time (``rounds=1``) rather
than pytest-benchmark's many rounds; ``bench_runner_scaling.py`` uses
it for its jobs ladder.  Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import pytest


@pytest.fixture
def once(benchmark):
    """Run a callable exactly once under the benchmark clock."""
    def runner(func):
        return benchmark.pedantic(func, rounds=1, iterations=1)
    return runner
