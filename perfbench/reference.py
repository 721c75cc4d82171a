"""A fixed reference kernel: how fast the machine runs right now.

On a shared virtual machine the effective CPU speed can swing by 2x
over minutes (other tenants share the host), which moves every wall
time with it.  A run therefore also times this kernel between its
set-ups and passes, and reports end-to-end times scaled to a machine
on which the kernel takes :data:`REFERENCE_MS` — the machine's own
speed cancels out, the program's does not.  The kernel is the
benchmark's own code, shaped like the workloads' work (interpreter
loops around small numpy searches, inserts and uniques), and never
changes with the program.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["REFERENCE_MS", "ReferenceKernel"]

#: Kernel milliseconds on the machine every scaled time refers to.
REFERENCE_MS = 4.0


class ReferenceKernel:
    """Times the fixed kernel; inputs are built once, without RNG."""

    def __init__(self) -> None:
        keys = np.arange(5_000, dtype=np.int64)
        self._base = np.unique((keys * 2_654_435_761) % 10_000_000)
        self._probe = (np.arange(240, dtype=np.int64) * 40_503) \
            % 10_000_000

    def _once(self) -> int:
        arr = self._base
        total = 0
        for i in range(200):
            window = self._probe[i:i + 20]
            idx = np.searchsorted(arr, window)
            total += int(idx.sum())
            if i % 4 == 0:
                arr = np.insert(arr, idx[:2], window[:2])
            table = {k: 2 * k for k in range(50)}
            total += sum(table.values())
        return total + int(np.unique(arr).size)

    def __call__(self) -> float:
        """Milliseconds of the fastest of three kernel runs."""
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            self._once()
            best = min(best, time.perf_counter() - started)
        return best * 1e3
