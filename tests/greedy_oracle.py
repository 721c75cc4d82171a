"""Algorithm 1's workspace as it stood before it kept a gap table.

:class:`RecomputingWorkspace` is the greedy attack's allocation-free
workspace that re-derives everything on every step: it rebuilds the
interior gap endpoints from the sorted keys (``np.diff``, ``nonzero``,
two gathers) and ranks every endpoint with ``keys.searchsorted``.
Its arithmetic is the reference op order, so a production workspace
must return the same key and the same loss bits at every step.
:func:`recomputing_greedy` runs it as ``greedy_poison`` runs
:class:`repro.core._fastpath.GreedyWorkspace`, to the budget or the
first :class:`KeySpaceExhausted`.  Imported as ``greedy_oracle``, like
``rmi_oracle``.
"""

from __future__ import annotations

import numpy as np

from repro.core import KeySpaceExhausted


def recomputing_greedy(keys: np.ndarray, n_poison: int
                       ) -> tuple[list[int], list[float], bool]:
    """(poison keys, losses, exhausted) of one whole Algorithm-1 run."""
    workspace = RecomputingWorkspace(keys, n_poison)
    chosen: list[int] = []
    losses: list[float] = []
    for _ in range(n_poison):
        try:
            key, loss = workspace.best_candidate()
        except KeySpaceExhausted:
            return chosen, losses, True
        chosen.append(key)
        losses.append(loss)
        workspace.insert(key)
    return chosen, losses, False


class RecomputingWorkspace:
    """Reusable buffers for repeated single-point evaluations.

    Sized for a keyset that grows from ``n`` to ``n + p`` keys; all
    buffers are allocated once in ``__init__`` and sliced per call.
    """

    def __init__(self, initial_keys: np.ndarray, n_poison: int):
        n_cap = initial_keys.size + n_poison
        c_cap = 2 * n_cap + 2
        self._keys = np.empty(n_cap, dtype=np.int64)
        self._keys[:initial_keys.size] = initial_keys
        self._count = int(initial_keys.size)

        self._shifted = np.empty(n_cap, dtype=np.float64)
        self._suffix = np.empty(n_cap + 1, dtype=np.float64)
        self._ranks = np.arange(1, n_cap + 1, dtype=np.float64)
        self._cand = np.empty(c_cap, dtype=np.int64)
        # Four float scratch registers over candidates.
        self._f1 = np.empty(c_cap, dtype=np.float64)
        self._f2 = np.empty(c_cap, dtype=np.float64)
        self._f3 = np.empty(c_cap, dtype=np.float64)
        self._f4 = np.empty(c_cap, dtype=np.float64)

    @property
    def keys(self) -> np.ndarray:
        """Current (legitimate + injected) keys, sorted."""
        return self._keys[:self._count]

    # ------------------------------------------------------------------
    def _candidates(self) -> np.ndarray:
        """Interior gap endpoints, written into the candidate buffer.

        Mirrors ``_interior_endpoints_raw``: interleaved gap lefts and
        rights are already sorted; length-1 gaps repeat their slot.
        """
        keys = self.keys
        diffs = np.diff(keys)
        inner = np.nonzero(diffs > 1)[0]
        c = 2 * inner.size
        if c == 0:
            return self._cand[:0]
        out = self._cand[:c]
        np.add(keys[inner], 1, out=out[0::2])
        np.subtract(keys[inner + 1], 1, out=out[1::2])
        return out

    def best_candidate(self) -> tuple[int, float]:
        """(key, loss-after) of the optimal insertion; in-place math.

        Implements the same algebra as
        :func:`repro.core.single_point._poisoning_losses_raw` with
        preallocated buffers.  Raises :class:`KeySpaceExhausted` when
        the interior holds no gap.
        """
        keys = self.keys
        cand = self._candidates()
        c = cand.size
        if c == 0:
            raise KeySpaceExhausted(
                "no unoccupied candidate key inside the legitimate key range")
        n = keys.size
        big_n = n + 1

        centre = float(keys.mean())
        shifted = self._shifted[:n]
        np.subtract(keys, centre, out=shifted, casting="unsafe")

        ranks = self._ranks[:n]
        sum_k = float(shifted.sum())
        sum_k2 = float(shifted @ shifted)
        sum_kr = float(shifted @ ranks)

        suffix = self._suffix[:n + 1]
        suffix[n] = 0.0
        np.cumsum(shifted[::-1], out=suffix[n - 1::-1])

        insert_at = keys.searchsorted(cand, side="left")

        f_cand = self._f1[:c]
        np.subtract(cand, centre, out=f_cand, casting="unsafe")

        mean_r = (big_n + 1) / 2.0
        var_r = (big_n + 1) * (2 * big_n + 1) / 6.0 - mean_r * mean_r

        # mean_kr -> f2
        mean_kr = self._f2[:c]
        np.add(insert_at, 1.0, out=mean_kr, casting="unsafe")  # insert rank
        np.multiply(mean_kr, f_cand, out=mean_kr)              # cand * rank
        np.take(suffix, insert_at, out=self._f3[:c])
        np.add(mean_kr, self._f3[:c], out=mean_kr)
        np.add(mean_kr, sum_kr, out=mean_kr)
        np.divide(mean_kr, big_n, out=mean_kr)

        # mean_k -> f3
        mean_k = self._f3[:c]
        np.add(f_cand, sum_k, out=mean_k)
        np.divide(mean_k, big_n, out=mean_k)

        # cov -> f2 (mean_kr - mean_k * mean_r)
        cov = mean_kr
        np.multiply(mean_k, mean_r, out=self._f4[:c])
        np.subtract(cov, self._f4[:c], out=cov)

        # var_k -> f1 ((sum_k2 + cand^2)/N - mean_k^2)
        var_k = f_cand
        np.multiply(f_cand, f_cand, out=var_k)
        np.add(var_k, sum_k2, out=var_k)
        np.divide(var_k, big_n, out=var_k)
        np.multiply(mean_k, mean_k, out=self._f4[:c])
        np.subtract(var_k, self._f4[:c], out=var_k)

        # losses -> f2 (var_r - cov^2 / var_k)
        losses = cov
        np.multiply(cov, cov, out=losses)
        np.divide(losses, var_k, out=losses)
        np.subtract(var_r, losses, out=losses)
        np.maximum(losses, 0.0, out=losses)

        best = int(np.argmax(losses))
        return int(cand[best]), float(losses[best])

    def insert(self, key: int) -> None:
        """Insert a key into the sorted buffer in place (memmove)."""
        count = self._count
        if count >= self._keys.size:
            raise RuntimeError("workspace capacity exceeded")
        slot = int(self._keys[:count].searchsorted(key))
        self._keys[slot + 1:count + 1] = self._keys[slot:count]
        self._keys[slot] = key
        self._count = count + 1
