"""Allocation-free inner loop for the greedy attack (Algorithm 1).

The greedy multi-point attack evaluates every candidate insertion
``p`` times, once per step, on arrays of size O(n).  A naive numpy
expression chain allocates ~25 temporaries per call; on systems where
large allocations are served by fresh mmaps (page-fault zeroing) that
dominates the runtime by an order of magnitude.  This module keeps one
reusable workspace of buffers and evaluates the equations (13) of the
paper with in-place ufuncs.

What is kept across steps is the *gap table*: the interleaved
endpoints of every interior gap, each endpoint's insertion index into
the sorted keys, and that index plus one as a float (the candidate's
rank, exact in float64).  Both endpoints of the gap after ``keys[i]``
have insertion index ``i + 1``, and one insertion changes one gap: it
shrinks by a slot, closes, or (an insert off its endpoints) splits,
and every later gap's index moves up by one.  So a step neither
re-derives the gaps nor ranks its candidates by a search.  An
insertion is one scalar lookup of the key's gap, a memmove of the
keys (and of the table's tail when a gap closes or splits), and one
slice increment of the later gaps' indices and ranks.

A step still recomputes what depends on the keys' mean, which every
insertion moves: the mean-centred keys, their sum, two dot products
and the suffix sums (six calls over ``n``), then the candidate algebra
(twenty calls over ``c`` ≤ ``2n`` candidates), so it stays O(n).  The
mean, sums, cumsum, take and argmax call the ufunc or ndarray methods
directly, skipping numpy's Python wrappers.  On a 2-vCPU Xeon VM a
step (with its insertion) takes ~130 µs at n = 5,000 and ~29 µs at
n = 100, against ~280 µs and ~42 µs when every step re-derives the
gaps.

Every float op keeps the operands and the order of the recomputing
form (``tests/greedy_oracle.py``), and the candidates keep their
interleaved order, so each step picks the same key with the same
loss bits; the tests pin whole runs to it.  A rank kept as a float
and bumped by one equals the recomputed ``index + 1.0`` exactly.
:func:`repro.core.single_point._poisoning_losses_raw` is the readable
statement of the same algebra, and ``optimal_single_point`` stays the
public reference the property tests pin the chosen keys to.
"""

from __future__ import annotations

import numpy as np

from .exceptions import KeySpaceExhausted

__all__ = ["GreedyWorkspace"]


class GreedyWorkspace:
    """The sorted keys, their gap table, and the scratch of one run.

    Sized for a keyset that grows from ``n`` to ``n + p`` keys; all
    buffers are allocated once in ``__init__`` and sliced per call.
    ``initial_keys`` must be sorted and unique.  :meth:`insert` accepts
    only an unoccupied key inside the initial key range, so the table
    always holds exactly the interior gaps of :attr:`keys`.
    """

    def __init__(self, initial_keys: np.ndarray, n_poison: int):
        n = initial_keys.size
        n_cap = n + n_poison
        # A sorted unique set of m keys has at most m - 1 gaps.
        c_cap = 2 * n_cap
        self._keys = np.empty(n_cap, dtype=np.int64)
        keys = self._keys[:n]
        keys[:] = initial_keys
        self._count = n

        diffs = np.diff(keys)
        bad = np.nonzero(diffs <= 0)[0]
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"initial keys must be sorted and unique: key "
                f"{int(keys[i + 1])} follows {int(keys[i])}")
        inner = np.nonzero(diffs > 1)[0]
        c = 2 * inner.size
        self._n_cand = c
        self._cand = np.empty(c_cap, dtype=np.int64)
        self._at = np.empty(c_cap, dtype=np.intp)
        self._cand_rank = np.empty(c_cap, dtype=np.float64)
        np.add(keys[inner], 1, out=self._cand[0:c:2])
        np.subtract(keys[inner + 1], 1, out=self._cand[1:c:2])
        np.add(inner, 1, out=self._at[0:c:2])
        self._at[1:c:2] = self._at[0:c:2]
        np.add(self._at[:c], 1.0, out=self._cand_rank[:c],
               casting="unsafe")

        self._shifted = np.empty(n_cap, dtype=np.float64)
        self._suffix = np.empty(n_cap + 1, dtype=np.float64)
        self._ranks = np.arange(1, n_cap + 1, dtype=np.float64)
        # Four float scratch registers over candidates.
        self._f1 = np.empty(c_cap, dtype=np.float64)
        self._f2 = np.empty(c_cap, dtype=np.float64)
        self._f3 = np.empty(c_cap, dtype=np.float64)
        self._f4 = np.empty(c_cap, dtype=np.float64)

    @property
    def keys(self) -> np.ndarray:
        """Current (legitimate + injected) keys, sorted."""
        return self._keys[:self._count]

    @property
    def gap_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(endpoints, insertion indices, float ranks) of the gaps.

        The endpoints are ``_interior_endpoints_raw(keys)``: each gap's
        left and right, interleaved, a one-slot gap's slot twice.
        """
        c = self._n_cand
        return self._cand[:c], self._at[:c], self._cand_rank[:c]

    # ------------------------------------------------------------------
    def best_candidate(self) -> tuple[int, float]:
        """(key, loss-after) of the optimal insertion; in-place math.

        Implements the same algebra as
        :func:`repro.core.single_point._poisoning_losses_raw` with
        preallocated buffers.  Raises :class:`KeySpaceExhausted` when
        the interior holds no gap.
        """
        c = self._n_cand
        if c == 0:
            raise KeySpaceExhausted(
                "no unoccupied candidate key inside the legitimate key range")
        n = self._count
        keys = self._keys[:n]
        cand = self._cand[:c]
        big_n = n + 1

        # keys.mean() without its wrapper: the same float64 reduce.
        centre = float(np.add.reduce(keys, dtype=np.float64) / n)
        shifted = self._shifted[:n]
        np.subtract(keys, centre, out=shifted, casting="unsafe")

        ranks = self._ranks[:n]
        sum_k = float(np.add.reduce(shifted))
        sum_k2 = float(shifted @ shifted)
        sum_kr = float(shifted @ ranks)

        suffix = self._suffix[:n + 1]
        suffix[n] = 0.0
        np.add.accumulate(shifted[::-1], out=suffix[n - 1::-1])

        f_cand = self._f1[:c]
        np.subtract(cand, centre, out=f_cand, casting="unsafe")

        mean_r = (big_n + 1) / 2.0
        var_r = (big_n + 1) * (2 * big_n + 1) / 6.0 - mean_r * mean_r

        # mean_kr -> f2
        mean_kr = self._f2[:c]
        np.multiply(self._cand_rank[:c], f_cand, out=mean_kr)
        suffix.take(self._at[:c], out=self._f3[:c])
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

        best = int(losses.argmax())
        return int(cand[best]), float(losses[best])

    def insert(self, key: int) -> None:
        """Insert an unoccupied interior key; update the gap table.

        Raises ``RuntimeError`` past the capacity and ``ValueError``
        for a key that no gap holds (occupied, or outside the range).
        """
        count = self._count
        if count >= self._keys.size:
            raise RuntimeError("workspace capacity exceeded")
        c = self._n_cand
        cand, at, rank = self._cand, self._at, self._cand_rank
        # side="left" lands on a gap's left endpoint or inside the gap.
        lo = int(cand[:c].searchsorted(key)) & ~1
        if lo == c or not cand[lo] <= key <= cand[lo + 1]:
            raise ValueError(
                f"key {key} is not an unoccupied key inside the "
                f"legitimate key range")
        left, right = int(cand[lo]), int(cand[lo + 1])
        slot = int(at[lo])
        self._keys[slot + 1:count + 1] = self._keys[slot:count]
        self._keys[slot] = key
        self._count = count + 1

        if left == right:
            # The gap's one slot: the gap closes.
            for table in (cand, at, rank):
                table[lo:c - 2] = table[lo + 2:c]
            c -= 2
            later = lo
        elif key == left:
            # The gap now follows the key: its index moves up too.
            cand[lo] = key + 1
            later = lo
        elif key == right:
            cand[lo + 1] = key - 1
            later = lo + 2
        else:
            # A key off the endpoints splits the gap around it.
            for table in (cand, at, rank):
                table[lo + 4:c + 2] = table[lo + 2:c]
            cand[lo + 1:lo + 4] = (key - 1, key + 1, right)
            at[lo + 2:lo + 4] = slot
            rank[lo + 2:lo + 4] = rank[lo]
            c += 2
            later = lo + 2
        at[later:c] += 1
        rank[later:c] += 1
        self._n_cand = c
