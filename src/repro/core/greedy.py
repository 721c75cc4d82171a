"""Greedy multi-point poisoning on a CDF regression (Algorithm 1).

The multi-point attack runs the optimal single-point step of
Section IV-C repeatedly: at each of the ``p`` iterations it inserts
the locally optimal poisoning key into the *augmented-so-far* keyset
(poisoning keys become part of the CDF and are re-ranked like any
other key).  Section IV-D reports this greedy strategy matched the
exhaustive search on every dataset the authors tested.

The attack clusters its insertions inside dense regions of the keyset,
exacerbating the non-linearity of the poisoned CDF (Fig. 4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.keyset import KeySet
from ._fastpath import GreedyWorkspace
from .cdf_regression import fit_cdf_regression
from .exceptions import KeySpaceExhausted
from .single_point import optimal_single_point

__all__ = ["GreedyResult", "greedy_poison", "poison_budget"]


@dataclass(frozen=True)
class GreedyResult:
    """Outcome of a greedy multi-point poisoning run.

    Attributes
    ----------
    poison_keys:
        The injected keys, in insertion order.  May be shorter than
        the requested budget if the key space ran out of gaps.
    losses:
        Augmented-set MSE after each insertion (same length as
        ``poison_keys``).
    loss_before:
        MSE of the regression on the legitimate keys alone.
    exhausted:
        True when the attack stopped early because no unoccupied
        in-range candidate remained.
    """

    poison_keys: np.ndarray
    losses: np.ndarray
    loss_before: float
    exhausted: bool = False

    @property
    def n_injected(self) -> int:
        """Number of poisoning keys actually placed."""
        return int(self.poison_keys.size)

    @property
    def loss_after(self) -> float:
        """Final augmented-set MSE (clean loss if nothing was placed)."""
        if self.losses.size == 0:
            return self.loss_before
        return float(self.losses[-1])

    @property
    def ratio_loss(self) -> float:
        """The paper's metric: poisoned MSE over clean MSE."""
        if self.loss_before == 0.0:
            return float("inf") if self.loss_after > 0.0 else 1.0
        return self.loss_after / self.loss_before


def poison_budget(n_keys: int, percentage: float) -> int:
    """Poisoning budget ``p = floor(percentage/100 * n)`` keys.

    The paper bounds realistic adversaries at 20% (Sec. III-C); we
    enforce that cap to keep experiment configs honest.
    """
    if not 0.0 <= percentage <= 20.0:
        raise ValueError(
            f"poisoning percentage must be in [0, 20], got {percentage}")
    return int(n_keys * percentage / 100.0)


def greedy_poison(keyset: KeySet, n_poison: int,
                  interior_only: bool = True) -> GreedyResult:
    """Algorithm 1: insert ``n_poison`` locally optimal keys.

    Each iteration evaluates every gap endpoint of the current
    augmented keyset in one vectorised pass and injects the argmax.
    The workspace keeps the gap table (endpoints and their ranks)
    across iterations and updates it per insertion, so an iteration
    is O(n) arithmetic with no search over the candidates. Overall
    complexity O(p * n).

    Parameters
    ----------
    keyset:
        The legitimate keys.
    n_poison:
        Requested number of poisoning keys (``p``).
    interior_only:
        Restrict candidates to the legitimate key range (default, per
        the threat model).
    """
    if n_poison < 0:
        raise ValueError(f"poison budget must be non-negative: {n_poison}")
    loss_before = fit_cdf_regression(keyset).mse
    chosen: list[int] = []
    losses: list[float] = []
    exhausted = False
    if interior_only:
        # Hot path: reusable buffers, a kept gap table, in-place math.
        workspace = GreedyWorkspace(keyset.keys, n_poison)
        for _ in range(n_poison):
            try:
                best_key, best_loss = workspace.best_candidate()
            except KeySpaceExhausted:
                exhausted = True
                break
            chosen.append(best_key)
            losses.append(best_loss)
            workspace.insert(best_key)
    else:
        current = keyset
        for _ in range(n_poison):
            try:
                step = optimal_single_point(current, interior_only)
            except KeySpaceExhausted:
                exhausted = True
                break
            chosen.append(step.key)
            losses.append(step.loss_after)
            current = current.insert([step.key])
    return GreedyResult(
        poison_keys=np.asarray(chosen, dtype=np.int64),
        losses=np.asarray(losses, dtype=np.float64),
        loss_before=loss_before,
        exhausted=exhausted)
