"""Greedy poisoning of a two-stage RMI (Section V, Algorithm 2).

The RMI partitions the sorted keyset into ``N`` equal-size contiguous
partitions, one linear second-stage model per partition.  Poisoning it
decomposes into two coupled subproblems:

* **volume allocation** — how many poisoning keys ``|P_i|`` each
  second-stage model receives, subject to the global budget
  ``sum |P_i| = phi * n`` and the per-model threshold
  ``|P_i| <= t = alpha * phi * n / N``;
* **key allocation** — which keys to inject inside a partition, solved
  by Algorithm 1 (:func:`repro.core.greedy.greedy_poison`).

Algorithm 2 starts from the uniform allocation ``phi * n / N`` and then
greedily *exchanges* one unit of poisoning budget together with one
boundary legitimate key between neighbouring models whenever that
raises the RMI loss ``L_RMI = mean_i L_i``:

* ``i -> i+1``: one budget unit moves right, and the smallest
  legitimate key of partition ``i+1`` moves left into partition ``i``;
* ``i <- i+1``: one budget unit moves left, and the largest legitimate
  key of partition ``i`` moves right into partition ``i+1``.

Pairing the budget move with the opposite key move keeps every
partition's total population (legitimate + poisoning) fixed, which is
what lets the exchange evade volume-based anomaly detection.

CHANGELOSS is the table of every exchange's loss change.  Beside each
entry it keeps the two hypothetical Algorithm-1 results behind it, so
the table holds O(N) results.  Applying an exchange runs nothing: its
two results become the touched models' results.  It changes only the
six entries of the pairs that touch those models, and a refresh
re-runs Algorithm 1 only for the sides whose partition or budget
changed, typically six runs per applied exchange.

A poisoning key injected into partition ``i`` shifts the *global*
ranks of all later partitions by one — but a uniform rank shift is
absorbed by each linear model's intercept, so per-partition MSE (and
hence ``L_RMI``) is computed on partition-local ranks without loss of
generality.  This observation is what makes the per-model
decomposition exact; it is tested in ``tests/core/test_rmi_attack.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..data.keyset import KeySet
from .cdf_regression import fit_cdf_regression
from .greedy import GreedyResult, greedy_poison
from .threat_model import RMIAttackerCapability

__all__ = ["ModelPoisonReport", "RMIAttackResult", "poison_rmi"]


@dataclass(frozen=True)
class ModelPoisonReport:
    """Per-second-stage-model outcome of the RMI attack."""

    model_index: int
    n_keys: int
    budget: int
    n_injected: int
    loss_before: float
    loss_after: float

    @property
    def ratio_loss(self) -> float:
        """Per-model poisoned MSE over clean MSE."""
        if self.loss_before == 0.0:
            return float("inf") if self.loss_after > 0.0 else 1.0
        return self.loss_after / self.loss_before


@dataclass(frozen=True)
class RMIAttackResult:
    """Outcome of Algorithm 2 on a full RMI.

    Attributes
    ----------
    reports:
        One :class:`ModelPoisonReport` per second-stage model.
    poison_keys:
        All injected keys across models (sorted).
    threshold:
        The per-model cap ``t`` that was enforced.
    exchanges:
        Number of greedy volume exchanges performed.
    """

    reports: tuple[ModelPoisonReport, ...]
    poison_keys: np.ndarray
    threshold: int
    exchanges: int

    @property
    def per_model_ratios(self) -> np.ndarray:
        """Ratio loss of each second-stage model (a Fig. 6 boxplot)."""
        return np.asarray([r.ratio_loss for r in self.reports])

    @property
    def rmi_loss_before(self) -> float:
        """Clean ``L_RMI``: mean second-stage MSE before poisoning."""
        return float(np.mean([r.loss_before for r in self.reports]))

    @property
    def rmi_loss_after(self) -> float:
        """Poisoned ``L_RMI``: mean second-stage MSE after poisoning."""
        return float(np.mean([r.loss_after for r in self.reports]))

    @property
    def rmi_ratio_loss(self) -> float:
        """The black horizontal line of Fig. 6: poisoned/clean RMI loss."""
        before = self.rmi_loss_before
        if before == 0.0:
            return float("inf") if self.rmi_loss_after > 0.0 else 1.0
        return self.rmi_loss_after / before

    @property
    def total_injected(self) -> int:
        """Number of poisoning keys actually placed."""
        return int(self.poison_keys.size)


def _run_partition(keys: np.ndarray, budget: int) -> GreedyResult:
    """Key allocation: Algorithm 1 on one partition with local ranks.

    The partition keyset uses its own key range as the domain, so all
    candidates stay strictly inside the partition and first-stage
    routing is unaffected (the attack never poisons stage one).
    """
    local = KeySet(keys)
    return greedy_poison(local, budget, interior_only=True)


def _initial_budgets(total: int, n_models: int, threshold: int) -> np.ndarray:
    """Uniform volume allocation, remainder spread from the left."""
    base, remainder = divmod(total, n_models)
    budgets = np.full(n_models, base, dtype=np.int64)
    budgets[:remainder] += 1
    max_initial = base + (1 if remainder else 0)
    if max_initial > threshold:
        raise ValueError(
            f"per-model threshold {threshold} below the uniform share "
            f"{max_initial}; increase alpha")
    return budgets


def poison_rmi(keyset: KeySet, n_models: int,
               capability: RMIAttackerCapability,
               max_exchanges: int | None = None) -> RMIAttackResult:
    """Algorithm 2: greedy volume allocation + greedy key allocation.

    Parameters
    ----------
    keyset:
        The legitimate keys of the whole index.
    n_models:
        Number of second-stage models ``N`` (equal-size partition).
    capability:
        Attacker budget: poisoning percentage ``phi``, per-model
        threshold multiplier ``alpha`` and termination bound
        ``epsilon``.
    max_exchanges:
        Safety cap on greedy volume exchanges; defaults to ``10 * N``.
        Pass ``0`` for the *uniform allocation* ablation (no volume
        re-balancing, key allocation only).

    Returns
    -------
    RMIAttackResult
        Per-model and aggregate ratio losses plus the injected keys.
    """
    total_budget = capability.budget(keyset.n)
    threshold = capability.per_model_threshold(keyset.n, n_models)
    if max_exchanges is None:
        max_exchanges = 10 * n_models

    # Partition m holds keys[bounds[m]:bounds[m + 1]]; exchanges only
    # ever move a boundary, so every partition stays a contiguous slice.
    keys = keyset.keys
    parts = keyset.partition(n_models)
    bounds = np.cumsum([0] + [part.n for part in parts]).tolist()
    budgets = [int(b) for b in
               _initial_budgets(total_budget, n_models, threshold)]

    # Clean per-model baseline: the MSE of each second-stage model on
    # the *original* equal-size partition.  Exchanges later shift a few
    # boundary keys between neighbouring partitions, but the ratio the
    # paper reports is always against the un-attacked index.
    clean_losses = [fit_cdf_regression(part).mse for part in parts]

    results = [_run_partition(keys[start:end], budget)
               for start, end, budget in zip(bounds, bounds[1:], budgets)]

    n_pairs = n_models - 1
    exchanges = 0
    if n_pairs > 0 and max_exchanges > 0 and total_budget > 0:
        exchanges = _greedy_volume_allocation(
            keys, bounds, budgets, results, threshold,
            capability.epsilon, max_exchanges)

    reports = []
    poison: list[np.ndarray] = []
    for index, result in enumerate(results):
        reports.append(ModelPoisonReport(
            model_index=index,
            n_keys=bounds[index + 1] - bounds[index],
            budget=budgets[index],
            n_injected=result.n_injected,
            loss_before=clean_losses[index],
            loss_after=result.loss_after))
        if result.n_injected:
            poison.append(result.poison_keys)
    all_poison = (np.sort(np.concatenate(poison)) if poison
                  else np.empty(0, dtype=np.int64))
    return RMIAttackResult(
        reports=tuple(reports),
        poison_keys=all_poison,
        threshold=threshold,
        exchanges=exchanges)


# ----------------------------------------------------------------------
# Greedy volume allocation internals
# ----------------------------------------------------------------------

class _Partition(NamedTuple):
    """A hypothetical partition: ``keys[start:end]`` with ``budget``."""

    start: int
    end: int
    budget: int


def _exchange(bounds: list[int], budgets: list[int], i: int,
              forward: bool, threshold: int
              ) -> tuple[_Partition, _Partition] | None:
    """The partitions ``i`` and ``i+1`` an exchange between them makes.

    ``forward`` is the paper's ``i -> i+1`` (budget right, smallest
    key of ``i+1`` left); otherwise ``i <- i+1``.  Returns ``None``
    when the move is infeasible: the donor has no budget, the receiver
    would pass the threshold, or the key giver would be left empty.
    """
    step = 1 if forward else -1
    left = _Partition(bounds[i], bounds[i + 1] + step, budgets[i] - step)
    right = _Partition(left.end, bounds[i + 2], budgets[i + 1] + step)
    for part in (left, right):
        if part.start >= part.end or not 0 <= part.budget <= threshold:
            return None
    return left, right


def _greedy_volume_allocation(keys: np.ndarray, bounds: list[int],
                              budgets: list[int],
                              results: list[GreedyResult],
                              threshold: int, epsilon: float,
                              max_exchanges: int) -> int:
    """The CHANGELOSS loop of Algorithm 2; returns exchanges applied.

    Updates ``bounds``, ``budgets`` and ``results`` in place.
    """
    n_pairs = len(results) - 1
    # gain[forward][i] caches the change in sum_i L_i of exchanging
    # i -> i+1 (forward) or i <- i+1; NaN marks an infeasible move.
    # kept[forward][i] holds the (partition, result) pair of each side
    # behind that entry.  Algorithm 1 is deterministic, so a side whose
    # partition is unchanged keeps its result.
    gain = {forward: np.full(n_pairs, np.nan) for forward in (True, False)}
    kept: dict[bool, list[list[tuple[_Partition, GreedyResult] | None]]] = {
        forward: [[None, None] for _ in range(n_pairs)]
        for forward in (True, False)}

    def refresh(i: int) -> None:
        for forward in (True, False):
            parts = _exchange(bounds, budgets, i, forward, threshold)
            if parts is None:
                gain[forward][i] = np.nan
                continue
            sides = kept[forward][i]
            for side, part in enumerate(parts):
                if sides[side] is None or sides[side][0] != part:
                    sides[side] = part, _run_partition(
                        keys[part.start:part.end], part.budget)
            gain[forward][i] = (sides[0][1].loss_after
                                + sides[1][1].loss_after
                                - results[i].loss_after
                                - results[i + 1].loss_after)

    for i in range(n_pairs):
        refresh(i)

    exchanges = 0
    while exchanges < max_exchanges:
        fwd, bwd = gain[True], gain[False]
        best_fwd = np.nanmax(fwd) if not np.all(np.isnan(fwd)) else -np.inf
        best_bwd = np.nanmax(bwd) if not np.all(np.isnan(bwd)) else -np.inf
        best = max(best_fwd, best_bwd)
        if not np.isfinite(best) or best <= epsilon:
            break
        forward = bool(best_fwd >= best_bwd)
        i = int(np.nanargmax(gain[forward]))

        # The reverse move undoes this one, so its sides are exactly
        # the partitions being replaced.
        (left, left_result), (right, right_result) = kept[forward][i]
        kept[not forward][i] = [
            (_Partition(bounds[m], bounds[m + 1], budgets[m]), results[m])
            for m in (i, i + 1)]
        bounds[i + 1] = left.end
        budgets[i], budgets[i + 1] = left.budget, right.budget
        results[i], results[i + 1] = left_result, right_result
        exchanges += 1

        # Only entries touching partitions i-1, i, i+1, i+2 changed.
        for j in (i - 1, i, i + 1):
            if 0 <= j < n_pairs:
                refresh(j)
    return exchanges
