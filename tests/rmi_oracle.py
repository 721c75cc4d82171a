"""Algorithm 2 read literally: the reference arm of the RMI properties.

:func:`literal_poison_rmi` keeps every partition as its own key array.
At each step it rebuilds all ``2(N-1)`` CHANGELOSS entries from
scratch, running Algorithm 1 (``greedy_poison``) on both hypothetical
partitions of every feasible exchange, and then picks the exchange
with the rule of the paper's loop: the largest loss gain, forward
moves winning ties, stopping once no gain exceeds ``epsilon``.
Nothing is cached between steps, so the production loop's bookkeeping
(which entries a move invalidates, which results it may keep) is
checked against a version that has none.  Imported as ``rmi_oracle``,
like ``replay_oracle``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import RMIAttackerCapability
from repro.core.greedy import GreedyResult, greedy_poison
from repro.data import KeySet


@dataclass(frozen=True)
class LiteralOutcome:
    """What the literal loop ends with, per model and in total."""

    partitions: list[np.ndarray]
    budgets: list[int]
    results: list[GreedyResult]
    exchanges: int

    @property
    def poison_keys(self) -> np.ndarray:
        """All injected keys across models (sorted)."""
        placed = [r.poison_keys for r in self.results if r.n_injected]
        return (np.sort(np.concatenate(placed)) if placed
                else np.empty(0, dtype=np.int64))


def _algorithm1(keys: np.ndarray, budget: int) -> GreedyResult:
    return greedy_poison(KeySet(keys), budget, interior_only=True)


def _exchange(partitions: list[np.ndarray], budgets: list[int], i: int,
              forward: bool):
    """Partitions and budgets after exchanging ``i``/``i+1``."""
    left, right = partitions[i], partitions[i + 1]
    if forward:
        keys = (np.append(left, right[0]), right[1:])
        shift = (-1, +1)
    else:
        keys = (left[:-1], np.concatenate([left[-1:], right]))
        shift = (+1, -1)
    new_partitions = list(partitions)
    new_budgets = list(budgets)
    new_partitions[i:i + 2] = keys
    new_budgets[i] += shift[0]
    new_budgets[i + 1] += shift[1]
    return new_partitions, new_budgets


def _feasible(partitions: list[np.ndarray], budgets: list[int], i: int,
              forward: bool, threshold: int) -> bool:
    """Budget, threshold and the two-key floor of the donor side."""
    donor, receiver = (i, i + 1) if forward else (i + 1, i)
    key_giver = i + 1 if forward else i
    return (budgets[donor] >= 1 and budgets[receiver] + 1 <= threshold
            and partitions[key_giver].size >= 2)


def literal_poison_rmi(keyset: KeySet, n_models: int,
                       capability: RMIAttackerCapability,
                       max_exchanges: int | None = None) -> LiteralOutcome:
    """Algorithm 2 with every CHANGELOSS entry recomputed each step."""
    total = capability.budget(keyset.n)
    threshold = capability.per_model_threshold(keyset.n, n_models)
    if max_exchanges is None:
        max_exchanges = 10 * n_models
    base, remainder = divmod(total, n_models)
    budgets = [base + (1 if m < remainder else 0) for m in range(n_models)]
    partitions = [p.keys.copy() for p in keyset.partition(n_models)]
    results = [_algorithm1(k, b) for k, b in zip(partitions, budgets)]

    exchanges = 0
    while (n_models > 1 and total > 0 and exchanges < max_exchanges):
        deltas = {True: np.full(n_models - 1, np.nan),
                  False: np.full(n_models - 1, np.nan)}
        for forward, table in deltas.items():
            for i in range(n_models - 1):
                if not _feasible(partitions, budgets, i, forward,
                                 threshold):
                    continue
                keys, funds = _exchange(partitions, budgets, i, forward)
                new_left = _algorithm1(keys[i], funds[i])
                new_right = _algorithm1(keys[i + 1], funds[i + 1])
                table[i] = (new_left.loss_after + new_right.loss_after
                            - results[i].loss_after
                            - results[i + 1].loss_after)
        best = {forward: (np.nanmax(table) if not np.all(np.isnan(table))
                          else -np.inf)
                for forward, table in deltas.items()}
        top = max(best[True], best[False])
        if not np.isfinite(top) or top <= capability.epsilon:
            break
        forward = best[True] >= best[False]
        i = int(np.nanargmax(deltas[forward]))
        partitions, budgets = _exchange(partitions, budgets, i, forward)
        results[i] = _algorithm1(partitions[i], budgets[i])
        results[i + 1] = _algorithm1(partitions[i + 1], budgets[i + 1])
        exchanges += 1
    return LiteralOutcome(partitions=partitions, budgets=budgets,
                          results=results, exchanges=exchanges)
