"""Adversarial model of Section III-C as explicit configuration.

The paper's attacker is a *white-box poisoning availability* adversary:

* it knows the training keyset and the (future) model parameters;
* it injects up to ``p`` crafted keys before the index is trained,
  with ``100 * p / n`` (the *poisoning percentage*) capped at 20%;
* against an RMI it additionally respects a *per-model threshold*
  ``t = alpha * phi * n / N`` so that no single second-stage model is
  overpopulated enough to trip a volume-based defense (Sec. V).

Encoding the knobs in frozen dataclasses keeps every experiment's
assumptions auditable and rules out accidental out-of-model configs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["AttackerCapability", "RMIAttackerCapability"]

#: Hard cap on the poisoning percentage (Sec. III-C).
MAX_POISONING_PERCENTAGE = 20.0


@dataclass(frozen=True)
class AttackerCapability:
    """Budget of the regression attacker.

    Attributes
    ----------
    poisoning_percentage:
        ``100 * p / n`` — crafted keys as a share of legitimate keys.
    """

    poisoning_percentage: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.poisoning_percentage <= MAX_POISONING_PERCENTAGE:
            raise ValueError(
                "poisoning percentage must be within [0, "
                f"{MAX_POISONING_PERCENTAGE}], got {self.poisoning_percentage}")

    def budget(self, n_keys: int) -> int:
        """Total number of poisoning keys for an ``n_keys`` index."""
        return int(n_keys * self.poisoning_percentage / 100.0)


@dataclass(frozen=True)
class RMIAttackerCapability(AttackerCapability):
    """Budget of the RMI attacker (adds the per-model threshold).

    Attributes
    ----------
    alpha:
        Multiplier of the uniform share: each second-stage model may
        receive at most ``t = alpha * phi * n / N`` poisoning keys.
        The paper evaluates ``alpha`` in {2, 3}.
    epsilon:
        Termination bound of the greedy volume-allocation loop
        (Algorithm 2 stops when no exchange improves the RMI loss by
        more than ``epsilon``).
    """

    alpha: float = 3.0
    epsilon: float = 1e-9

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.alpha < 1.0:
            raise ValueError(
                f"alpha must be >= 1 (uniform allocation), got {self.alpha}")
        if self.epsilon < 0.0:
            raise ValueError(f"epsilon must be non-negative: {self.epsilon}")

    def per_model_threshold(self, n_keys: int, n_models: int) -> int:
        """Per-model cap ``t = alpha * phi * n / N`` (at least 1)."""
        uniform_share = self.budget(n_keys) / n_models
        return max(1, math.floor(self.alpha * uniform_share))
