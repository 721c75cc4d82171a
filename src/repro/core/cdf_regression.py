"""Closed-form linear regression on the empirical CDF (Theorem 1).

The learned-index building block under attack: given the key/rank
pairs ``(k_i, r_i)`` of a keyset, fit ``r ~ w*k + b`` by minimising
the mean squared error.  Theorem 1 of the paper gives the closed form

    w* = Cov(K, R) / Var(K)
    b* = mean(R) - w* * mean(K)
    L  = Var(R) - Cov(K, R)^2 / Var(K)

(the displayed loss in the paper has a typographical slip —
``-Cov^2/VarR + VarK`` — the algebra used by its own update equations,
and by this module, is ``VarR - Cov^2/VarK``).

All statistics are computed on *mean-centred* arrays: regression loss
is invariant under translating keys, and centring avoids catastrophic
cancellation when a second-stage RMI model regresses a narrow band of
very large keys (e.g. 100 keys near 10^9).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.keyset import KeySet

__all__ = ["LinearModel", "RegressionFit", "fit_cdf_regression",
           "fit_ridge_cdf", "mse_of"]


@dataclass(frozen=True)
class LinearModel:
    """The two-parameter model ``position = slope * key + intercept``.

    The storage cost of exactly two floats (and a prediction cost of
    one multiply-add) is what makes linear second-stage models the
    backbone of performant RMIs — and what the paper argues cannot be
    hardened without giving up the LIS performance advantage.
    """

    slope: float
    intercept: float

    def predict(self, keys: np.ndarray | int | float) -> np.ndarray | float:
        """Predicted (fractional) rank(s) for the given key(s)."""
        return self.slope * np.asarray(keys, dtype=np.float64) + self.intercept


@dataclass(frozen=True)
class RegressionFit:
    """A fitted model together with its training loss.

    Attributes
    ----------
    model:
        The optimal :class:`LinearModel`.
    mse:
        The minimal mean squared error ``L`` of Theorem 1 — the value
        the poisoning attack maximises.
    n:
        Number of training points.
    """

    model: LinearModel
    mse: float
    n: int


def _fit_centred(keys: np.ndarray, ranks: np.ndarray) -> RegressionFit:
    keys = np.asarray(keys, dtype=np.float64)
    ranks = np.asarray(ranks, dtype=np.float64)
    n = keys.size
    if n == 0:
        raise ValueError("cannot fit a regression on an empty keyset")
    mean_k = keys.mean()
    mean_r = ranks.mean()
    dk = keys - mean_k
    dr = ranks - mean_r
    var_k = float(dk @ dk) / n
    var_r = float(dr @ dr) / n
    cov = float(dk @ dr) / n
    if var_k == 0.0:
        # Degenerate single-key (or constant-key) input: the best
        # horizontal line predicts the mean rank.
        model = LinearModel(0.0, mean_r)
        return RegressionFit(model, var_r, n)
    slope = cov / var_k
    intercept = mean_r - slope * mean_k
    mse = max(var_r - cov * cov / var_k, 0.0)
    return RegressionFit(LinearModel(slope, intercept), mse, n)


def fit_cdf_regression(keyset: KeySet | np.ndarray,
                       ranks: np.ndarray | None = None) -> RegressionFit:
    """Fit the optimal line through a CDF (Definition 1 / Theorem 1).

    Parameters
    ----------
    keyset:
        Either a :class:`KeySet` (its ranks ``1..n`` are used) or a
        raw sorted key array accompanied by explicit ``ranks``.
    ranks:
        Optional explicit rank array; required when ``keyset`` is a
        raw array, ignored otherwise.  RMI second-stage models pass
        *global* ranks here; the fitted loss is identical to using
        partition-local ranks because the intercept absorbs the shift.
    """
    if isinstance(keyset, KeySet):
        return _fit_centred(keyset.keys, keyset.ranks)
    if ranks is None:
        raise ValueError("raw key arrays require an explicit rank array")
    keys = np.asarray(keyset)
    if keys.shape != np.asarray(ranks).shape:
        raise ValueError("keys and ranks must have matching shapes")
    return _fit_centred(keys, np.asarray(ranks))


def fit_ridge_cdf(keyset: KeySet | np.ndarray, lam: float,
                  ranks: np.ndarray | None = None) -> RegressionFit:
    """L2-regularised linear regression on a CDF.

    Definition 1 with a ridge penalty ``lam * w^2`` on the (centred)
    slope: ``w* = Cov / (Var(K) + lam)``.  The paper deliberately
    studies the *non-regularised* model and remarks that "the impact
    of regularization is unclear in the context of LIS" (queries are
    training data); the ``a10-ridge`` ablation target
    (:data:`repro.experiments.ablations.ABLATIONS`) measures whether
    shrinkage buys any poisoning robustness.  The
    reported ``mse`` is the *unpenalised* training error of the
    shrunken model — the quantity that drives lookup cost.

    ``lam`` is expressed in key-variance units (it is added directly
    to ``Var(K)``), so ``lam = Var(K)`` halves the slope.
    """
    if lam < 0.0:
        raise ValueError(f"ridge penalty must be non-negative: {lam}")
    if isinstance(keyset, KeySet):
        keys = keyset.keys.astype(np.float64)
        responses = keyset.ranks.astype(np.float64)
    else:
        if ranks is None:
            raise ValueError("raw key arrays require an explicit rank array")
        keys = np.asarray(keyset, dtype=np.float64)
        responses = np.asarray(ranks, dtype=np.float64)
    n = keys.size
    if n == 0:
        raise ValueError("cannot fit a regression on an empty keyset")
    mean_k = keys.mean()
    mean_r = responses.mean()
    dk = keys - mean_k
    dr = responses - mean_r
    var_k = float(dk @ dk) / n
    cov = float(dk @ dr) / n
    denominator = var_k + lam
    slope = cov / denominator if denominator > 0 else 0.0
    intercept = mean_r - slope * mean_k
    model = LinearModel(slope, intercept)
    return RegressionFit(model, mse_of(model, keys, responses), n)


def mse_of(model: LinearModel, keys: np.ndarray,
           ranks: np.ndarray) -> float:
    """Mean squared error of an arbitrary model on given CDF points.

    Used to evaluate a *stale* model (trained before poisoning) on the
    post-poisoning CDF, and by defenses that refit on subsets.
    """
    keys = np.asarray(keys, dtype=np.float64)
    ranks = np.asarray(ranks, dtype=np.float64)
    if keys.size == 0:
        raise ValueError("cannot evaluate a model on zero points")
    residuals = model.predict(keys) - ranks
    return float(residuals @ residuals) / keys.size
