"""Two-stage Recursive Model Index (RMI) over a sorted store.

The index architecture of Kraska et al. that the paper attacks
(Sec. III-A): stage one routes a key to one of ``N`` second-stage
linear regression models; the chosen expert predicts a position in the
sorted array; a bounded "last mile" binary search inside the model's
recorded error window lands on the record.

Two build modes are provided:

* :meth:`RecursiveModelIndex.build_equal_size` — the paper's
  architecture: equal-size rank partitions with perfect stage-one
  routing (implemented by :class:`BoundaryRoot`, a partition-boundary
  table; the paper observes the trained NN always routes training
  keys correctly, so a boundary oracle is behaviourally identical and
  keeps the attack analysis exact);
* :meth:`RecursiveModelIndex.build_with_root` — Kraska-style routing
  through a trained :class:`~repro.index.first_stage.RootModel` (the
  numpy MLP, a piecewise-linear spline, or a single line); keys are
  assigned to whichever expert the root actually routes them to, so
  lookups remain correct by construction.

Every lookup returns its probe count; after a poisoning attack the
per-model error windows widen and the probe counts grow — this is the
end-to-end performance effect the paper's Ratio Loss metric proxies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.keyset import KeySet
from .batch import BatchLookupResult
from .first_stage import RootModel
from .sorted_store import SortedStore

__all__ = ["BoundaryRoot", "SecondStageModel", "RecursiveModelIndex"]


class BoundaryRoot(RootModel):
    """Perfect router for equal-size rank partitions.

    Stores the first key of every partition and routes with one
    binary search over ``N`` boundaries.  Position prediction
    interpolates partition start ranks — only routing matters here.
    """

    def __init__(self) -> None:
        self._boundaries = np.empty(0, dtype=np.int64)
        self._start_ranks = np.empty(0, dtype=np.float64)
        self._n_total = 0

    def fit_boundaries(self, boundaries: np.ndarray,
                       start_ranks: np.ndarray,
                       n_total: int) -> "BoundaryRoot":
        """Install partition boundaries directly (no training)."""
        self._boundaries = np.asarray(boundaries, dtype=np.int64)
        self._start_ranks = np.asarray(start_ranks, dtype=np.float64)
        self._n_total = n_total
        return self

    def fit(self, keys: np.ndarray, ranks: np.ndarray) -> "BoundaryRoot":
        raise NotImplementedError(
            "BoundaryRoot is installed via fit_boundaries by the RMI builder")

    def predict_position(self, keys: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self._boundaries, np.asarray(keys),
                              side="right") - 1
        idx = np.clip(idx, 0, self._boundaries.size - 1)
        return self._start_ranks[idx]

    def route(self, keys: np.ndarray, n_total: int,
              n_models: int) -> np.ndarray:
        # np.minimum/np.maximum, not np.clip: on a serving tick's
        # batch the clip wrapper costs more than the search itself.
        idx = np.searchsorted(self._boundaries, np.asarray(keys),
                              side="right") - 1
        return np.minimum(np.maximum(idx, 0), n_models - 1)


@dataclass(frozen=True)
class SecondStageModel:
    """One linear expert plus its recorded error window.

    ``err_lo``/``err_hi`` are the most negative / most positive
    position errors observed over the keys this model serves; the
    lookup searches ``[pred + err_lo, pred + err_hi]``.  ``mse`` is
    the training loss the poisoning attack inflates.
    """

    slope: float
    intercept: float
    err_lo: int
    err_hi: int
    n_keys: int
    mse: float

    def predict(self, keys: np.ndarray | float) -> np.ndarray | float:
        """Predicted position(s) for key(s)."""
        return self.slope * np.asarray(keys, dtype=np.float64) + self.intercept

    @property
    def window(self) -> int:
        """Width of the last-mile search window in cells."""
        return self.err_hi - self.err_lo + 1


class RecursiveModelIndex:
    """The two-stage learned index under attack."""

    def __init__(self, store: SortedStore, root: RootModel,
                 models: tuple[SecondStageModel, ...],
                 assignment: np.ndarray):
        self._store = store
        self._root = root
        self._models = models
        self._assignment = assignment  # model index per stored key
        # Per-model parameters as arrays, gathered once: models are
        # immutable, and lookup_batch is called per query run in the
        # serving hot path.
        self._slopes = np.asarray([m.slope for m in models])
        self._intercepts = np.asarray([m.intercept for m in models])
        err_lo = np.asarray([m.err_lo for m in models], dtype=np.int64)
        err_hi = np.asarray([m.err_hi for m in models], dtype=np.int64)
        # The last-mile half-width each expert searches, with one
        # cell of rounding slack on either side of its error range.
        self._half_width = np.maximum(np.abs(err_lo - 1),
                                      np.abs(err_hi + 1))
        # An expert that serves no key has window 1, no wider than a
        # served one's, so the widest window is a max over them all.
        self._max_window = int((err_hi - err_lo).max()) + 1

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    @classmethod
    def build_equal_size(cls, keyset: KeySet | np.ndarray,
                         n_models: int) -> "RecursiveModelIndex":
        """Equal-size rank partition + perfect routing (the paper's RMI)."""
        keys = keyset.keys if isinstance(keyset, KeySet) else np.asarray(
            keyset, dtype=np.int64)
        n = keys.size
        if not 1 <= n_models <= n:
            raise ValueError(
                f"cannot build {n_models} models over {n} keys")
        pieces = np.array_split(np.arange(n), n_models)
        assignment = np.empty(n, dtype=np.int64)
        boundaries = np.empty(n_models, dtype=np.int64)
        start_ranks = np.empty(n_models, dtype=np.float64)
        for j, piece in enumerate(pieces):
            assignment[piece] = j
            boundaries[j] = keys[piece[0]]
            start_ranks[j] = float(piece[0])
        root = BoundaryRoot().fit_boundaries(boundaries, start_ranks, n)
        models = cls._fit_second_stage(keys, assignment, n_models)
        return cls(SortedStore(keys), root, models, assignment)

    @classmethod
    def build_with_root(cls, keyset: KeySet | np.ndarray, n_models: int,
                        root: RootModel) -> "RecursiveModelIndex":
        """Kraska-style build: assign keys by actual root routing."""
        keys = keyset.keys if isinstance(keyset, KeySet) else np.asarray(
            keyset, dtype=np.int64)
        n = keys.size
        positions = np.arange(n, dtype=np.float64)
        root.fit(keys, positions)
        assignment = root.route(keys, n, n_models)
        models = cls._fit_second_stage(keys, assignment, n_models)
        return cls(SortedStore(keys), root, models, assignment)

    @staticmethod
    def _fit_second_stage(keys: np.ndarray, assignment: np.ndarray,
                          n_models: int) -> tuple[SecondStageModel, ...]:
        """Fit one linear model per expert on (key, global position).

        One grouping pass: a stable argsort of ``assignment`` lines
        each expert's keys up contiguously in their original order, so
        every expert fits the same values in the same order as a
        per-expert mask would select.
        """
        order = np.argsort(assignment, kind="stable")
        bounds = np.searchsorted(assignment[order],
                                 np.arange(n_models + 1))
        grouped_keys = keys[order].astype(np.float64)
        grouped_pos = order.astype(np.float64)
        models = []
        for j in range(n_models):
            lo, hi = int(bounds[j]), int(bounds[j + 1])
            count = hi - lo
            if count == 0:
                # An expert that serves no key predicts nothing; give
                # it a degenerate model with an empty window.
                models.append(SecondStageModel(0.0, 0.0, 0, 0, 0, 0.0))
                continue
            sub_keys = grouped_keys[lo:hi]
            sub_pos = grouped_pos[lo:hi]
            mk, mp = sub_keys.mean(), sub_pos.mean()
            dk = sub_keys - mk
            var = float(dk @ dk)
            if var == 0.0:
                slope, intercept = 0.0, mp
            else:
                slope = float(dk @ (sub_pos - mp)) / var
                intercept = mp - slope * mk
            pred = slope * sub_keys + intercept
            errors = sub_pos - pred
            mse = float(errors @ errors) / count
            models.append(SecondStageModel(
                slope=slope,
                intercept=intercept,
                err_lo=int(np.floor(errors.min())),
                err_hi=int(np.ceil(errors.max())),
                n_keys=count,
                mse=mse))
        return tuple(models)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def store(self) -> SortedStore:
        """The backing sorted array."""
        return self._store

    @property
    def root(self) -> RootModel:
        """The first-stage router."""
        return self._root

    def route_key(self, key: int) -> int:
        """Second-stage model index a key is dispatched to."""
        return int(self._root.route(np.asarray([key]), len(self._store),
                                    self.n_models)[0])

    @property
    def n_models(self) -> int:
        """Number of second-stage experts."""
        return len(self._models)

    @property
    def models(self) -> tuple[SecondStageModel, ...]:
        """The second-stage experts (read-only tuple)."""
        return self._models

    def second_stage_mse(self) -> np.ndarray:
        """Training MSE of each expert — the attack's target metric."""
        return np.asarray([m.mse for m in self._models])

    def max_search_window(self) -> int:
        """Largest last-mile window across experts (worst lookup)."""
        return self._max_window

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup_batch(self, keys: np.ndarray) -> BatchLookupResult:
        """Find keys: route, predict, bounded last-mile search.

        Routes every key through the root in one pass, gathers each
        routed expert's line and error window, and resolves the last
        mile with one batched windowed binary search.  Always correct
        for stored keys (error windows were recorded over exactly the
        keys each expert serves); absent keys report ``found=False``
        after exhausting the window.
        """
        n = len(self._store)
        keys = np.asarray(keys, dtype=np.int64)
        model_idx = np.asarray(
            self._root.route(keys, n, self.n_models), dtype=np.int64)
        predicted = np.rint(self._slopes[model_idx]
                            * keys.astype(np.float64)
                            + self._intercepts[model_idx]
                            ).astype(np.int64)
        predicted = np.minimum(np.maximum(predicted, 0), n - 1)
        probe = self._store.search_window_batch(
            keys, predicted, self._half_width[model_idx])
        return BatchLookupResult(found=probe.found,
                                 positions=probe.positions,
                                 probes=probe.probes,
                                 model_index=model_idx)

    def lookup_cost(self, keys: np.ndarray) -> float:
        """Mean probe count over a batch of lookups."""
        keys = np.asarray(keys)
        if keys.size == 0:
            raise ValueError("need at least one key to measure cost")
        return float(self.lookup_batch(keys).probes.mean())
