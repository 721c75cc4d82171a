"""Retrains merge their sorted parts instead of re-sorting them.

``merge_disjoint`` folds sorted, pairwise-disjoint side tables into
one array and ``drop_sorted`` takes keys out of a sorted one;
``live_keys`` and the dynamic index's retrain build on them, and
``RecursiveModelIndex._fit_second_stage`` groups keys by model in one
stable argsort.  Each is checked against the literal form it replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.batch import drop_sorted, merge_disjoint
from repro.index.rmi import RecursiveModelIndex, SecondStageModel
from repro.workload import make_backend


@settings(max_examples=60, deadline=None)
@given(keys=st.sets(st.integers(-10**12, 10**12), max_size=300),
       parts=st.integers(1, 4), seed=st.integers(0, 2**31 - 1))
def test_merge_disjoint_equals_sorting(keys, parts, seed):
    keys = np.asarray(sorted(keys), dtype=np.int64)
    owner = np.random.default_rng(seed).integers(0, parts, keys.size)
    split = [keys[owner == p] for p in range(parts)]
    assert np.array_equal(merge_disjoint(*split),
                          np.sort(np.concatenate(split)))


@settings(max_examples=60, deadline=None)
@given(keys=st.sets(st.integers(-50, 50), max_size=60),
       drop=st.lists(st.integers(-60, 60), max_size=40))
def test_drop_sorted_equals_setdiff(keys, drop):
    """Any drop list (unsorted, repeated, absent keys) leaves
    ``setdiff1d``'s array, and the input itself when nothing goes."""
    keys = np.asarray(sorted(keys), dtype=np.int64)
    drop = np.asarray(drop, dtype=np.int64)
    out = drop_sorted(keys, drop)
    assert np.array_equal(out, np.setdiff1d(keys, drop))
    assert (out is keys) == (not np.isin(drop, keys).any())


def _fit_per_model_masks(keys, assignment, n_models):
    """The per-model-mask fit the grouped pass replaced."""
    positions = np.arange(keys.size, dtype=np.float64)
    models = []
    for j in range(n_models):
        mask = assignment == j
        count = int(mask.sum())
        if count == 0:
            models.append(SecondStageModel(0.0, 0.0, 0, 0, 0, 0.0))
            continue
        sub_keys = keys[mask].astype(np.float64)
        sub_pos = positions[mask]
        mk, mp = sub_keys.mean(), sub_pos.mean()
        dk = sub_keys - mk
        var = float(dk @ dk)
        if var == 0.0:
            slope, intercept = 0.0, mp
        else:
            slope = float(dk @ (sub_pos - mp)) / var
            intercept = mp - slope * mk
        errors = sub_pos - (slope * sub_keys + intercept)
        models.append(SecondStageModel(
            slope=slope, intercept=intercept,
            err_lo=int(np.floor(errors.min())),
            err_hi=int(np.ceil(errors.max())),
            n_keys=count, mse=float(errors @ errors) / count))
    return tuple(models)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 400), n_models=st.integers(1, 40),
       seed=st.integers(0, 2**31 - 1))
def test_grouped_fit_matches_per_model_masks(n, n_models, seed):
    """Bit-identical models for any assignment, sorted or not, with
    empty experts included."""
    rng = np.random.default_rng(seed)
    keys = np.sort(rng.choice(10**9, n, replace=False)).astype(np.int64)
    assignment = rng.integers(0, n_models, n)
    if seed % 2:
        assignment = np.sort(assignment)  # the equal-size build's shape
    assert (RecursiveModelIndex._fit_second_stage(keys, assignment,
                                                  n_models)
            == _fit_per_model_masks(keys, assignment, n_models))


@pytest.mark.parametrize("backend", ("linear", "rmi", "dynamic"))
def test_live_keys_equal_the_set_formula(backend):
    """Snapshot minus tombstones plus delta plus quarantine, with all
    four parts non-empty."""
    base = np.arange(0, 2_000, 4, dtype=np.int64)
    b = make_backend(backend, base, rebuild_threshold=0.9,
                     trim_keep_fraction=0.8)
    b.rebuild()
    b.insert_batch(np.arange(1, 200, 8, dtype=np.int64))
    b.delete_batch(base[::7])
    if backend == "dynamic":
        index = b._index
        model, delta = index.rmi.store.keys, index.delta_keys
        quarantine = index.quarantine_keys
    else:
        model, delta, quarantine = b._snapshot, b._delta, b._quarantine
    assert min(model.size, delta.size, quarantine.size,
               b._tombs.size) > 0
    expected = np.setdiff1d(
        np.union1d(model, np.union1d(delta, quarantine)), b._tombs)
    assert np.array_equal(b.live_keys(), expected)
