"""Property-based invariants of Algorithm 2 over random configurations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RMIAttackerCapability, fit_cdf_regression, poison_rmi
from repro.data import Domain, KeySet
from rmi_oracle import literal_poison_rmi


@st.composite
def attack_scenarios(draw, min_models=1, max_models=None):
    """Random (keyset, n_models, capability) triples that are valid."""
    n_keys = draw(st.integers(min_value=40, max_value=200))
    spread = draw(st.integers(min_value=4, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    keys = rng.choice(n_keys * spread, size=n_keys, replace=False)
    keyset = KeySet(keys, Domain(0, n_keys * spread))
    most = max(1, n_keys // 10)
    if max_models is not None:
        most = min(most, max_models)
    n_models = draw(st.integers(min_value=min_models, max_value=most))
    percentage = draw(st.sampled_from([5.0, 10.0, 20.0]))
    alpha = draw(st.sampled_from([2.0, 3.0, 5.0]))
    capability = RMIAttackerCapability(poisoning_percentage=percentage,
                                       alpha=alpha)
    return keyset, n_models, capability


@given(attack_scenarios())
@settings(max_examples=25, deadline=None)
def test_rmi_attack_invariants(scenario):
    """Budget conservation, threshold, disjointness, refit exactness."""
    keyset, n_models, capability = scenario
    try:
        result = poison_rmi(keyset, n_models, capability,
                            max_exchanges=min(10, n_models))
    except ValueError:
        # Threshold below the uniform share for this (alpha, N): the
        # config is rejected loudly, which is itself the contract.
        assert capability.per_model_threshold(keyset.n, n_models) \
            < int(np.ceil(capability.budget(keyset.n) / n_models))
        return

    # Budgets conserve the total and respect the per-model threshold.
    budgets = [r.budget for r in result.reports]
    assert sum(budgets) == capability.budget(keyset.n)
    assert all(b <= result.threshold for b in budgets)

    # Injected keys are unique, absent from the keyset, in-domain.
    poison = result.poison_keys
    assert np.unique(poison).size == poison.size
    assert not np.isin(poison, keyset.keys).any()
    if poison.size:
        assert poison.min() >= keyset.domain.lo
        assert poison.max() <= keyset.domain.hi

    # Loss never decreases and ratios are consistent.
    assert result.rmi_loss_after >= result.rmi_loss_before - 1e-9
    for report in result.reports:
        assert report.n_injected <= report.budget
        assert report.loss_after >= -1e-12


@given(attack_scenarios())
@settings(max_examples=15, deadline=None)
def test_rmi_attack_full_refit_consistency(scenario):
    """The poisoned index really exhibits the reported damage.

    Rebuild the per-partition regressions on (original partition keys
    + the poison keys that landed in their span) and compare with the
    attack's own report, uniform-allocation mode so partitions match.
    """
    keyset, n_models, capability = scenario
    try:
        result = poison_rmi(keyset, n_models, capability,
                            max_exchanges=0)
    except ValueError:
        return
    partitions = keyset.partition(n_models)
    for part, report in zip(partitions, result.reports):
        in_part = result.poison_keys[
            (result.poison_keys >= part.keys[0])
            & (result.poison_keys <= part.keys[-1])]
        if in_part.size == 0:
            assert report.loss_after == pytest.approx(
                fit_cdf_regression(part).mse, rel=1e-7, abs=1e-9)
            continue
        refit = fit_cdf_regression(part.insert(in_part)).mse
        assert report.loss_after == pytest.approx(refit, rel=1e-6,
                                                  abs=1e-9)


@given(attack_scenarios(min_models=2, max_models=8),
       st.integers(min_value=0, max_value=12))
@settings(max_examples=60, deadline=None)
def test_rmi_attack_matches_the_literal_algorithm(scenario, max_exchanges):
    """The CHANGELOSS bookkeeping changes no choice Algorithm 2 makes.

    The oracle rebuilds every entry from materialised partitions at
    each step, so any entry the production loop keeps too long (or a
    kept result that differs from a fresh run) shows as a different
    exchange count, allocation or poison key.
    """
    keyset, n_models, capability = scenario
    try:
        result = poison_rmi(keyset, n_models, capability,
                            max_exchanges=max_exchanges)
    except ValueError:
        return
    literal = literal_poison_rmi(keyset, n_models, capability,
                                 max_exchanges=max_exchanges)
    assert result.exchanges == literal.exchanges
    assert np.array_equal(result.poison_keys, literal.poison_keys)
    assert len(result.reports) == n_models
    for report, keys, budget, outcome in zip(
            result.reports, literal.partitions, literal.budgets,
            literal.results):
        assert report.budget == budget
        assert report.n_keys == keys.size
        assert report.n_injected == outcome.n_injected
        assert report.loss_after == outcome.loss_after
