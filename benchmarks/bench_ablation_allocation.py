"""Bench A5: greedy volume allocation vs the uniform initialisation.

Quantifies what Algorithm 2's exchange loop adds over simply splitting
the budget evenly and running Algorithm 1 per partition.
"""

from repro.experiments import ablations


def test_ablation_allocation(once):
    rows = once(lambda: ablations.run(
        "a5-allocation", n_keys=10_000, model_size=500))
    print()
    print(ablations.format_allocation(rows))
    for row in rows:
        assert row.greedy_ratio >= row.uniform_ratio - 1e-9
