"""Bench A7: polynomial second-stage models vs the linear attack.

Section VI's final mitigation idea, quantified: refitting the
poisoned CDF with degree-2/3/5 models absorbs part of the inflated
loss at 2-5x the storage and compute — but does not restore the clean
loss, so the mitigation buys robustness only by spending exactly the
efficiency that made the learned index attractive.
"""

from repro.experiments import ablations


def test_ablation_polynomial(once):
    rows = once(lambda: ablations.run(
        "a7-polynomial", n_keys=1000, poisoning_percentage=10.0,
        degrees=(1, 2, 3, 5)))
    print()
    print(ablations.format_polynomial(rows))
    # More capacity absorbs more poisoning...
    ratios = [r.poisoned_ratio for r in rows]
    assert ratios[-1] < ratios[0]
    # ...but even degree 5 leaves multi-x residual damage.
    assert ratios[-1] > 2.0
    # And the costs grow exactly as the paper warns.
    assert rows[-1].n_parameters > rows[0].n_parameters
    assert rows[-1].multiply_adds > rows[0].multiply_adds
