"""Bench A10: ridge regularisation against the poisoning attack.

The paper sets regularisation aside ("the impact of regularization is
unclear in the context of LIS" — queries are training data).  This
ablation closes the question empirically: shrinkage reduces the
*ratio* only by inflating the clean loss, i.e. by pre-paying the
damage — the poisoned absolute loss barely moves.
"""

from repro.experiments import ablations


def test_ablation_ridge(once):
    rows = once(lambda: ablations.run(
        "a10-ridge", n_keys=1000, lam_fractions=(0.0, 0.01, 0.1, 0.5)))
    print()
    print(ablations.format_ridge(rows))
    # Ratio falls with shrinkage...
    assert rows[-1].poisoned_ratio < rows[0].poisoned_ratio
    # ...but only because the clean loss explodes,
    assert rows[-1].clean_mse > 10 * rows[0].clean_mse
    # while the poisoned absolute loss never improves materially.
    assert rows[-1].poisoned_mse > 0.5 * rows[0].poisoned_mse
