"""Bench A9: poisoning through the update channel of a dynamic index.

A deployed learned index that retrains on (base + buffered inserts)
gives an insert-only adversary the same poisoning power as the static
pre-training adversary: the final merged training set is identical, so
the post-retrain damage matches the static Algorithm 2 attack.
"""

from repro.experiments import ablations


def test_ablation_updates(once):
    (report,) = once(lambda: ablations.run(
        "a9-updates", n_keys=2000, n_models=20, poisoning_percentage=10.0))
    print()
    print(ablations.format_update([report]))
    assert report.retrains_triggered >= 1
    # The update channel stages the identical training set, so the
    # damage matches the static attack (up to float summation order).
    assert abs(report.update_ratio - report.static_ratio) \
        <= 1e-9 * report.static_ratio
    assert report.poisoned_lookup_cost > report.clean_lookup_cost
