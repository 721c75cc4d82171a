"""Bench A6: deletion adversary vs insertion adversary.

Section VI names key removal as an open extension; the mirrored
compound effect makes the same O(n)-per-step greedy attack work.
Insertion stays stronger at equal budget (it *adds* degrees of
freedom to bend the CDF; deletion can only subtract), but deletion
achieves multi-x damage without contributing a single record.
"""

from repro.experiments import ablations


def test_ablation_deletion(once):
    rows = once(lambda: ablations.run(
        "a6-deletion", n_keys=1000, percentages=(5.0, 10.0, 20.0)))
    print()
    print(ablations.format_deletion(rows))
    for row in rows:
        assert row.deletion_ratio > 1.0
    # Damage grows with the budget for both adversaries.
    assert rows[-1].deletion_ratio > rows[0].deletion_ratio
    assert rows[-1].insertion_ratio > rows[0].insertion_ratio
