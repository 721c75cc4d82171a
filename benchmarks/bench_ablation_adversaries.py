"""Bench A11: the three Sec. VI adversaries head to head.

Insert (the paper's attack), delete, and modify at equal budgets.  The
modification adversary — a delete + insert pair per budget unit, key
count conserved — matches or beats pure insertion while remaining
invisible to cardinality audits.
"""

from repro.experiments import ablations


def test_ablation_adversaries(once):
    rows = once(lambda: ablations.run(
        "a11-adversaries", n_keys=1000, percentages=(5.0, 10.0, 20.0)))
    print()
    print(ablations.format_adversaries(rows))
    for row in rows:
        assert row.insertion_ratio > 1.0
        assert row.deletion_ratio > 1.0
        # Two perturbations per unit: modify >= insert (with slack).
        assert row.modification_ratio >= 0.8 * row.insertion_ratio
    # Everything grows with the budget.
    assert rows[-1].modification_ratio > rows[0].modification_ratio
