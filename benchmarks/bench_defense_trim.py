"""Bench A2: TRIM defenses against the CDF poisoning attack.

Prints recall/precision and the residual ratio loss after trimming
for the classic and the rank-aware variant.  Section VI's claim:
the relational ranks and the in-dense-region placement make TRIM
substantially less effective here than on classic regression
poisoning.
"""

from repro.experiments import ablations


def test_defense_trim(once):
    rows = once(lambda: ablations.run(
        "a2-trim", n_keys=1000, percentages=(5.0, 10.0, 20.0)))
    print()
    print(ablations.format_trim(rows))
    # The attack did real damage before the defense ran.
    assert all(r.attack_ratio > 2.0 for r in rows)
    # The defense is imperfect somewhere: either it misses poison
    # keys or it leaves residual loss, in at least one configuration.
    assert any(r.recall < 1.0 or r.residual_ratio > 2.0 for r in rows)
