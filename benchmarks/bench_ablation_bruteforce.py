"""Bench A1: the O(n) attack vs the O(mn) brute force.

Equivalence (same key, same loss) is asserted; the printed speedup
column shows the asymptotic gap growing with the keyset size.
"""

from repro.experiments import ablations


def test_ablation_bruteforce(once):
    rows = once(lambda: ablations.run(
        "a1-bruteforce", key_counts=(50, 100, 200, 400), density=0.05))
    print()
    print(ablations.format_bruteforce(rows))
    assert all(r.same_key for r in rows)
    assert rows[-1].speedup > rows[0].speedup * 0.5
