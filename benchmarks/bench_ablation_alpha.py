"""Bench A4: sweep of the per-model poisoning threshold alpha.

alpha = 1 pins every model at the uniform share (no volume
re-allocation possible); larger alpha lets Algorithm 2 concentrate
budget where it hurts most.  The paper evaluates alpha in {2, 3} and
finds the difference small — this sweep quantifies that.
"""

from repro.experiments import ablations


def test_ablation_alpha(once):
    rows = once(lambda: ablations.run(
        "a4-alpha", n_keys=10_000, model_size=500,
        alphas=(1.0, 1.5, 2.0, 3.0, 5.0)))
    print()
    print(ablations.format_alpha(rows))
    assert rows[0].exchanges == 0  # alpha=1 has no slack
    # Slack never hurts the attacker.
    assert rows[-1].rmi_ratio >= rows[0].rmi_ratio * 0.95
