"""Bench A3: end-to-end lookup cost, clean RMI vs poisoned RMI vs B-Tree.

The performance story the Ratio Loss proxies: the clean learned index
beats the B-Tree on probes per lookup; poisoning erodes that edge.
"""

from repro.experiments import ablations


def test_lookup_cost(once):
    reports = once(lambda: ablations.run(
        "a3-cost", n_keys=20_000, model_size=200, poisoning_percentage=10.0))
    print()
    print(ablations.format_lookup_cost(reports))
    by_label = {r.structure: r for r in reports}
    assert (by_label["rmi (clean)"].mean_cost
            < by_label["btree (clean)"].mean_cost)
    assert (by_label["rmi (poisoned)"].mean_cost
            > by_label["rmi (clean)"].mean_cost)
