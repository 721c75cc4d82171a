"""Bench A8: black-box extraction of the second stage.

Section VI's conjecture, executed: because the second-stage models
are linear, probing recovers their parameters exactly (two distinct
keys per model suffice), and the attack mounted on the recovered
partition is indistinguishable from the white-box attack.
"""

from repro.experiments import ablations


def test_ablation_blackbox(once):
    (report,) = once(lambda: ablations.run(
        "a8-blackbox", n_keys=5000, n_models=25, poisoning_percentage=10.0))
    print()
    print(ablations.format_blackbox([report]))
    assert report.models_recovered == report.n_models
    assert report.max_slope_error < 1e-9
    # The black-box attack matches the white-box attack.
    assert report.blackbox_ratio == report.whitebox_ratio
