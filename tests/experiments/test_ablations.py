"""Tests for the ablation experiments (A1-A5)."""

import pytest

from repro.experiments import ablations
from repro.runtime import CheckpointStore


class TestEngineParity:
    """The ported A-series ablations are invisible to parallelism.

    Timings (A1) are excluded: wall-clock is the one legitimately
    non-deterministic output.
    """

    def test_a1_verdicts_stable_across_jobs(self):
        kwargs = dict(key_counts=(40, 80), density=0.1)
        serial = ablations.run("a1-bruteforce", **kwargs)
        threaded = ablations.run(
            "a1-bruteforce", **kwargs, jobs=2, executor="thread")
        for a, b in zip(serial, threaded):
            assert (a.n_keys, a.domain_size, a.same_key) == (
                b.n_keys, b.domain_size, b.same_key)

    def test_a2_jobs_and_executor_parity(self):
        kwargs = dict(n_keys=300, percentages=(10.0, 20.0))
        serial = ablations.run("a2-trim", **kwargs)
        for executor in ("process", "thread"):
            parallel = ablations.run(
                "a2-trim", **kwargs, jobs=2, executor=executor)
            assert parallel == serial

    def test_a2_checkpoint_persists_poison_artifacts(self, tmp_path):
        kwargs = dict(n_keys=300, percentages=(10.0, 20.0))
        first = ablations.run(
            "a2-trim", **kwargs, checkpoint_dir=tmp_path)
        resumed = ablations.run(
            "a2-trim", **kwargs, checkpoint_dir=tmp_path, resume=True, jobs=2)
        assert resumed == first
        store = CheckpointStore(tmp_path)
        npz_files = list(store.cells_dir.glob("*.npz"))
        assert len(npz_files) == 2  # one poison set per percentage

    def test_a3_single_cell_resume(self, tmp_path):
        kwargs = dict(n_keys=2000, model_size=200)
        first = ablations.run(
            "a3-cost", **kwargs, checkpoint_dir=tmp_path)
        resumed = ablations.run(
            "a3-cost", **kwargs, checkpoint_dir=tmp_path, resume=True)
        assert resumed == first

    def test_a4_jobs_parity(self):
        kwargs = dict(n_keys=1000, model_size=100, alphas=(1.0, 3.0))
        serial = ablations.run("a4-alpha", **kwargs)
        parallel = ablations.run("a4-alpha", **kwargs, jobs=2)
        assert parallel == serial

    def test_a5_jobs_parity(self):
        kwargs = dict(n_keys=1000, model_size=100)
        serial = ablations.run("a5-allocation", **kwargs)
        parallel = ablations.run(
            "a5-allocation", **kwargs, jobs=2, executor="thread")
        assert parallel == serial


class TestA1BruteForce:
    @pytest.fixture(scope="class")
    def rows(self):
        return ablations.run(
            "a1-bruteforce", key_counts=(40, 80), density=0.1)

    def test_always_matches(self, rows):
        assert all(r.same_key for r in rows)

    def test_fast_is_faster(self, rows):
        # The asymptotic gap shows even at toy sizes.
        assert rows[-1].speedup > 1.0

    def test_format(self, rows):
        out = ablations.format_bruteforce(rows)
        assert "brute force" in out


class TestA2Trim:
    @pytest.fixture(scope="class")
    def rows(self):
        return ablations.run(
            "a2-trim", n_keys=300, percentages=(10.0, 20.0))

    def test_both_variants_present(self, rows):
        variants = {r.variant for r in rows}
        assert variants == {"classic", "rank-aware"}

    def test_attack_worked_before_defense(self, rows):
        assert all(r.attack_ratio > 2.0 for r in rows)

    def test_defense_is_imperfect(self, rows):
        # Section VI: TRIM either misses poison keys or leaves
        # residual loss, in at least one configuration.
        assert any(r.recall < 1.0 or r.residual_ratio > 2.0 for r in rows)

    def test_metrics_in_range(self, rows):
        for r in rows:
            assert 0.0 <= r.recall <= 1.0
            assert 0.0 <= r.precision <= 1.0
            assert r.residual_ratio >= 0.0

    def test_format(self, rows):
        out = ablations.format_trim(rows)
        assert "TRIM" in out


class TestA3LookupCost:
    @pytest.fixture(scope="class")
    def reports(self):
        return ablations.run("a3-cost", n_keys=4000, model_size=200,
                                         poisoning_percentage=10.0)

    def test_three_structures(self, reports):
        assert len(reports) == 3

    def test_poisoning_hurts(self, reports):
        by_label = {r.structure: r for r in reports}
        assert (by_label["rmi (poisoned)"].mean_cost
                > by_label["rmi (clean)"].mean_cost)

    def test_clean_rmi_beats_btree(self, reports):
        by_label = {r.structure: r for r in reports}
        assert (by_label["rmi (clean)"].mean_cost
                < by_label["btree (clean)"].mean_cost)

    def test_format(self, reports):
        out = ablations.format_lookup_cost(reports)
        assert "probes per lookup" in out


class TestA4Alpha:
    @pytest.fixture(scope="class")
    def rows(self):
        return ablations.run(
            "a4-alpha", n_keys=2000, model_size=200,
            alphas=(1.0, 3.0))

    def test_alpha_one_no_exchanges(self, rows):
        assert rows[0].alpha == 1.0
        assert rows[0].exchanges == 0

    def test_slack_never_hurts(self, rows):
        assert rows[-1].rmi_ratio >= rows[0].rmi_ratio * 0.95

    def test_format(self, rows):
        out = ablations.format_alpha(rows)
        assert "alpha" in out


class TestA5Allocation:
    @pytest.fixture(scope="class")
    def rows(self):
        return ablations.run(
            "a5-allocation", n_keys=2000, model_size=200)

    def test_two_distributions(self, rows):
        assert {r.distribution for r in rows} == {"uniform", "lognormal"}

    def test_greedy_at_least_uniform(self, rows):
        for r in rows:
            assert r.greedy_ratio >= r.uniform_ratio - 1e-9

    def test_format(self, rows):
        out = ablations.format_allocation(rows)
        assert "volume allocation" in out


class TestA6Deletion:
    @pytest.fixture(scope="class")
    def rows(self):
        return ablations.run(
            "a6-deletion", n_keys=300, percentages=(10.0, 20.0))

    def test_both_adversaries_do_damage(self, rows):
        for r in rows:
            assert r.insertion_ratio > 1.0
            assert r.deletion_ratio > 1.0

    def test_damage_grows_with_budget(self, rows):
        assert rows[-1].deletion_ratio > rows[0].deletion_ratio
        assert rows[-1].insertion_ratio > rows[0].insertion_ratio

    def test_format(self, rows):
        out = ablations.format_deletion(rows)
        assert "deletion" in out


class TestA7Polynomial:
    @pytest.fixture(scope="class")
    def rows(self):
        return ablations.run(
            "a7-polynomial", n_keys=400, degrees=(1, 3))

    def test_capacity_absorbs_loss(self, rows):
        assert rows[-1].poisoned_ratio < rows[0].poisoned_ratio

    def test_costs_reported(self, rows):
        assert rows[-1].n_parameters > rows[0].n_parameters
        assert rows[-1].multiply_adds > rows[0].multiply_adds

    def test_degree_five_leaves_multi_x_damage(self):
        rows = ablations.run("a7-polynomial", n_keys=1000, degrees=(1, 5))
        assert 2.0 < rows[-1].poisoned_ratio < rows[0].poisoned_ratio

    def test_format(self, rows):
        out = ablations.format_polynomial(rows)
        assert "polynomial" in out


class TestA8Blackbox:
    @pytest.fixture(scope="class")
    def report(self):
        (report,) = ablations.run(
            "a8-blackbox", n_keys=1000, n_models=10)
        return report

    def test_full_recovery(self, report):
        assert report.models_recovered == report.n_models
        assert report.max_slope_error < 1e-9

    def test_attack_parity(self, report):
        assert report.blackbox_ratio == report.whitebox_ratio

    def test_format(self, report):
        out = ablations.format_blackbox([report])
        assert "black-box" in out


class TestA9Updates:
    @pytest.fixture(scope="class")
    def report(self):
        (report,) = ablations.run(
            "a9-updates", n_keys=1000, n_models=10)
        return report

    def test_update_channel_matches_static(self, report):
        assert report.update_ratio == pytest.approx(
            report.static_ratio, rel=1e-9)

    def test_retrain_happened(self, report):
        assert report.retrains_triggered >= 1

    def test_lookup_cost_rose(self, report):
        assert report.poisoned_lookup_cost > report.clean_lookup_cost

    def test_format(self, report):
        out = ablations.format_update([report])
        assert "update channel" in out


class TestA10Ridge:
    @pytest.fixture(scope="class")
    def rows(self):
        return ablations.run(
            "a10-ridge", n_keys=400, lam_fractions=(0.0, 0.1))

    def test_unregularised_baseline_hurts_most(self, rows):
        assert rows[0].poisoned_ratio > rows[1].poisoned_ratio

    def test_shrinkage_costs_clean_accuracy(self, rows):
        assert rows[1].clean_mse > rows[0].clean_mse

    def test_heavy_shrinkage_prepays_the_damage(self):
        # At half the key variance the ratio falls only because the
        # clean loss explodes.
        rows = ablations.run("a10-ridge", n_keys=1000,
                             lam_fractions=(0.0, 0.5))
        assert rows[1].poisoned_ratio < rows[0].poisoned_ratio
        assert rows[1].clean_mse > 10 * rows[0].clean_mse
        assert rows[1].poisoned_mse > 0.5 * rows[0].poisoned_mse

    def test_format(self, rows):
        out = ablations.format_ridge(rows)
        assert "ridge" in out


class TestA11Adversaries:
    @pytest.fixture(scope="class")
    def rows(self):
        return ablations.run(
            "a11-adversaries", n_keys=300, percentages=(10.0, 20.0))

    def test_all_adversaries_effective(self, rows):
        for r in rows:
            assert r.insertion_ratio > 1.0
            assert r.deletion_ratio > 1.0
            assert r.modification_ratio > 1.0

    def test_modification_competitive(self, rows):
        for r in rows:
            assert r.modification_ratio >= 0.8 * r.insertion_ratio
        assert rows[-1].modification_ratio > rows[0].modification_ratio

    def test_format(self, rows):
        out = ablations.format_adversaries(rows)
        assert "modify" in out


class TestEngineBackedA7toA10:
    """The single-shot ablations now ride the sweep engine too:
    plan builders, --out checkpointing, resume reuse, jobs parity."""

    def test_plan_builders_cover_the_grids(self):
        assert len(ablations.plan_polynomial_cells(degrees=(1, 3))) == 2
        assert len(ablations.plan_blackbox_cells()) == 1
        assert len(ablations.plan_update_cells()) == 1
        assert len(ablations.plan_ridge_cells(
            lam_fractions=(0.0, 0.1))) == 2

    def test_polynomial_checkpoint_resume(self, tmp_path):
        kwargs = dict(n_keys=300, degrees=(1, 2))
        first = ablations.run(
            "a7-polynomial", checkpoint_dir=tmp_path, **kwargs)
        cells = list((tmp_path / "cells").glob("a7-polynomial-*.json"))
        assert len(cells) == 2
        stamps = {p.name: p.stat().st_mtime_ns for p in cells}
        resumed = ablations.run(
            "a7-polynomial", checkpoint_dir=tmp_path, resume=True, **kwargs)
        assert resumed == first
        after = {p.name: p.stat().st_mtime_ns
                 for p in (tmp_path / "cells").glob(
                     "a7-polynomial-*.json")}
        assert after == stamps  # nothing recomputed

    def test_ridge_jobs_parity(self):
        kwargs = dict(n_keys=300, lam_fractions=(0.0, 0.1))
        serial = ablations.run("a10-ridge", **kwargs)
        threaded = ablations.run(
            "a10-ridge", jobs=2, executor="thread", **kwargs)
        assert serial == threaded

    def test_update_checkpoint_resume(self, tmp_path):
        kwargs = dict(n_keys=500, n_models=5)
        first = ablations.run(
            "a9-updates", checkpoint_dir=tmp_path, **kwargs)
        resumed = ablations.run(
            "a9-updates", checkpoint_dir=tmp_path, resume=True, **kwargs)
        assert resumed == first

    def test_blackbox_checkpoint_resume(self, tmp_path):
        kwargs = dict(n_keys=500, n_models=5)
        first = ablations.run(
            "a8-blackbox", checkpoint_dir=tmp_path, **kwargs)
        resumed = ablations.run(
            "a8-blackbox", checkpoint_dir=tmp_path, resume=True, **kwargs)
        assert resumed == first
