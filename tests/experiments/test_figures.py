"""Smoke + semantics tests for the per-figure experiment modules."""

import numpy as np
import pytest

from repro.experiments import (
    fig2_compound_effect,
    fig3_loss_landscape,
    fig4_greedy_showcase,
    fig5_config,
    fig6_rmi_synthetic,
    fig7_rmi_realworld,
    fig8_config,
    run_sweep,
)
from repro.experiments.regression_sweep import SweepConfig


class TestFig2:
    def test_runs_and_poisons(self):
        result = fig2_compound_effect.run()
        assert result.attack.loss_after > result.attack.loss_before
        assert result.keyset.n == 10

    def test_format_mentions_poison(self):
        out = fig2_compound_effect.run().format()
        assert "POISON" in out
        assert "MSE" in out

    def test_residual_arrays_align(self):
        result = fig2_compound_effect.run()
        assert result.residuals_before.size == 10
        assert result.residuals_after.size == 11


class TestFig3:
    def test_structural_claims_hold(self):
        result = fig3_loss_landscape.run()
        assert result.all_gaps_convex
        assert result.argmax_is_endpoint

    def test_landscape_covers_interior(self):
        result = fig3_loss_landscape.run()
        ks = result.keyset
        interior = int(ks.keys[-1] - ks.keys[0] + 1) - ks.n
        assert result.candidates.size == interior

    def test_format_reports_verdicts(self):
        out = fig3_loss_landscape.run().format()
        assert "every gap convex: True" in out


class TestFig4:
    def test_paper_shape(self):
        result = fig4_greedy_showcase.run()
        assert result.greedy.n_injected == 10
        # The paper reports 7.4x on its draw; any healthy run of this
        # setup lands well above 2x.
        assert result.greedy.ratio_loss > 2.0

    def test_clustering_statistic(self):
        result = fig4_greedy_showcase.run()
        assert 0.0 <= result.poison_span_fraction < 0.5

    def test_format_contains_trajectory(self):
        out = fig4_greedy_showcase.run().format()
        assert "ratio so far" in out


class TestSweep:
    @pytest.fixture(scope="class")
    def small_sweep(self):
        config = SweepConfig(
            distribution="uniform",
            key_counts=(100,),
            densities=(0.1, 0.8),
            poisoning_percentages=(5.0, 14.0),
            n_trials=5)
        return run_sweep(config)

    def test_cell_grid_shape(self, small_sweep):
        assert len(small_sweep.cells) == 2

    def test_ratio_grows_with_percentage(self, small_sweep):
        for cell in small_sweep.cells:
            if cell.density > 0.5:
                continue  # saturation regime, monotonicity not promised
            assert (cell.summaries[14.0].median
                    > cell.summaries[5.0].median)

    def test_sparse_cells_beat_dense_cells(self, small_sweep):
        """The paper's row-wise observation at a fixed key count."""
        by_density = {c.density: c for c in small_sweep.cells}
        assert (by_density[0.1].summaries[14.0].median
                > by_density[0.8].summaries[14.0].median)

    def test_ratios_at_least_one(self, small_sweep):
        for cell in small_sweep.cells:
            for summary in cell.summaries.values():
                assert summary.minimum >= 1.0 - 1e-9

    def test_format_contains_all_cells(self, small_sweep):
        out = small_sweep.format()
        assert out.count("Keys: 100") == 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(distribution="zipf", key_counts=(10,),
                        densities=(0.5,), poisoning_percentages=(5.0,))
        with pytest.raises(ValueError):
            SweepConfig(distribution="uniform", key_counts=(10,),
                        densities=(1.5,), poisoning_percentages=(5.0,))

    def test_normal_distribution_runs(self):
        config = SweepConfig(
            distribution="normal",
            key_counts=(100,),
            densities=(0.4,),
            poisoning_percentages=(10.0,),
            n_trials=3)
        result = run_sweep(config)
        assert result.cells[0].summaries[10.0].median >= 1.0

    def test_normal_keys_cap_the_attack(self):
        """Fig. 8's point at the quick profile: on normal keys the
        sparsest large cell's ratio stays below Fig. 5's."""
        def headline(sweep):
            largest = max(c.n_keys for c in sweep.cells)
            cell = next(c for c in sweep.cells
                        if c.n_keys == largest and c.density == 0.1)
            return cell.summaries[14.0].median
        fig8 = run_sweep(fig8_config("quick"))
        assert all(c.summaries[14.0].median >= 1.0 for c in fig8.cells)
        assert headline(fig8) < headline(run_sweep(fig5_config("quick")))


class TestFig6:
    @pytest.fixture(scope="class")
    def tiny_result(self):
        config = fig6_rmi_synthetic.Fig6Config(
            n_keys=2000,
            model_sizes=(100, 500),
            domain_multipliers=(100,),
            distributions=("uniform", "lognormal"),
            poisoning_percentages=(5.0, 10.0),
            alphas=(3.0,),
            max_exchanges_per_model=1)
        return fig6_rmi_synthetic.run(config)

    def test_cell_count(self, tiny_result):
        # 2 distributions x 1 domain x 2 sizes x 2 pcts x 1 alpha
        assert len(tiny_result.cells) == 8

    def test_more_poison_more_damage(self, tiny_result):
        for dist in ("uniform", "lognormal"):
            for size in (100, 500):
                cells = {c.poisoning_percentage: c
                         for c in tiny_result.cells
                         if c.distribution == dist
                         and c.model_size == size}
                assert cells[10.0].rmi_ratio >= cells[5.0].rmi_ratio * 0.9

    def test_larger_models_larger_ratio_uniform(self, tiny_result):
        """Fig. 6 row trend at fixed 10% poisoning."""
        uniform = {c.model_size: c for c in tiny_result.cells
                   if c.distribution == "uniform"
                   and c.poisoning_percentage == 10.0}
        assert uniform[500].rmi_ratio > uniform[100].rmi_ratio

    def test_format_has_block_per_group(self, tiny_result):
        out = tiny_result.format()
        assert out.count("Model Size: 100") == 2  # one per distribution


class TestFig7:
    @pytest.fixture(scope="class")
    def salary_result(self):
        config = fig7_rmi_realworld.Fig7Config(
            osm_keys=0,
            model_sizes=(100,),
            poisoning_percentages=(5.0, 20.0),
            include_osm=False)
        return fig7_rmi_realworld.run(config)

    def test_salary_cells(self, salary_result):
        assert len(salary_result.cells) == 2
        assert all(c.dataset == "miami-salaries"
                   for c in salary_result.cells)
        assert all(c.n_keys == 5300 for c in salary_result.cells)

    def test_percentage_trend(self, salary_result):
        by_pct = {c.poisoning_percentage: c for c in salary_result.cells}
        assert by_pct[20.0].rmi_ratio > by_pct[5.0].rmi_ratio

    def test_paper_band(self, salary_result):
        """Paper reports RMI ratios 4x-24x over these configs."""
        ratio = max(c.rmi_ratio for c in salary_result.cells)
        assert 1.5 < ratio < 200.0

    def test_format_contains_dataset(self, salary_result):
        assert "miami-salaries" in salary_result.format()


class TestFig7Profiles:
    def test_profile_matches_dataset(self, rng):
        import numpy as np
        from repro.data import miami_salaries
        from repro.experiments.fig7_rmi_realworld import profile_dataset
        salaries = miami_salaries(rng, n=800)
        profile = profile_dataset("miami-salaries", salaries)
        assert profile.n_keys == 800
        assert profile.density == pytest.approx(salaries.density)
        p10, p25, p50, p75, p90 = profile.percentile_keys
        assert p10 < p25 < p50 < p75 < p90
        assert p50 == int(np.percentile(salaries.keys, 50))

    def test_profiles_render_in_format(self):
        from repro.experiments import fig7_rmi_realworld as f7
        config = f7.Fig7Config(osm_keys=0, model_sizes=(100,),
                               poisoning_percentages=(5.0,),
                               include_osm=False)
        result = f7.run(config)
        out = result.format()
        assert "CDF profiles" in out
        assert "p50" in out
