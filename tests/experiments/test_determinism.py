"""Determinism regressions for the engine-backed sweeps.

Three guarantees are pinned here:

1. **Parallelism is invisible** — the same config and seed produce
   identical aggregated results at ``jobs=1`` and ``jobs=4`` (the
   regression sweep at ``jobs=8`` too), for both the process and the
   thread executor, with and without checkpoint/resume.
2. **The engine reproduces the serial reference path** — golden grids
   recorded from plain serial loops (same machine, same numpy) are
   matched value for value.  The golden files live in
   ``tests/experiments/golden_fig5_grid.json`` and
   ``golden_fig7_grid.json`` (recorder:
   ``record_golden_fig7.py``); tolerances are tight relative bounds
   rather than bit-equality only to survive BLAS/platform variation
   on other hosts.
3. **Seeding is process-stable** — fig7's per-dataset streams derive
   from CRC-32 of the dataset name (never the salted builtin
   ``hash``), pinned by checksums of the generated keysets and of the
   cell digests.
"""

import dataclasses
import json
import zlib
from pathlib import Path

import pytest

from repro.experiments import fig6_rmi_synthetic, fig7_rmi_realworld
from repro.experiments.regression_sweep import SweepConfig, run_sweep

GOLDEN_PATH = Path(__file__).parent / "golden_fig5_grid.json"
GOLDEN_FIG7_PATH = Path(__file__).parent / "golden_fig7_grid.json"

SMALL_CONFIG = SweepConfig(
    distribution="uniform",
    key_counts=(60, 120),
    densities=(0.15, 0.6),
    poisoning_percentages=(4.0, 9.0, 13.0),
    n_trials=4,
    seed=7)


def summaries_of(result):
    return [
        {f"{pct:g}": dataclasses.asdict(cell.summaries[pct])
         for pct in result.config.poisoning_percentages}
        for cell in result.cells
    ]


class TestJobsParity:
    def test_jobs_1_and_4_identical(self):
        serial = run_sweep(SMALL_CONFIG, jobs=1)
        parallel = run_sweep(SMALL_CONFIG, jobs=4)
        assert summaries_of(serial) == summaries_of(parallel)

    def test_jobs_1_and_8_identical(self):
        serial = run_sweep(SMALL_CONFIG, jobs=1)
        parallel = run_sweep(SMALL_CONFIG, jobs=8)
        assert summaries_of(serial) == summaries_of(parallel)

    def test_checkpointed_resume_identical(self, tmp_path):
        serial = run_sweep(SMALL_CONFIG, jobs=1)
        first = run_sweep(SMALL_CONFIG, jobs=4, checkpoint_dir=tmp_path)
        resumed = run_sweep(SMALL_CONFIG, jobs=2, checkpoint_dir=tmp_path,
                            resume=True)
        assert summaries_of(first) == summaries_of(serial)
        assert summaries_of(resumed) == summaries_of(serial)

    def test_fig6_jobs_parity(self):
        config = fig6_rmi_synthetic.Fig6Config(
            n_keys=1000,
            model_sizes=(100,),
            domain_multipliers=(100,),
            distributions=("uniform",),
            poisoning_percentages=(5.0, 10.0),
            alphas=(3.0,),
            max_exchanges_per_model=1)
        serial = fig6_rmi_synthetic.run(config, jobs=1)
        parallel = fig6_rmi_synthetic.run(config, jobs=3)
        assert serial.cells == parallel.cells


class TestGoldenGrid:
    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_PATH.read_text())

    def test_config_matches_recorded_grid(self, golden):
        g = golden["config"]
        assert g["distribution"] == SMALL_CONFIG.distribution
        assert tuple(g["key_counts"]) == SMALL_CONFIG.key_counts
        assert tuple(g["densities"]) == SMALL_CONFIG.densities
        assert (tuple(g["poisoning_percentages"])
                == SMALL_CONFIG.poisoning_percentages)
        assert g["n_trials"] == SMALL_CONFIG.n_trials
        assert g["seed"] == SMALL_CONFIG.seed

    def test_engine_reproduces_legacy_serial_output(self, golden):
        result = run_sweep(SMALL_CONFIG, jobs=1)
        assert len(result.cells) == len(golden["cells"])
        for got, want in zip(result.cells, golden["cells"]):
            assert got.n_keys == want["n_keys"]
            assert got.density == want["density"]
            assert got.domain_size == want["domain_size"]
            for pct in SMALL_CONFIG.poisoning_percentages:
                got_summary = dataclasses.asdict(got.summaries[pct])
                want_summary = want["summaries"][f"{pct:g}"]
                assert got_summary.keys() == want_summary.keys()
                for field, want_value in want_summary.items():
                    assert got_summary[field] == pytest.approx(
                        want_value, rel=1e-9), (
                        f"{field} drifted in cell n={got.n_keys} "
                        f"density={got.density} pct={pct}")

    def test_parallel_also_reproduces_golden(self, golden):
        result = run_sweep(SMALL_CONFIG, jobs=4)
        for got, want in zip(result.cells, golden["cells"]):
            for pct in SMALL_CONFIG.poisoning_percentages:
                got_summary = dataclasses.asdict(got.summaries[pct])
                for field, want_value in (
                        want["summaries"][f"{pct:g}"].items()):
                    assert got_summary[field] == pytest.approx(
                        want_value, rel=1e-9)


# Mirrors CONFIG in record_golden_fig7.py (asserted below).
FIG7_GOLDEN_CONFIG = fig7_rmi_realworld.Fig7Config(
    osm_keys=1000,
    salary_keys=700,
    model_sizes=(50, 100),
    poisoning_percentages=(5.0, 15.0),
    alpha=3.0,
    max_exchanges_per_model=1,
    seed=31)


def fig7_cell_dicts(result):
    """A fig7 run as plain comparable dicts (golden-file shape)."""
    return [
        {
            "dataset": cell.dataset,
            "n_keys": cell.n_keys,
            "model_size": cell.model_size,
            "n_models": cell.n_models,
            "poisoning_percentage": cell.poisoning_percentage,
            "per_model": dataclasses.asdict(cell.per_model),
            "rmi_ratio": cell.rmi_ratio,
        }
        for cell in result.cells
    ]


class TestFig7GoldenGrid:
    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_FIG7_PATH.read_text())

    @pytest.fixture(scope="class")
    def serial(self):
        return fig7_rmi_realworld.run(FIG7_GOLDEN_CONFIG, jobs=1)

    def test_config_matches_recorded_grid(self, golden):
        g = golden["config"]
        c = FIG7_GOLDEN_CONFIG
        assert g["salary_keys"] == c.salary_keys
        assert g["osm_keys"] == c.osm_keys
        assert tuple(g["model_sizes"]) == c.model_sizes
        assert (tuple(g["poisoning_percentages"])
                == c.poisoning_percentages)
        assert g["alpha"] == c.alpha
        assert (g["max_exchanges_per_model"]
                == c.max_exchanges_per_model)
        assert g["seed"] == c.seed

    def assert_matches_golden(self, result, golden):
        got_cells = fig7_cell_dicts(result)
        assert len(got_cells) == len(golden["cells"])
        for got, want in zip(got_cells, golden["cells"]):
            for key in ("dataset", "n_keys", "model_size", "n_models",
                        "poisoning_percentage"):
                assert got[key] == want[key]
            assert got["rmi_ratio"] == pytest.approx(
                want["rmi_ratio"], rel=1e-9)
            assert got["per_model"].keys() == want["per_model"].keys()
            for field, want_value in want["per_model"].items():
                assert got[
                    "per_model"][field] == pytest.approx(
                    want_value, rel=1e-9), (
                    f"{field} drifted in cell {got['dataset']} "
                    f"size={got['model_size']} "
                    f"pct={got['poisoning_percentage']}")

    def test_serial_reproduces_reference_loop(self, serial, golden):
        self.assert_matches_golden(serial, golden)

    def test_jobs4_process_bit_identical_to_serial(self, serial,
                                                   golden):
        parallel = fig7_rmi_realworld.run(FIG7_GOLDEN_CONFIG, jobs=4,
                                          executor="process")
        assert parallel.cells == serial.cells  # bit-identical
        self.assert_matches_golden(parallel, golden)

    def test_jobs4_thread_bit_identical_to_serial(self, serial, golden):
        threaded = fig7_rmi_realworld.run(FIG7_GOLDEN_CONFIG, jobs=4,
                                          executor="thread")
        assert threaded.cells == serial.cells  # bit-identical
        self.assert_matches_golden(threaded, golden)

    def test_checkpointed_resume_with_artifacts(self, serial, tmp_path):
        """Resume reloads fig7 cells *and their .npz artifacts* and
        still aggregates bit-identically, for both executors."""
        first = fig7_rmi_realworld.run(
            FIG7_GOLDEN_CONFIG, jobs=2, checkpoint_dir=tmp_path,
            executor="thread")
        assert first.cells == serial.cells
        for executor in ("process", "thread"):
            resumed = fig7_rmi_realworld.run(
                FIG7_GOLDEN_CONFIG, jobs=3, checkpoint_dir=tmp_path,
                resume=True, executor=executor)
            assert resumed.cells == serial.cells
        # Every cell persisted its poison set + ratio vector.
        from repro.runtime import CheckpointStore
        store = CheckpointStore(tmp_path)
        for cell in fig7_rmi_realworld.plan_cells(FIG7_GOLDEN_CONFIG):
            arrays = store.load_arrays(cell)
            assert set(arrays) == {"poison_keys", "per_model_ratios"}


class TestFig7SeedingRegression:
    """Fig7's streams must be stable across interpreters (CRC-32).

    The checksums pin the exact keysets the fig7 cells draw; a change
    to the seed derivation (e.g. a reintroduced salted ``hash``) or an
    accidental reordering of dataset generation breaks them loudly.
    Recorded with numpy's stability-guaranteed Generator streams.
    """

    def checksum(self, dataset, n_keys, seed=31):
        keyset = fig7_rmi_realworld._make_keyset(dataset, n_keys, seed)
        return zlib.crc32(keyset.keys.tobytes())

    def test_miami_stream_pinned(self):
        assert self.checksum("miami-salaries", 700) == 2155469089

    def test_osm_stream_pinned(self):
        assert self.checksum("osm-latitudes", 1000) == 2630694741

    def test_streams_independent_of_generation_order(self):
        """Unlike the legacy path, the OSM draw no longer depends on
        the salary draw having happened first."""
        osm_alone = self.checksum("osm-latitudes", 1000)
        self.checksum("miami-salaries", 700)
        assert self.checksum("osm-latitudes", 1000) == osm_alone

    def test_cell_digest_pinned(self):
        """Content-addressing regression: checkpoint file names (and
        so resume compatibility) depend on this digest."""
        (first, *_) = fig7_rmi_realworld.plan_cells(FIG7_GOLDEN_CONFIG)
        assert first.experiment == "fig7-rmi"
        assert first.digest == "948cb67b2d9e65d8"
