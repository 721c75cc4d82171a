"""The pair driver's verdict, fed canned perfbench runs."""

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "perfpair.py"
_SPEC = importlib.util.spec_from_file_location("perfpair", _PATH)
perfpair = importlib.util.module_from_spec(_SPEC)
sys.modules["perfpair"] = perfpair  # dataclasses resolve the module
_SPEC.loader.exec_module(perfpair)

CONFIG = {
    "workloads": [{"name": "serve-churn"}],
    "end_to_end": [
        {"name": "ops_per_s", "better": "higher", "bound": 0.25},
        {"name": "tick_ms_p95", "better": "lower", "bound": 0.25},
    ],
}
TIGHT = [1000.0, 1010.0, 990.0, 1005.0, 995.0,
         1002.0, 998.0, 1008.0, 992.0, 1000.0]
WIDE = [500.0, 1500.0, 600.0, 1400.0, 700.0,
        1300.0, 800.0, 1200.0, 900.0, 1100.0]


def runs(ops, p95=None, correct=True, failed=0):
    p95 = [2.0] * len(ops) if p95 is None else p95
    return [{"attempted": 1000, "correct": correct, "failed": failed,
             "metrics": {
                 "serve-churn.ops_per_s": {"unit": "ops/s", "value": o},
                 "serve-churn.tick_ms_p95": {"unit": "ms", "value": p},
                 "serve-churn.attack_keys_per_s": {"unit": "keys/s",
                                                   "value": None}}}
            for o, p in zip(ops, p95)]


def verdicts(rows):
    return {row.metric: row.verdict for row in rows}


def test_tight_halving_of_ops_is_regressed():
    rows, failures = perfpair.judge(
        runs(TIGHT), runs([v / 2 for v in TIGHT]), CONFIG)
    assert verdicts(rows) == {"ops_per_s": "REGRESSED",
                              "tick_ms_p95": "ok"}
    assert failures == ["serve-churn ops_per_s REGRESSED"]
    ops = rows[0]
    assert ops.head / ops.base == pytest.approx(0.5)
    assert ops.won == 0 and ops.pairs == 10


def test_wide_base_spread_with_every_pair_lost_is_regressed():
    rows, failures = perfpair.judge(
        runs(WIDE), runs([v / 2 for v in WIDE]), CONFIG)
    assert rows[0].spread > 0.25
    assert verdicts(rows)["ops_per_s"] == "REGRESSED"
    assert failures == ["serve-churn ops_per_s REGRESSED"]


def test_wide_base_spread_with_eight_pairs_lost_is_unresolved():
    # Halved except in the first and third pairs, which the head wins.
    head = [v / 2 for v in WIDE]
    head[0], head[2] = 600.0, 700.0
    rows, failures = perfpair.judge(runs(WIDE), runs(head), CONFIG)
    assert rows[0].spread > 0.25 and rows[0].won == 2
    assert rows[0].head < 0.75 * rows[0].base
    assert verdicts(rows)["ops_per_s"] == "UNRESOLVED"
    assert failures == []


def test_lower_is_better_is_judged_the_right_way_round():
    slower = [2 * v / 1000 for v in TIGHT]
    rows, failures = perfpair.judge(
        runs(TIGHT, p95=[v / 1000 for v in TIGHT]),
        runs(TIGHT, p95=slower), CONFIG)
    assert verdicts(rows)["tick_ms_p95"] == "REGRESSED"
    assert failures == ["serve-churn tick_ms_p95 REGRESSED"]
    rows, failures = perfpair.judge(
        runs(TIGHT, p95=slower),
        runs(TIGHT, p95=[v / 1000 for v in TIGHT]), CONFIG)
    assert verdicts(rows)["tick_ms_p95"] == "ok"
    assert rows[1].won == 10
    assert failures == []


def test_incorrect_head_run_fails():
    head = runs(TIGHT)
    head[3]["correct"] = False
    rows, failures = perfpair.judge(runs(TIGHT), head, CONFIG)
    assert set(verdicts(rows).values()) == {"ok"}
    assert failures == ["1 of 10 head runs not correct"]


def test_larger_failed_share_fails():
    _, failures = perfpair.judge(runs(TIGHT, failed=1),
                                 runs(TIGHT, failed=2), CONFIG)
    assert len(failures) == 1 and failures[0].startswith("head failed")
    _, failures = perfpair.judge(runs(TIGHT, failed=2),
                                 runs(TIGHT, failed=2), CONFIG)
    assert failures == []


def test_identical_runs_pass():
    rows, failures = perfpair.judge(runs(TIGHT), runs(TIGHT), CONFIG)
    assert failures == []
    # attack_keys_per_s is measured by neither side: no row.
    assert [(r.metric, r.verdict, r.won) for r in rows] == [
        ("ops_per_s", "ok", 0), ("tick_ms_p95", "ok", 0)]
