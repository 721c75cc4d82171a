"""Tests of the benchmark itself, on seconds-scale workload instances."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro.experiments.fig7_rmi_realworld as fig7
from perfbench import measure, run
from perfbench.spans import self_times
from perfbench.workloads import WORKLOADS, Session, check_attack_cell
from repro.workload import TraceSpec, generate_trace

ROOT = Path(__file__).resolve().parents[2]
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Any seed but the one ``perfbench/digests.json`` records.
SEED = 7


def _tiny(name: str, setups: int, **spec):
    """A seconds-scale instance of one of the four workloads."""
    workload = WORKLOADS[name]
    return replace(workload, setups=setups, min_ticks=0,
                   spec={**workload.spec, **spec})


TINY = {
    "serve-churn": _tiny("serve-churn", 2, n_base_keys=600, n_ops=1_200),
    "serve-read": _tiny("serve-read", 2, n_base_keys=600, n_ops=1_200),
    "cluster-proc": _tiny("cluster-proc", 1, n_base_keys=400, n_ops=600),
    "attack-rmi": replace(WORKLOADS["attack-rmi"], salary_keys=600,
                          setups=2),
}


@pytest.fixture
def command(monkeypatch):
    """``run.main`` on the tiny workloads, leaving the process as found
    (its bootstrap repoints the temp dir; helpers are never stopped)."""
    monkeypatch.setattr(tempfile, "tempdir", tempfile.tempdir)
    monkeypatch.setenv("TMPDIR", os.environ.get("TMPDIR", ""))
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(run, "_stop_helper_processes", lambda: None)

    def invoke(workload: str, trace: int = 0) -> int:
        return run.main(["--workload", workload, "--seed", str(SEED),
                         "--seconds", "0.3", "--trace", str(trace)],
                        catalog=TINY)
    return invoke


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def _generated(workload, seed: int) -> str:
    """Digest of the inputs the program receives under ``seed``."""
    inputs = workload.inputs(seed)
    if isinstance(inputs, TraceSpec):
        trace = generate_trace(inputs)
        return f"{inputs.digest}:{trace.checksum()}"
    return workload.trace_digest(workload.setup(inputs, Session()))


@pytest.mark.parametrize("name", sorted(TINY))
def test_same_seed_same_inputs_other_seed_different(name):
    workload = TINY[name]
    same = [workload.input_digests(workload.inputs(SEED))
            for _ in range(2)]
    assert same[0] == same[1]
    assert workload.input_digests(workload.inputs(SEED + 1)) != same[0]
    generated = [_generated(workload, seed)
                 for seed in (SEED, SEED, SEED + 1)]
    assert generated[0] == generated[1] != generated[2]


@pytest.mark.parametrize("name", ["serve-churn", "attack-rmi"])
def test_same_seed_same_outputs_other_seed_different(name):
    outcomes = [measure.measure(TINY[name], seed, 0.0, traced=False)
                for seed in (SEED, SEED, SEED + 1)]
    for outcome in outcomes:
        assert outcome.failed == 0, outcome.failures
    assert outcomes[0].outputs == outcomes[1].outputs
    assert outcomes[2].outputs != outcomes[0].outputs


def test_untraced_run_reports_every_end_to_end_metric(command, capsys):
    assert command("serve-read") == 0
    result = _last_json(capsys.readouterr().out)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"]
                                      for m in CONFIG["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tampered_report_fails_the_command(command, capsys, monkeypatch):
    from repro.workload.simulator import ServingSimulator
    original = ServingSimulator.run
    calls = []

    def tampered(self):
        report = original(self)
        calls.append(report)
        if len(calls) > 1:  # every pass after the first is off by one
            report = replace(report, total_probes=report.total_probes + 1)
        return report

    monkeypatch.setattr(ServingSimulator, "run", tampered)
    assert command("serve-read") != 0
    result = _last_json(capsys.readouterr().out)
    assert len(calls) > 1
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]


def test_tampered_attack_cell_counts_as_failed(monkeypatch):
    original = fig7.poison_rmi

    def drops_a_key(*args, **kwargs):
        result = original(*args, **kwargs)
        return replace(result, poison_keys=result.poison_keys[1:])

    monkeypatch.setattr(fig7, "poison_rmi", drops_a_key)
    outcome = measure.measure(TINY["attack-rmi"], SEED, 0.0, traced=False)
    assert outcome.failed == outcome.attempted == 3


def test_attack_cell_check():
    keys = np.arange(100, 200, 2)
    assert check_attack_cell(keys, 3, np.array([101, 103, 105])) == []
    assert check_attack_cell(keys, 4, np.array([101, 103, 105]))
    assert check_attack_cell(keys, 3, np.array([101, 101, 103]))
    assert check_attack_cell(keys, 3, np.array([101, 103, 501]))
    assert check_attack_cell(keys, 3, np.array([101, 103, 104]))


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_self_times_sum_to_traced_wall(name):
    outcome = measure.measure(TINY[name], SEED, 0.0, traced=True)
    assert outcome.failed == 0, outcome.failures
    assert set(outcome.metrics) == {m["name"] for m in CONFIG["per_layer"]}
    assert min(self_times(outcome.spans)) > -1e-6
    attributed = sum(seconds for span, seconds in outcome.split.items()
                     if span != measure.UNATTRIBUTED)
    assert attributed + outcome.split[measure.UNATTRIBUTED] \
        == pytest.approx(outcome.traced_wall)
    assert outcome.split[measure.UNATTRIBUTED] \
        < 0.1 * outcome.traced_wall


def test_benchmark_json_names_and_units():
    for kind in ("end_to_end", "per_layer"):
        for metric in CONFIG[kind]:
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric["name"])
            assert metric["unit"]
    assert sorted(w["name"] for w in CONFIG["workloads"]) == sorted(TINY)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=120, check=False)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
