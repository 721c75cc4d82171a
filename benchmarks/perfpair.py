#!/usr/bin/env python3
"""Gate a change on paired perfbench runs against a base revision.

Run from a checkout::

    python3 benchmarks/perfpair.py BASE

``git archive BASE`` and ``git archive HEAD`` are exported into two
temporary trees, so both sides run from clean sources and each writes
its own ``perfbench/out/``.  In each tree the driver runs
``perfbench/run.py --workload all --seconds 5`` and parses the run's
last line of standard output.  It runs 10 pairs; the base runs first
in odd pairs and the head in even ones, so a drift in the machine's
speed falls on both sides alike.

The workloads, the end-to-end metrics, their ``better`` directions and
their ``bound``s come from the head's ``BENCHMARK.json``.  For each
(workload, metric) one row gives both medians and their ratio, the
base's quartile spread ``(q3 - q1) / median`` and how many pairs the
head won, under one verdict:

REGRESSED   the head's median is worse than the base's by more than
            the bound, and either the base's own spread is within the
            bound or the head lost at least 9 of every 10 pairs (ties
            count for neither side);
UNRESOLVED  the head's median is worse by more than the bound, but the
            base's spread is wider than the bound and the head lost
            fewer than 9 of every 10 pairs, so the runs cannot tell a
            regression from noise;
ok          anything else.

A noisy base cannot hide a drop the pairs agree on: by chance alone a
head loses 9 or more of 10 pairs about 1% of the time, and it must
also read worse than the bound in the median to be REGRESSED.

The exit status is 1 on a REGRESSED row, on a head run that is not
``correct: true``, or when the head fails a larger share of its
operations than the base; otherwise 0.  The pair count and the run
length are constants: 10 pairs is the fewest a paired comparison
accepts, and 5 s is the run length of CI's output-check job.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10
SECONDS = 5


@dataclass(frozen=True)
class Row:
    """One (workload, end-to-end metric) comparison."""

    workload: str
    metric: str
    base: float
    head: float
    spread: float
    won: int
    pairs: int
    verdict: str


def _spread(values: list[float]) -> float:
    """The quartile distance relative to the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    if median:
        return (q3 - q1) / abs(median)
    return 0.0 if q3 == q1 else math.inf


def _failed_share(runs: list[dict[str, Any]]) -> float:
    return (sum(run["failed"] for run in runs)
            / max(sum(run["attempted"] for run in runs), 1))


def judge(base: list[dict[str, Any]], head: list[dict[str, Any]],
          config: dict[str, Any]) -> tuple[list[Row], list[str]]:
    """Compare parsed ``--workload all`` results, pair by pair.

    ``base[i]`` and ``head[i]`` are pair i's last-line objects and
    ``config`` is a ``BENCHMARK.json``.  Returns one row per
    (workload, metric) that both sides measured, and the reasons the
    gate fails (empty when it passes).
    """
    rows: list[Row] = []
    for workload in config["workloads"]:
        for metric in config["end_to_end"]:
            key = f"{workload['name']}.{metric['name']}"
            pairs = [(b["metrics"][key]["value"], h["metrics"][key]["value"])
                     for b, h in zip(base, head)
                     if key in b["metrics"] and key in h["metrics"]]
            pairs = [(b, h) for b, h in pairs
                     if b is not None and h is not None]
            if not pairs:
                continue
            higher = metric["better"] == "higher"
            bound = metric["bound"]
            base_values = [b for b, _ in pairs]
            base_median = statistics.median(base_values)
            head_median = statistics.median([h for _, h in pairs])
            spread = _spread(base_values)
            if higher:
                worse = head_median < base_median * (1 - bound)
                won = sum(h > b for b, h in pairs)
                lost = sum(h < b for b, h in pairs)
            else:
                worse = head_median > base_median * (1 + bound)
                won = sum(h < b for b, h in pairs)
                lost = sum(h > b for b, h in pairs)
            resolved = spread <= bound or 10 * lost >= 9 * len(pairs)
            verdict = ("ok" if not worse
                       else "REGRESSED" if resolved
                       else "UNRESOLVED")
            rows.append(Row(workload["name"], metric["name"], base_median,
                            head_median, spread, won, len(pairs), verdict))
    failures = [f"{row.workload} {row.metric} REGRESSED" for row in rows
                if row.verdict == "REGRESSED"]
    wrong = sum(not run["correct"] for run in head)
    if wrong:
        failures.append(f"{wrong} of {len(head)} head runs not correct")
    if _failed_share(head) > _failed_share(base):
        failures.append(f"head failed {_failed_share(head):.3g} of its ops, "
                        f"base {_failed_share(base):.3g}")
    return rows, failures


def _export(revision: str, tree: Path) -> None:
    tree.mkdir()
    archive = subprocess.run(["git", "archive", revision], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive,
                   check=True)


def _run(tree: Path) -> dict[str, Any]:
    """One ``--workload all`` run; a run whose last line does not
    parse counts as not correct."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all",
         "--seconds", str(SECONDS)],
        cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        return {"attempted": 1, "correct": False, "failed": 0,
                "metrics": {}}
    result["correct"] = result["correct"] and proc.returncode == 0
    return result


def _print(rows: list[Row]) -> None:
    print(f"{'workload':<13} {'metric':<18} {'base':>12} {'head':>12} "
          f"{'head/base':>9} {'spread':>7} {'won':>6}  verdict")
    for row in rows:
        ratio = row.head / row.base if row.base else math.nan
        print(f"{row.workload:<13} {row.metric:<18} {row.base:>12.6g} "
              f"{row.head:>12.6g} {ratio:>9.3f} {row.spread:>7.1%} "
              f"{row.won:>3}/{row.pairs:<2}  {row.verdict}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/perfpair.py",
        description="Run perfbench on BASE and HEAD in alternating "
                    "pairs and fail on a resolved regression.")
    parser.add_argument("base", help="base revision, e.g. HEAD^1")
    args = parser.parse_args(argv)
    sides = {}
    for side, revision in (("base", args.base), ("head", "HEAD")):
        sides[side] = subprocess.run(
            ["git", "rev-parse", "--verify", f"{revision}^{{commit}}"],
            cwd=ROOT, capture_output=True, text=True,
            check=True).stdout.strip()
    print(f"perfpair: base {sides['base'][:12]} vs head "
          f"{sides['head'][:12]}, {PAIRS} pairs of perfbench/run.py "
          f"--workload all --seconds {SECONDS}", flush=True)
    runs: dict[str, list[dict[str, Any]]] = {"base": [], "head": []}
    with tempfile.TemporaryDirectory(prefix="perfpair-") as tmp:
        trees = {side: Path(tmp) / side for side in sides}
        for side, sha in sides.items():
            _export(sha, trees[side])
        config = json.loads((trees["head"] / "BENCHMARK.json").read_text())
        for pair in range(1, PAIRS + 1):
            order = ("base", "head") if pair % 2 else ("head", "base")
            for side in order:
                runs[side].append(_run(trees[side]))
            print(f"pair {pair}/{PAIRS} ({order[0]} first): "
                  + ", ".join(f"{side} correct={runs[side][-1]['correct']}"
                              for side in sides), flush=True)
    rows, failures = judge(runs["base"], runs["head"], config)
    _print(rows)
    for failure in failures:
        print(f"FAIL: {failure}")
    print("perfpair: " + ("FAIL" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
