#!/usr/bin/env python3
"""The repository benchmark's command.

Run one workload from the root of a checkout, untraced (the
end-to-end metrics) or traced (the per-layer metrics)::

    python3 perfbench/run.py --workload serve-churn --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload serve-churn --seed 1 --seconds 20 --trace 1

or every workload in turn, each in a process of its own::

    python3 perfbench/run.py --workload all

Each metric is printed by name with its unit and sample count, under
a stamp naming the machine, the sources, the seed and the input
digests.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit status is 0 only when every output check passed.  Results, and
for a traced run its spans and self-time figure, are also written
under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"


def _bootstrap() -> None:
    """Import the program from this checkout's sources, and keep
    temporary files (the shard workers' fork-server socket) inside
    the checkout."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {src}")
    for path in (str(src), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    # Relative, so the fork server's socket path stays under the
    # AF_UNIX length limit however deep the checkout sits.
    tempfile.tempdir = os.path.relpath(tmp)


def _stop_helper_processes() -> None:
    """Stop and reap the fork server and resource tracker that
    multiprocessing starts for the shard workers."""
    from multiprocessing import forkserver, resource_tracker
    for helper in (forkserver._forkserver,
                   resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


def _commit() -> str | None:
    """The checked-out commit, when the checkout is a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """Content hash of the program sources (names the code measured
    even where there is no commit to read)."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(outcome: Any) -> dict[str, Any]:
    """What a result must match before it is compared with another."""
    import numpy as np
    return {
        "workload": outcome.workload,
        "seed": outcome.seed,
        "traced": outcome.traced,
        "input_digests": outcome.inputs,
        "output_digest": outcome.outputs,
        "reference_ms": (statistics.mean(outcome.reference_ms)
                         if outcome.reference_ms else None),
        "commit": _commit(),
        "source_digest": _source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _parse(argv: list[str] | None, config: dict[str, Any]):
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run the repository benchmark.")
    parser.add_argument("--workload", required=True,
                        choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the seed the "
                             "recorded digests were taken at)")
    parser.add_argument("--seconds", type=float,
                        default=float(config["run_seconds"]),
                        help="timed work per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    return parser.parse_args(argv)


def _run_all(args, config: dict[str, Any]) -> int:
    """Every workload in turn, each in its own process (peak memory
    is per process)."""
    merged: dict[str, Any] = {}
    attempted = failed = 0
    correct = True
    for workload in config["workloads"]:
        name = workload["name"]
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.seed is not None:
            command += ["--seed", str(args.seed)]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            correct = False
            continue
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            merged[f"{name}.{metric}"] = value
    print(json.dumps({"attempted": max(attempted, 1), "correct": correct,
                      "failed": failed, "metrics": merged},
                     sort_keys=True))
    return 0 if correct else 1


def _print_split(outcome: Any, figure_path: Path) -> None:
    from repro.observe.figures import bar_figure
    total = outcome.traced_wall
    print(f"self-time split of {total:.4f} s traced wall "
          f"({outcome.samples['set-ups']} set-ups, "
          f"{outcome.samples['traced passes']} passes):")
    for name, seconds in outcome.split.items():
        print(f"  {name:<46} {seconds:10.4f} s {100 * seconds / total:6.2f}%")
    print(f"  {'sum':<46} {sum(outcome.split.values()):10.4f} s")
    figure_path.write_text(bar_figure(
        f"{outcome.workload}: self seconds per span "
        f"(traced wall {total:.2f} s)",
        list(outcome.split.items())))


def _write_spans(outcome: Any, path: Path, stamped: dict) -> None:
    t0 = outcome.spans[0][1] if outcome.spans else 0.0
    rows = [[name, start - t0, end - t0, parent, unit, phase]
            for name, start, end, parent, unit, phase in outcome.spans]
    fields = ["name", "start_s", "end_s", "parent", "unit", "phase"]
    path.write_text(json.dumps({"fields": fields, "spans": rows,
                                "stamp": stamped}, sort_keys=True))


def main(argv: list[str] | None = None,
         catalog: dict[str, Any] | None = None) -> int:
    """Run the benchmark; ``catalog`` swaps in other workload
    instances (the tests' tiny ones)."""
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = _parse(argv, config)
    _bootstrap()
    if args.workload == "all":
        return _run_all(args, config)
    from perfbench import measure, workloads
    from perfbench.reference import REFERENCE_MS
    catalog = catalog if catalog is not None else workloads.WORKLOADS
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    recorded = json.loads(
        (ROOT / "perfbench" / "digests.json").read_text())
    try:
        outcome = measure.measure(catalog[args.workload], seed,
                                  args.seconds, bool(args.trace),
                                  recorded)
    finally:
        _stop_helper_processes()
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in config[kind]}
    if outcome.metrics and set(outcome.metrics) != set(units):
        raise SystemExit(f"perfbench: {kind} metrics "
                         f"{sorted(set(outcome.metrics) ^ set(units))} "
                         "disagree with BENCHMARK.json")
    stamped = stamp(outcome)
    print(f"perfbench {outcome.workload}: seed={seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("stamp " + json.dumps(stamped, sort_keys=True))
    if outcome.reference_ms:
        scaled = ", ".join(catalog[args.workload].machine_scaled)
        print(f"reference kernel: {min(outcome.reference_ms):.3f} to "
              f"{max(outcome.reference_ms):.3f} ms over "
              f"{len(outcome.reference_ms)} samples; scaled to "
              f"{REFERENCE_MS} ms: {scaled} (raw values after each)")
    for name, unit in units.items():
        value = outcome.metrics.get(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        count = outcome.samples.get(name)
        raw = outcome.raw.get(name)
        print(f"  {name:<46} {shown:>14} {unit:<9}"
              + ("" if count is None else f" (n={count})")
              + ("" if raw is None else f" raw {raw:.6g}"))
    print(f"  {'failed_frac':<46} {outcome.failed / outcome.attempted:>14.6g}"
          f" {'fraction':<9} ({outcome.failed} of {outcome.attempted} "
          "ops failed)")
    if args.trace:
        print("  samples: " + json.dumps(outcome.samples, sort_keys=True))
    for failure in outcome.failures:
        print(f"CHECK FAILED: {failure}")
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{outcome.workload}-seed{seed}-trace{args.trace}"
    if args.trace and outcome.split:
        _print_split(outcome, OUT / f"{stem}-split.svg")
        _write_spans(outcome, OUT / f"{stem}-spans.json", stamped)
    correct = outcome.failed == 0 and not outcome.failures
    result = {"attempted": outcome.attempted, "correct": correct,
              "failed": outcome.failed,
              "metrics": {name: {"unit": unit,
                                 "value": outcome.metrics.get(name)}
                          for name, unit in units.items()}}
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"raw": outcome.raw, "result": result, "samples": outcome.samples,
         "split": outcome.split, "stamp": stamped}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
