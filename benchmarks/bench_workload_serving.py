"""Bench the batched lookup hot path against the scalar loop.

The serving simulator lives or dies by ``lookup_batch``: one
vectorized windowed binary search replaces a Python loop of scalar
lookups, with bit-identical probe counts.  This benchmark measures the
speedup on the RMI and the dynamic index across batch sizes, replays
one quick workload scenario end to end, runs the closed-loop duel
(adaptive vs oblivious, fixed vs tuned), runs the sharded-cluster
duel (concentrated vs uniform placement, static vs managed), and
writes the numbers as ``BENCH_workload.json`` (schema
``repro.bench.workload/v1``; the ``closed_loop`` and ``cluster``
sections are additive) — the wall-clock perf trajectory the ROADMAP
asks for, now spanning four PRs of surface.

The replay sections time the production tick pipeline only; its
parity with the op-by-op reference is pinned by the parity suites and
the golden replay digests under ``tests/``.

Run standalone with::

    PYTHONPATH=src python benchmarks/bench_workload_serving.py [out.json]

or through the bench harness (``pytest benchmarks/ --benchmark-only -s``).
``--check [snapshot.json]`` re-measures just the replay throughput and
exits non-zero when any backend falls more than 30% below the
committed snapshot, or when the snapshot is missing a checked section
— the (blocking) CI gate.  ``--check --sections serving_replay``
narrows the gate to a comma-separated subset of sections.

Regenerating the committed snapshot in place is guarded: the fresh
numbers must pass the ``--check`` tolerance against the existing file
or the run exits non-zero with the fresh payload parked at
``BENCH_workload.rejected.json`` (baseline untouched).

``--trajectory append [--label NAME] [--store DIR] [snapshot]`` copies
the committed snapshot into the append-only per-PR store
(``benchmarks/trajectory/``) and re-renders its ops/s sparkline;
``--trajectory check [--store DIR]`` re-measures and fails when any
lane drops more than 30% below the *best* snapshot ever recorded —
the trajectory gate.
"""

import sys
import time
from pathlib import Path

import numpy as np

from repro import io
from repro.data.keyset import Domain
from repro.data.synthetic import uniform_keyset
from repro.experiments.report import render_table, section
from repro.index import DynamicLearnedIndex, RecursiveModelIndex
from repro.observe import gallery, trajectory
from repro.workload import (
    ServingSimulator,
    TraceSpec,
    generate_trace,
    make_backend,
)

BENCH_SCHEMA = "repro.bench.workload/v1"
BATCH_SIZES = (100, 1_000, 10_000)
N_KEYS = 50_000
N_MODELS = 500


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def bench_batched_lookup() -> tuple[str, dict]:
    """Scalar-vs-vectorized lookup over growing batch sizes."""
    # repro: allow[REP001] -- bench corpus seed is pinned by the committed BENCH_workload.json trajectory
    rng = np.random.default_rng(97)
    keyset = uniform_keyset(N_KEYS, Domain.of_size(10 * N_KEYS), rng)
    structures = {
        "rmi": RecursiveModelIndex.build_equal_size(keyset, N_MODELS),
        "dynamic": DynamicLearnedIndex(keyset, n_models=N_MODELS),
    }
    rows = []
    record: dict = {}
    for name, index in structures.items():
        for size in BATCH_SIZES:
            queries = rng.choice(keyset.keys, size=size)
            scalar_s = _time(
                lambda: [index.lookup(int(q)) for q in queries])
            batch_s = _time(lambda: index.lookup_batch(queries))
            # The whole point: same probes, less interpreter.
            scalar_probes = sum(index.lookup(int(q)).probes
                                for q in queries)
            batch_probes = int(index.lookup_batch(queries).probes.sum())
            assert scalar_probes == batch_probes
            speedup = scalar_s / batch_s if batch_s > 0 else float("inf")
            rows.append([name, size, f"{scalar_s * 1e3:.1f}ms",
                         f"{batch_s * 1e3:.1f}ms", f"{speedup:.1f}x"])
            record[f"{name}/{size}"] = {
                "scalar_seconds": scalar_s,
                "batch_seconds": batch_s,
                "speedup": io.json_float(speedup),
            }
    table = (section(f"batched vs scalar lookup — {N_KEYS} keys, "
                     f"{N_MODELS} models") + "\n"
             + render_table(["index", "batch", "scalar", "batched",
                             "speedup"], rows))
    return table, record


def bench_serving_replay() -> tuple[str, dict]:
    """One quick streaming scenario end to end, per backend."""
    spec = TraceSpec(n_base_keys=5_000, n_ops=20_000,
                     query_mix="zipfian", insert_fraction=0.05,
                     delete_fraction=0.02, modify_fraction=0.02,
                     range_fraction=0.03, poison_schedule="drip",
                     poison_percentage=10.0, seed=101)
    trace = generate_trace(spec)
    rows = []
    record: dict = {}
    for name in ("binary", "rmi", "dynamic"):
        report = ServingSimulator(make_backend(name, trace.base_keys),
                                  trace, tick_ops=1000).run()
        ops_per_s = trace.n_ops / report.wall_seconds
        rows.append([name, f"{report.wall_seconds * 1e3:.0f}ms",
                     f"{ops_per_s:,.0f}", f"{report.p99:.1f}",
                     f"{report.final_amplification:.2f}x"])
        record[name] = {
            "wall_seconds": report.wall_seconds,
            "ops_per_second": ops_per_s,
            "p99_probes": io.json_float(report.p99),
            "amplification": io.json_float(
                report.final_amplification),
        }
    table = (section(f"serving replay — {spec.n_ops} ops, "
                     f"{spec.n_base_keys} base keys, drip poison")
             + "\n" + render_table(
                 ["backend", "wall", "ops/s", "p99 probes", "amplif."],
                 rows))
    return table, record


def bench_closed_loop() -> tuple[str, dict]:
    """The closed-loop duel on the calibrated quick scenario.

    Times the control-loop grid (the per-cell cost now includes
    Algorithm 2 pool crafting and the policy/tuner bookkeeping) and
    records the headline numbers the acceptance regression pins: the
    adaptive-over-oblivious amplification gap and how much of it the
    auto-tuner recovers.
    """
    from repro.experiments import closedloop_serving

    config = closedloop_serving.ClosedLoopConfig(
        adversaries=("oblivious", "escalate"))
    started = time.perf_counter()
    result = closedloop_serving.run(config)
    wall = time.perf_counter() - started
    rows = []
    record: dict = {
        "wall_seconds": wall,
        "cells": len(result.rows),
        "cells_per_second": (len(result.rows) / wall if wall > 0
                             else 0.0),
    }
    for backend in config.backends:
        oblivious = result.row(backend=backend,
                               adversary="oblivious",
                               defense="fixed").amplification
        fixed = result.row(backend=backend, adversary="escalate",
                           defense="fixed").amplification
        tuned = result.row(backend=backend, adversary="escalate",
                           defense="tuned").amplification
        rows.append([backend, f"{oblivious:.3f}", f"{fixed:.3f}",
                     f"{tuned:.3f}", f"{fixed - oblivious:+.3f}",
                     f"{fixed - tuned:+.3f}"])
        record[backend] = {
            "oblivious_amplification": io.json_float(oblivious),
            "adaptive_amplification": io.json_float(fixed),
            "tuned_amplification": io.json_float(tuned),
            "adaptive_gap": io.json_float(fixed - oblivious),
            "tuner_recovered": io.json_float(fixed - tuned),
        }
    table = (section(f"closed-loop duel — {len(result.rows)} cells, "
                     f"{wall:.1f}s wall")
             + "\n" + render_table(
                 ["backend", "oblivious", "adaptive", "tuned",
                  "gap", "recovered"], rows))
    return table, record


def bench_cluster() -> tuple[str, dict]:
    """The sharded-cluster duel on the calibrated quick scenario.

    Times the tenant-layout grid (a cell now builds a shard map, one
    backend per shard, the crafted pools, and the whole management
    loop) and records the headline numbers the cluster acceptance
    regression pins: the concentrated-over-uniform victim-tenant
    amplification gap and how much of it cluster management
    (rebalancing + SLO-weighted per-shard tuning) claws back.
    """
    from repro.experiments import cluster_serving

    config = cluster_serving.quick_config()
    started = time.perf_counter()
    result = cluster_serving.run(config)
    wall = time.perf_counter() - started
    rows = []
    record: dict = {
        "wall_seconds": wall,
        "cells": len(result.rows),
        "cells_per_second": (len(result.rows) / wall if wall > 0
                             else 0.0),
    }
    for backend in config.backends:
        uniform = result.row(backend=backend, adversary="uniform",
                             defense="static").victim_amplification
        static = result.row(backend=backend,
                            adversary="concentrated",
                            defense="static").victim_amplification
        managed = result.row(backend=backend,
                             adversary="concentrated",
                             defense="managed").victim_amplification
        rows.append([backend, f"{uniform:.3f}", f"{static:.3f}",
                     f"{managed:.3f}", f"{static - uniform:+.3f}",
                     f"{static - managed:+.3f}"])
        record[backend] = {
            "uniform_amplification": io.json_float(uniform),
            "concentrated_amplification": io.json_float(static),
            "managed_amplification": io.json_float(managed),
            "placement_gap": io.json_float(static - uniform),
            "management_recovered": io.json_float(static - managed),
        }
    # Raw replay throughput: one larger sharded scenario per backend.
    from repro.cluster import ClusterRouter, ClusterSimulator, ShardMap

    spec = TraceSpec(n_base_keys=5_000, n_ops=20_000,
                     query_mix="zipfian", insert_fraction=0.05,
                     delete_fraction=0.02, modify_fraction=0.02,
                     range_fraction=0.03, n_tenants=3,
                     tenant_layout="skewed", slo_p95=5.0, seed=101)
    trace = generate_trace(spec)
    throughput_rows = []
    for backend in config.backends:
        kw = ({"model_size": config.model_size}
              if backend in ("rmi", "dynamic") else {})
        shard_map = ShardMap.balanced(trace.base_keys, 4,
                                      spec.domain())
        router = ClusterRouter(
            shard_map, trace.base_keys, backend,
            rebuild_threshold=config.rebuild_threshold, **kw)
        report = ClusterSimulator(router, trace, tick_ops=1000).run()
        ops_per_s = trace.n_ops / report.wall_seconds
        throughput_rows.append([
            backend, f"{report.wall_seconds * 1e3:.0f}ms",
            f"{ops_per_s:,.0f}"])
        record[backend].update({
            "wall_seconds_replay": report.wall_seconds,
            "ops_per_second": ops_per_s,
        })
    table = (section(f"cluster duel — {len(result.rows)} cells, "
                     f"{wall:.1f}s wall, victim tenant 0")
             + "\n" + render_table(
                 ["backend", "uniform", "concentrated", "managed",
                  "gap", "recovered"], rows)
             + "\n\n" + section(
                 f"cluster replay — {spec.n_ops} ops, 4 shards")
             + "\n" + render_table(
                 ["backend", "wall", "ops/s"], throughput_rows))
    return table, record


def _run_sections() -> tuple[str, dict]:
    """Measure every section once; return (tables, snapshot payload)."""
    lookup_table, lookup_record = bench_batched_lookup()
    replay_table, replay_record = bench_serving_replay()
    loop_table, loop_record = bench_closed_loop()
    cluster_table, cluster_record = bench_cluster()
    payload = {
        "schema": BENCH_SCHEMA,
        "batched_lookup": lookup_record,
        "serving_replay": replay_record,
        "closed_loop": loop_record,
        "cluster": cluster_record,
    }
    return (f"{lookup_table}\n\n{replay_table}\n\n{loop_table}"
            f"\n\n{cluster_table}", payload)


def run_bench(out_path: str = "BENCH_workload.json") -> str:
    """Run all sections; persist the JSON record; return the tables.

    Regeneration in place is guarded: when ``out_path`` already holds
    a snapshot, the fresh numbers must pass the ``--check`` tolerance
    against it before the file is replaced — see
    :func:`_guarded_save`.
    """
    tables, payload = _run_sections()
    _guarded_save(payload, out_path)
    return tables


#: Throughput may regress this far against the committed snapshot
#: before ``--check`` fails — generous because CI machines differ
#: from the machine that recorded the snapshot.
CHECK_TOLERANCE = 0.30

#: The replay sections ``--check`` re-measures.  Each checked section
#: must exist in the committed snapshot: a missing section means the
#: snapshot predates the section (or was trimmed), and silently
#: passing it would let a new serving path ship ungated.
CHECK_SECTIONS = ("serving_replay", "cluster")


def _measure_section(name: str) -> dict:
    """Fresh numbers for one checkable section (measurer dispatch)."""
    if name == "serving_replay":
        return bench_serving_replay()[1]
    if name == "cluster":
        return bench_cluster()[1]
    raise ValueError(
        f"unknown bench section {name!r}; checkable sections: "
        f"{', '.join(CHECK_SECTIONS)}")


def _compare_ops(baseline: dict, fresh: dict,
                 sections: "tuple[str, ...]",
                 ) -> "tuple[list[list[str]], list[tuple]]":
    """Per-backend ops/s comparison shared by every gate.

    Returns (table rows, failures).  A backend present in ``fresh``
    but absent from ``baseline`` passes as ``new`` — a fresh backend
    can land before its first recording; one that lost more than
    ``CHECK_TOLERANCE`` of its baseline throughput is a failure.
    """
    failures = []
    rows = []
    for section_name in sections:
        record = fresh.get(section_name, {})
        if not isinstance(record, dict):
            continue
        recorded_section = baseline.get(section_name, {})
        for backend, stats in record.items():
            if not isinstance(stats, dict) \
                    or "ops_per_second" not in stats:
                continue
            recorded = recorded_section.get(backend, {}) \
                if isinstance(recorded_section.get(backend), dict) \
                else {}
            recorded_ops = recorded.get("ops_per_second")
            measured = stats["ops_per_second"]
            if recorded_ops is None:
                rows.append([section_name, backend, "-",
                             f"{measured:,.0f}", "new"])
                continue
            ratio = measured / recorded_ops
            verdict = "ok" if ratio >= 1.0 - CHECK_TOLERANCE \
                else "REGRESSED"
            rows.append([section_name, backend,
                         f"{recorded_ops:,.0f}", f"{measured:,.0f}",
                         f"{ratio:.2f}x {verdict}"])
            if verdict == "REGRESSED":
                failures.append((section_name, backend, ratio))
    return rows, failures


def _guarded_save(payload: dict, out_path: str) -> None:
    """Replace a committed snapshot only when the fresh numbers pass.

    Regenerating ``BENCH_workload.json`` in place used to be able to
    silently lower the bar: a slow machine rewriting the snapshot 40%
    down would make every later ``--check`` pass trivially.  Now a
    fresh payload must clear the same tolerance as ``--check``
    against the existing file before it may replace it; on failure
    the fresh numbers are parked at ``<out stem>.rejected.json``, the
    committed baseline stays untouched, and the run exits non-zero.
    (``io.save_json`` writes through a temp file + ``os.replace``, so
    a passing replacement is atomic as well.)
    """
    out = Path(out_path)
    if out.exists():
        committed = io.load_json(out_path)
        rows, failures = _compare_ops(committed, payload,
                                      CHECK_SECTIONS)
        if failures:
            rejected = out.with_name(out.stem + ".rejected.json")
            io.save_json(payload, rejected)
            print(section("snapshot regeneration guard"))
            print(render_table(["section", "backend", "recorded",
                                "measured", "verdict"], rows))
            print(f"\nFAIL: fresh numbers regressed more than "
                  f"{CHECK_TOLERANCE:.0%} below the committed "
                  f"snapshot; kept {out_path}, parked the fresh "
                  f"payload at {rejected}")
            raise SystemExit(1)
    io.save_json(payload, out_path)


def check_throughput(snapshot_path: str = "BENCH_workload.json",
                     sections: "tuple[str, ...] | None" = None) -> int:
    """Fast regression gate: fresh replay throughput vs the snapshot.

    Re-measures the replay sections (skipping the grid duels),
    compares every backend's ``ops_per_second`` against the committed
    ``BENCH_workload.json``, and returns a non-zero exit code when any
    backend lost more than ``CHECK_TOLERANCE`` of its recorded
    throughput — or when the snapshot is *missing* a checked section
    outright (an expected section with no baseline is a check
    failure, not a free pass).  Individual backends absent from a
    present section still pass as ``new`` — a fresh backend can land
    before its first recording.  ``sections`` narrows the gate (the
    quickest CI step checks ``serving_replay`` alone).
    """
    sections = tuple(sections) if sections else CHECK_SECTIONS
    committed = io.load_json(snapshot_path)
    missing = [name for name in sections if name not in committed]
    if missing:
        print(section("throughput check vs committed snapshot"))
        print(f"FAIL: snapshot {snapshot_path} is missing expected "
              f"section(s): {', '.join(missing)}.  Regenerate it with "
              f"`PYTHONPATH=src python "
              f"benchmarks/bench_workload_serving.py` and commit the "
              f"result.")
        return 1
    fresh = {name: _measure_section(name) for name in sections}
    rows, failures = _compare_ops(committed, fresh, sections)
    print(section("throughput check vs committed snapshot"))
    print(render_table(["section", "backend", "recorded",
                        "measured", "verdict"], rows))
    if failures:
        print(f"\nFAIL: {len(failures)} backend(s) regressed more "
              f"than {CHECK_TOLERANCE:.0%}")
        return 1
    print("\nOK: throughput within tolerance")
    return 0


def trajectory_append(snapshot_path: str = "BENCH_workload.json",
                      store_dir: "str | None" = None,
                      label: str = "snapshot") -> int:
    """Append the committed snapshot to the trajectory store.

    Copies the snapshot in under the next append-only index, then
    re-renders the ops/s-over-PRs sparkline (``trajectory.svg``) next
    to the store so the gallery stays current.
    """
    store = Path(store_dir) if store_dir else trajectory.DEFAULT_STORE
    target = trajectory.append(snapshot_path, store_dir=store,
                               label=label)
    print(f"appended {target}")
    svg = gallery.trajectory_figure(store)
    if svg is not None:
        figure = store / "trajectory.svg"
        figure.write_text(svg)
        print(f"rendered {figure}")
    return 0


def trajectory_check(store_dir: "str | None" = None,
                     sections: "tuple[str, ...] | None" = None) -> int:
    """The trajectory gate: fresh throughput vs the *best* snapshot.

    Unlike ``--check`` (which diffs against the one committed
    snapshot), this gate re-measures and compares against the best
    ops/s each lane ever recorded across the whole append-only store
    — so a weak snapshot recorded on a slow runner can never lower
    the bar.  An empty store passes trivially.
    """
    sections = tuple(sections) if sections else CHECK_SECTIONS
    store = Path(store_dir) if store_dir else trajectory.DEFAULT_STORE
    best = trajectory.best_ops(store, sections=sections)
    if not best:
        print(section("trajectory gate"))
        print(f"OK: no snapshots under {store} — nothing to gate "
              f"against")
        return 0
    baseline: dict = {}
    for lane, ops in best.items():
        section_name, backend = lane.split("/", 1)
        baseline.setdefault(section_name, {})[backend] = {
            "ops_per_second": ops}
    fresh = {name: _measure_section(name) for name in sections}
    rows, failures = _compare_ops(baseline, fresh, sections)
    print(section(f"trajectory gate — fresh vs best of "
                  f"{len(trajectory.list_snapshots(store))} "
                  f"snapshot(s)"))
    print(render_table(["section", "backend", "best", "measured",
                        "verdict"], rows))
    if failures:
        print(f"\nFAIL: {len(failures)} backend(s) regressed more "
              f"than {CHECK_TOLERANCE:.0%} below the best recorded "
              f"snapshot")
        return 1
    print("\nOK: throughput within tolerance of the best snapshot")
    return 0


def test_workload_serving_bench(once, tmp_path):
    table = once(lambda: run_bench(str(tmp_path / "BENCH.json")))
    print()
    print(table)


def _pop_option(rest: "list[str]", flag: str,
                example: str) -> "str | None":
    """Extract ``flag VALUE`` from an argument list, if present."""
    if flag not in rest:
        return None
    at = rest.index(flag)
    if at + 1 >= len(rest):
        raise SystemExit(f"{flag} needs a value, e.g. {flag} {example}")
    value = rest[at + 1]
    del rest[at:at + 2]
    return value


if __name__ == "__main__":
    args = sys.argv[1:]
    if args and args[0] == "--check":
        rest = list(args[1:])
        raw = _pop_option(rest, "--sections", "serving_replay,cluster")
        sections = (tuple(s for s in raw.split(",") if s)
                    if raw is not None else None)
        snapshot = rest[0] if rest else "BENCH_workload.json"
        raise SystemExit(check_throughput(snapshot,
                                          sections=sections))
    if args and args[0] == "--trajectory":
        rest = list(args[1:])
        mode = rest.pop(0) if rest and not rest[0].startswith("-") \
            else "check"
        if mode not in ("append", "check"):
            raise SystemExit(
                f"--trajectory mode must be 'append' or 'check', "
                f"got {mode!r}")
        store = _pop_option(rest, "--store", "benchmarks/trajectory")
        if mode == "append":
            label = _pop_option(rest, "--label", "pr8") or "snapshot"
            snapshot = rest[0] if rest else "BENCH_workload.json"
            raise SystemExit(trajectory_append(snapshot,
                                               store_dir=store,
                                               label=label))
        raw = _pop_option(rest, "--sections", "serving_replay,cluster")
        sections = (tuple(s for s in raw.split(",") if s)
                    if raw is not None else None)
        raise SystemExit(trajectory_check(store_dir=store,
                                          sections=sections))
    out = args[0] if args else "BENCH_workload.json"
    print(run_bench(out))
    print(f"\nwrote {out}")
