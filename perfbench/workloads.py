"""The four workloads: inputs from the seed, set-up, timed passes, checks.

Every workload is a closed loop with one caller in one process: the
simulator sends tick t+1 when tick t has returned (or Algorithm 2
runs its next cell when the last one is done), and no rate is
imposed.  A *pass* is one unit of timed work — one full replay of the
workload's trace through a fresh backend or cluster, or one
Algorithm-2 grid — and a run repeats passes until its time is up.

The program only ever sees the generated inputs: the benchmark's
``--seed`` is folded with the workload name through
``stable_seed_words`` into ``TraceSpec.seed`` / ``Fig7Config.seed``.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

import repro.cluster.replication as replication
import repro.cluster.router as cluster_router
import repro.cluster.simulator as cluster_simulator
import repro.cluster.transport as transport
import repro.core.greedy as greedy
import repro.core.rmi_attack as rmi_attack
import repro.experiments.fig7_rmi_realworld as fig7
import repro.workload.backends as backends
import repro.workload.simulator as serving_simulator
import repro.workload.trace as trace_gen
from repro.cluster import (
    ClusterRouter,
    ClusterSimulator,
    ShardMap,
    TransportClusterRouter,
)
from repro.runtime import stable_seed_words
from repro.workload import (
    ServingSimulator,
    TraceSpec,
    generate_trace,
    make_backend,
)

from .spans import Recorder

__all__ = ["DEFAULT_SEED", "TIME_METRICS", "Pass", "Session", "WORKLOADS",
           "derived_seed", "digest", "check_attack_cell",
           "ServeWorkload", "ClusterWorkload", "AttackWorkload"]

#: The seed whose output digests ``perfbench/digests.json`` records.
DEFAULT_SEED = 1

#: The end-to-end metrics that move with the machine's speed.
TIME_METRICS = ("setup_s", "ops_per_s", "tick_ms_p50", "tick_ms_p95",
                "attack_keys_per_s")


def derived_seed(seed: int, workload: str) -> int:
    """The program-side seed of ``workload`` under benchmark seed
    ``seed``: one 32-bit word of a SeedSequence over
    ``stable_seed_words(seed, workload)``."""
    sequence = np.random.SeedSequence(stable_seed_words(seed, workload))
    return int(sequence.generate_state(1)[0])


def digest(payload: Any) -> str:
    """Content hash of a JSON-safe payload (canonical, sorted keys)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _array_digest(arr: np.ndarray) -> str:
    data = np.ascontiguousarray(arr, dtype="<i8").tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


@dataclass
class Pass:
    """What one timed pass produced.

    ``ops`` are the operations the pass attempted (trace ops, or cells
    for the attack grid) and ``failed`` those its output checks
    rejected.  ``work`` is the unit behind ``ops_per_s``: trace ops
    replayed, or Algorithm-1 steps taken.  ``ticks_ms`` holds one
    latency per tick (per Algorithm-1 call on the attack grid).
    """

    ops: int
    failed: int
    wall: float
    work: int
    ticks_ms: list[float]
    digest: str
    keys: int = 0
    reads: int = 0
    probes: int = 0
    models: int = 0
    exchanges: int = 0
    degraded: int = 0
    worker_cpu_s: float = 0.0
    worker_peak_mib: float = 0.0
    #: Machine-speed scale of the pass (see :mod:`perfbench.reference`).
    scale: float = 1.0


class Session:
    """What one run's set-ups and passes share.

    ``greedy_calls`` logs every Algorithm-1 call as ``(phase, traced,
    seconds, budget, placed)`` and ``rmi_calls`` every Algorithm-2 call
    as ``(keyset, n_models, capability, result)``; ``recorder`` is set
    while a traced phase runs.
    """

    def __init__(self) -> None:
        self.recorder: Recorder | None = None
        self.phase = "setup"
        self.greedy_calls: list[tuple[str, bool, float, int, int]] = []
        self.rmi_calls: list[tuple[Any, int, Any, Any]] = []

    def set_phase(self, phase: str) -> None:
        self.phase = phase
        if self.recorder is not None:
            self.recorder.phase = phase

    def span(self, name: str):
        return (nullcontext() if self.recorder is None
                else self.recorder.span(name))


@dataclass
class _Tally:
    """Tick entry times and read probes seen by the tick hook."""

    entries: list[float] = field(default_factory=list)
    reads: int = 0
    probes: int = 0


def _hook_ticks(target: Any, session: Session) -> _Tally:
    """Time every tick at the simulator's ``replay_ops`` entry.

    The hook shadows the bound method on the one backend or router
    the simulator drives, so a tick runs from one entry to the next
    and the last one ends when ``run()`` returns.
    """
    tally = _Tally()
    inner = target.replay_ops

    def replay_ops(kinds, keys, aux):
        tally.entries.append(time.perf_counter())
        if session.recorder is not None:
            session.recorder.unit += 1
        found, probes = inner(kinds, keys, aux)
        tally.reads += int(probes.size)
        tally.probes += int(probes.sum())
        return found, probes

    target.replay_ops = replay_ops
    return tally


def _tick_ms(tally: _Tally, ended: float) -> list[float]:
    stamps = np.asarray(tally.entries + [ended])
    return (np.diff(stamps) * 1e3).tolist()


def _greedy_probe(session: Session) -> Callable:
    def make(fn: Callable) -> Callable:
        def greedy_poison(keyset, n_poison, *args, **kwargs):
            started = time.perf_counter()
            result = fn(keyset, n_poison, *args, **kwargs)
            session.greedy_calls.append(
                (session.phase, session.recorder is not None,
                 time.perf_counter() - started, int(n_poison),
                 int(result.n_injected)))
            return result
        return greedy_poison
    return make


def _rmi_probe(session: Session) -> Callable:
    def make(fn: Callable) -> Callable:
        def poison_rmi(keyset, n_models, capability, *args, **kwargs):
            result = fn(keyset, n_models, capability, *args, **kwargs)
            session.rmi_calls.append((keyset, int(n_models), capability,
                                      result))
            return result
        return poison_rmi
    return make


def _count_mutations(recorder: Recorder) -> Callable:
    def make(fn: Callable) -> Callable:
        def decompose_ops(kinds, keys, aux):
            ops = fn(kinds, keys, aux)
            recorder.counts["columnar.mutations"] += int(ops.sub_key.size)
            return ops
        return decompose_ops
    return make


def _count_rewrites(recorder: Recorder) -> Callable:
    def make(fn: Callable) -> Callable:
        def sorted_primitive(arr, values):
            out = fn(arr, values)
            if out is not arr:
                recorder.counts["columnar.rewrite_bytes"] += int(
                    out.nbytes)
            return out
        return sorted_primitive
    return make


#: Span targets: (owner, attribute, span name, starts a new cell).
SpanTarget = tuple[Any, str, str, bool]

_ALGORITHM1_SETUP: list[SpanTarget] = [
    (trace_gen, "greedy_poison", "core.greedy.greedy_poison", False),
    (greedy, "fit_cdf_regression", "core.cdf_regression.fit", False),
]


@dataclass
class _Ticked:
    """A ticked workload's live state: the trace, the backend or
    router the simulator drives, and (cluster-proc) the shard map and
    the in-process reference digest of the parity pin."""

    trace: Any
    target: Any
    shard_map: Any = None
    reference: str | None = None


@dataclass(frozen=True)
class _TickedWorkload:
    """What the three ticked workloads share: a ``TraceSpec`` whose
    seed comes from the benchmark's, replayed in ticks of
    ``tick_ops``; its Algorithm-1 poison is crafted during set-up."""

    name: str
    spec: dict[str, Any]
    rebuild_threshold: float
    model_size: int = 100
    tick_ops: int = 200
    setups: int = 9
    min_ticks: int = 200
    #: End-to-end metrics scaled to the reference machine (see
    #: :mod:`perfbench.reference`).
    machine_scaled: tuple[str, ...] = TIME_METRICS

    def inputs(self, seed: int) -> TraceSpec:
        return TraceSpec(seed=derived_seed(seed, self.name), **self.spec)

    def input_digests(self, spec: TraceSpec) -> dict[str, str]:
        return {"trace_spec": spec.digest}

    def probe_targets(self, session: Session) -> list:
        return [(trace_gen, "greedy_poison", _greedy_probe(session))]

    def trace_digest(self, state: _Ticked) -> str:
        return f"{state.trace.spec.digest}:{state.trace.checksum()}"

    def prepare(self, state: _Ticked, session: Session) -> None:
        pass

    def count_targets(self, recorder: Recorder) -> list:
        return []

    def close(self, state: _Ticked) -> None:
        pass


# ----------------------------------------------------------------------
# serve-churn / serve-read
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServeWorkload(_TickedWorkload):
    """``ServingSimulator`` driving one ``RMIBackend``."""

    def span_targets(self) -> list[SpanTarget]:
        serving = backends.ServingBackend
        return _ALGORITHM1_SETUP + [
            (serving_simulator.ServingSimulator, "run",
             "workload.simulator", False),
            (serving, "replay_ops", "workload.backends.replay_ops", False),
            (serving, "rebuild", "workload.backends.rebuild", False),
            (serving, "lookup_batch", "workload.backends.lookup_batch",
             False),
            (serving, "error_bound", "workload.backends.error_bound",
             False),
        ]

    def count_targets(self, recorder: Recorder) -> list:
        rewrites = _count_rewrites(recorder)
        return [(backends, "decompose_ops", _count_mutations(recorder))] + [
            (backends, name, rewrites)
            for name in ("sorted_insert", "sorted_remove",
                         "sorted_insert_unique", "sorted_remove_present")]

    def _build(self, trace) -> Any:
        return make_backend("rmi", trace.base_keys,
                            rebuild_threshold=self.rebuild_threshold,
                            model_size=self.model_size)

    def setup(self, spec: TraceSpec, session: Session) -> _Ticked:
        with session.span("setup.trace"):
            trace = generate_trace(spec)
        with session.span("setup.build"):
            backend = self._build(trace)
        return _Ticked(trace=trace, target=backend)

    def run_pass(self, state: _Ticked, session: Session) -> Pass:
        simulator = ServingSimulator(state.target, state.trace,
                                     tick_ops=self.tick_ops)
        tally = _hook_ticks(state.target, session)
        started = time.perf_counter()
        report = simulator.run()
        ended = time.perf_counter()
        with session.span("bench.check"):
            out = digest(report.to_dict())
        return Pass(ops=state.trace.n_ops, failed=0, wall=ended - started,
                    work=state.trace.n_ops,
                    ticks_ms=_tick_ms(tally, ended), digest=out,
                    reads=tally.reads, probes=tally.probes)

    def renew(self, state: _Ticked, session: Session) -> _Ticked:
        with session.span("bench.renew"):
            return replace(state, target=self._build(state.trace))


# ----------------------------------------------------------------------
# cluster-proc
# ----------------------------------------------------------------------
def worker_usage() -> tuple[float, float]:
    """(CPU seconds, peak resident MiB) summed over live child
    processes — the shard workers — read from ``/proc``."""
    per_tick = os.sysconf("SC_CLK_TCK")
    cpu = peak = 0.0
    for proc in multiprocessing.active_children():
        with open(f"/proc/{proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        cpu += (int(fields[11]) + int(fields[12])) / per_tick
        with open(f"/proc/{proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    peak += int(line.split()[1]) / 1024.0
    return cpu, peak


@dataclass(frozen=True)
class ClusterWorkload(_TickedWorkload):
    """``ClusterSimulator`` over a ``TransportClusterRouter``:
    ``DynamicBackend`` shards, each a group of worker processes."""

    shards: int = 2
    replicas: int = 3
    #: Only Algorithm 1's crafting, which runs in this process before
    #: any worker exists.  Ticks and set-ups wait on six worker
    #: processes spread over every CPU, which the single-thread kernel
    #: does not track: scaled, ten seeds spread 16-23% against 5-9%
    #: unscaled on a shared 2-vCPU Xeon VM.
    machine_scaled: tuple[str, ...] = ("attack_keys_per_s",)

    def span_targets(self) -> list[SpanTarget]:
        router = cluster_router.ClusterRouter
        group = replication.ReplicaGroup
        return _ALGORITHM1_SETUP + [
            (cluster_simulator.ClusterSimulator, "run",
             "cluster.simulator", False),
            (router, "replay_ops", "cluster.router.replay_ops", False),
            (router, "lookup_batch", "cluster.router.lookup_batch", False),
            (group, "replay_ops", "cluster.replication.replay_ops", False),
            (group, "detect", "cluster.replication.detect", False),
            (transport.WorkerClient, "call", "cluster.transport.call",
             False),
        ]

    def _router(self, state: _Ticked, process: bool) -> ClusterRouter:
        base = state.trace.base_keys
        if process:
            return TransportClusterRouter(
                state.shard_map, base, "dynamic",
                replicas=self.replicas, read_mode="quorum",
                detect_divergence=True,
                rebuild_threshold=self.rebuild_threshold,
                model_size=self.model_size)
        return ClusterRouter(state.shard_map, base, "dynamic",
                             rebuild_threshold=self.rebuild_threshold,
                             model_size=self.model_size)

    def setup(self, spec: TraceSpec, session: Session) -> _Ticked:
        with session.span("setup.trace"):
            trace = generate_trace(spec)
        with session.span("setup.build"):
            state = _Ticked(trace=trace, target=None,
                            shard_map=ShardMap.balanced(
                                trace.base_keys, self.shards,
                                spec.domain()))
            state.target = self._router(state, process=True)
        return state

    def prepare(self, state: _Ticked, session: Session) -> None:
        """The transport/in-process parity pin, outside any timing:
        the in-process router's report on the same trace becomes the
        reference every transport pass must equal."""
        report = ClusterSimulator(self._router(state, process=False),
                                  state.trace,
                                  tick_ops=self.tick_ops).run()
        state.reference = digest(report.to_dict())

    def run_pass(self, state: _Ticked, session: Session) -> Pass:
        router = state.target
        simulator = ClusterSimulator(router, state.trace,
                                     tick_ops=self.tick_ops)
        tally = _hook_ticks(router, session)
        cpu_before, _ = worker_usage()
        started = time.perf_counter()
        report = simulator.run()
        ended = time.perf_counter()
        cpu_after, peak = worker_usage()
        with session.span("bench.check"):
            out = digest(report.to_dict())
            degraded = int(np.nansum(report.series["degraded"]))
            failed = (state.trace.n_ops if out != state.reference
                      else min(degraded, state.trace.n_ops))
        return Pass(ops=state.trace.n_ops, failed=failed,
                    wall=ended - started, work=state.trace.n_ops,
                    ticks_ms=_tick_ms(tally, ended), digest=out,
                    reads=tally.reads, probes=tally.probes,
                    degraded=degraded,
                    worker_cpu_s=cpu_after - cpu_before,
                    worker_peak_mib=peak)

    def renew(self, state: _Ticked, session: Session) -> _Ticked:
        with session.span("bench.renew"):
            state.target.close()
            return replace(state,
                           target=self._router(state, process=True))

    def close(self, state: _Ticked) -> None:
        state.target.close()


# ----------------------------------------------------------------------
# attack-rmi
# ----------------------------------------------------------------------
def check_attack_cell(keys: np.ndarray, budget: int,
                      poison: np.ndarray) -> list[str]:
    """Why one Algorithm-2 cell's output is wrong (empty when right).

    The cell must place exactly its budget, and its poison keys must
    be unique, inside the legitimate key range and disjoint from the
    legitimate keys.
    """
    poison = np.asarray(poison, dtype=np.int64)
    problems = []
    if poison.size != budget:
        problems.append(f"placed {poison.size} keys, budget {budget}")
    if np.unique(poison).size != poison.size:
        problems.append("duplicate poison keys")
    if poison.size and (poison.min() < keys.min()
                        or poison.max() > keys.max()):
        problems.append("poison keys outside the key range")
    if np.intersect1d(poison, keys).size:
        problems.append("poison keys collide with legitimate keys")
    return problems


@dataclass
class _Grid:
    """attack-rmi's state: the grid config and the oracle keysets."""

    config: Any
    keysets: dict[tuple[str, int], np.ndarray]


@dataclass(frozen=True)
class AttackWorkload:
    """``fig7_rmi_realworld.run`` on the Miami-Dade salary keyset."""

    name: str
    salary_keys: int = 5_300
    model_size: int = 100
    percentages: tuple[float, ...] = (5.0, 10.0, 20.0)
    setups: int = 9
    min_ticks: int = 0
    machine_scaled: tuple[str, ...] = TIME_METRICS

    def inputs(self, seed: int) -> Any:
        return replace(fig7.quick_config(), include_osm=False,
                       salary_keys=self.salary_keys,
                       model_sizes=(self.model_size,),
                       poisoning_percentages=self.percentages,
                       seed=derived_seed(seed, self.name))

    def input_digests(self, config: Any) -> dict[str, str]:
        return {f"cell{i}": cell.digest
                for i, cell in enumerate(fig7.plan_cells(config))}

    def probe_targets(self, session: Session) -> list:
        return [(rmi_attack, "greedy_poison", _greedy_probe(session)),
                (fig7, "poison_rmi", _rmi_probe(session))]

    def span_targets(self) -> list[SpanTarget]:
        return [
            (fig7, "run", "experiments.fig7", False),
            (fig7, "run_realworld_cell", "experiments.fig7.cell", True),
            (fig7, "poison_rmi", "core.rmi_attack", False),
            (rmi_attack, "greedy_poison", "core.greedy.greedy_poison",
             False),
            (rmi_attack, "fit_cdf_regression", "core.cdf_regression.fit",
             False),
            (greedy, "fit_cdf_regression", "core.cdf_regression.fit",
             False),
        ]

    def count_targets(self, recorder: Recorder) -> list:
        return []

    def setup(self, config: Any, session: Session) -> _Grid:
        """Regenerate each cell's keyset as the check oracle (the grid
        itself generates them again inside the timed pass, as the
        experiment CLI does)."""
        with session.span("setup.trace"):
            keysets = {}
            for cell in fig7.plan_cells(config):
                p = cell.params_dict
                key = (p["dataset"], p["n_keys"])
                if key not in keysets:
                    keysets[key] = fig7._make_keyset(
                        p["dataset"], p["n_keys"], p["seed"]).keys
        return _Grid(config=config, keysets=keysets)

    def trace_digest(self, state: _Grid) -> str:
        return ":".join(_array_digest(keys)
                        for _, keys in sorted(state.keysets.items()))

    def prepare(self, state: _Grid, session: Session) -> None:
        pass

    def run_pass(self, state: _Grid, session: Session) -> Pass:
        session.rmi_calls.clear()
        first_call = len(session.greedy_calls)
        started = time.perf_counter()
        result = fig7.run(state.config, jobs=1)
        ended = time.perf_counter()
        calls = session.greedy_calls[first_call:]
        with session.span("bench.check"):
            failed = 0
            poison_digests = []
            oracle = state.keysets[(fig7.MIAMI, state.config.salary_keys)]
            for keyset, _, capability, cell in session.rmi_calls:
                problems = check_attack_cell(
                    oracle, capability.budget(keyset.n), cell.poison_keys)
                if not np.array_equal(keyset.keys, oracle):
                    problems.append("keyset differs from the oracle")
                failed += bool(problems)
                poison_digests.append(_array_digest(cell.poison_keys))
            cells = len(result.cells)
            if len(session.rmi_calls) != cells:
                failed = cells
            out = digest({"result": result.to_dict(),
                          "poison": poison_digests})
        return Pass(
            ops=cells, failed=failed, wall=ended - started,
            work=sum(budget for _, _, _, budget, _ in calls),
            ticks_ms=[seconds * 1e3 for _, _, seconds, _, _ in calls],
            digest=out,
            keys=sum(int(r.poison_keys.size)
                     for _, _, _, r in session.rmi_calls),
            models=sum(n for _, n, _, _ in session.rmi_calls),
            exchanges=sum(int(r.exchanges)
                          for _, _, _, r in session.rmi_calls))

    def renew(self, state: _Grid, session: Session) -> _Grid:
        return state

    def close(self, state: _Grid) -> None:
        pass


# ----------------------------------------------------------------------
# The catalogue
# ----------------------------------------------------------------------
_CHURN_SPEC = dict(n_base_keys=5_000, domain_factor=10, n_ops=40_000,
                   query_mix="zipfian", insert_fraction=0.05,
                   delete_fraction=0.02, modify_fraction=0.02,
                   range_fraction=0.03, poison_schedule="drip",
                   poison_percentage=10.0)
_READ_SPEC = dict(n_base_keys=5_000, domain_factor=10, n_ops=40_000,
                  query_mix="zipfian", range_fraction=0.05,
                  poison_schedule="oneshot", poison_percentage=12.0)
_CLUSTER_SPEC = dict(n_base_keys=3_000, domain_factor=10, n_ops=60_000,
                     query_mix="zipfian", insert_fraction=0.04,
                     delete_fraction=0.01, modify_fraction=0.01,
                     range_fraction=0.03, poison_schedule="drip",
                     poison_percentage=10.0, n_tenants=3,
                     tenant_layout="skewed", tenant_skew=0.5)

#: Why each workload is in the benchmark: see ``BENCHMARK.json`` and
#: ``perfbench/README.md``.
WORKLOADS = {w.name: w for w in (
    ServeWorkload("serve-churn", _CHURN_SPEC, rebuild_threshold=0.03),
    ServeWorkload("serve-read", _READ_SPEC, rebuild_threshold=0.1),
    ClusterWorkload("cluster-proc", _CLUSTER_SPEC, rebuild_threshold=0.05,
                    setups=5),
    AttackWorkload("attack-rmi"),
)}
