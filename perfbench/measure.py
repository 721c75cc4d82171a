"""The measurement loop: set-ups, timed passes, checks and metrics.

An untraced run sets the workload up ``setups`` times (``setup_s`` is
the median), then repeats whole passes until ``seconds`` of timed
work, to the nearest pass boundary, and — on the ticked workloads —
``min_ticks`` ticks are done.

Before and after every set-up and pass the run also times the
reference kernel (:mod:`perfbench.reference`); on the workloads it
tracks, each set-up's and pass's times are scaled by ``REFERENCE_MS``
over the mean of the two kernel times around it, so the end-to-end
metrics read as on a machine of fixed speed.  The unscaled values are
kept too.

A traced run sets up under tracing, then spends half its seconds on
untraced passes and half on traced ones; the per-layer numbers (raw
wall seconds) come from the traced phases only, and the ratio of the
two pass walls is the tracing overhead.
"""

from __future__ import annotations

import resource
import statistics
import time
import traceback
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from .reference import REFERENCE_MS, ReferenceKernel
from .spans import END, NAME, PHASE, START, Recorder, patched, self_times
from .spans import split as self_split
from .workloads import DEFAULT_SEED, Pass, Session, digest

__all__ = ["Outcome", "measure", "UNATTRIBUTED"]

#: Name of the traced wall time no span covers (loop glue).
UNATTRIBUTED = "(unattributed: benchmark loop glue)"


@dataclass
class SetUp:
    """One timed set-up, the poison keys Algorithm 1 crafted in it and
    the seconds that took, and the machine-speed scale around it."""

    seconds: float
    keys: int
    crafting_s: float
    scale: float


@dataclass
class Outcome:
    """Everything one run measured and checked."""

    workload: str
    seed: int
    traced: bool
    inputs: dict[str, str]
    outputs: str
    setups: list[SetUp]
    passes: list[Pass]
    attempted: int
    failed: int
    failures: list[str]
    metrics: dict[str, float] = field(default_factory=dict)
    raw: dict[str, float] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    reference_ms: list[float] = field(default_factory=list)
    split: dict[str, float] = field(default_factory=dict)
    traced_wall: float = 0.0
    spans: list[list[Any]] = field(default_factory=list)


@contextmanager
def _tracing(workload: Any, session: Session,
             recorder: Recorder) -> Iterator[None]:
    """Span wrappers and counters installed for one traced phase."""
    with ExitStack() as stack:
        for owner, attr, name, new_unit in workload.span_targets():
            stack.enter_context(patched(
                owner, attr,
                lambda fn, name=name, new_unit=new_unit:
                    recorder.wrap(name, fn, new_unit)))
        for owner, attr, make in workload.count_targets(recorder):
            stack.enter_context(patched(owner, attr, make))
        session.recorder = recorder
        try:
            yield
        finally:
            session.recorder = None


def _scale(before_ms: float, after_ms: float) -> float:
    """Factor taking times measured between two kernel samples to the
    reference machine."""
    return 2 * REFERENCE_MS / (before_ms + after_ms)


def _set_up(workload: Any, inputs: Any, session: Session,
            failures: list[str],
            sample_speed: Callable[[], float]) -> tuple[list[SetUp], Any]:
    """``workload.setups`` timed set-ups; keeps the last one's state."""
    session.set_phase("setup")
    setups: list[SetUp] = []
    generated = set()
    state = None
    before = sample_speed()
    for _ in range(workload.setups):
        if state is not None:
            workload.close(state)
        first_call = len(session.greedy_calls)
        started = time.perf_counter()
        state = workload.setup(inputs, session)
        seconds = time.perf_counter() - started
        crafted = session.greedy_calls[first_call:]
        generated.add(workload.trace_digest(state))
        after = sample_speed()
        setups.append(SetUp(seconds=seconds,
                            keys=sum(c[4] for c in crafted),
                            crafting_s=sum(c[2] for c in crafted),
                            scale=_scale(before, after)))
        before = after
    if len(generated) > 1:
        failures.append("set-ups generated different inputs from one "
                        f"seed: {sorted(generated)}")
    return setups, state


def _run_passes(workload: Any, state: Any, session: Session,
                seconds: float, min_ticks: int, out: list[Pass],
                sample_speed: Callable[[], float]) -> Any:
    """Whole passes until ``seconds`` of timed work (to the nearest
    pass boundary) and ``min_ticks`` ticks; returns the spent state."""
    session.set_phase("pass")
    before = sample_speed()
    spent = 0.0
    ticks = passes = 0
    while True:
        result = workload.run_pass(state, session)
        after = sample_speed()
        result.scale = _scale(before, after)
        before = after
        out.append(result)
        spent += result.wall
        ticks += len(result.ticks_ms)
        passes += 1
        # Stop when less than half a mean pass of the budget is left.
        if ticks >= min_ticks and spent + spent / passes / 2 >= seconds:
            return state
        state = workload.renew(state, session)


def _check_digests(outcome: Outcome,
                   recorded: dict[str, Any]) -> None:
    """Every pass must reproduce the first; at the default seed the
    inputs and outputs must also match the recorded digests."""
    first = outcome.outputs
    for result in outcome.passes:
        if result.digest != first and not result.failed:
            result.failed = result.ops
            outcome.failures.append(
                f"pass output {result.digest} != first pass {first}")
    entry = recorded.get(outcome.workload)
    if outcome.seed != DEFAULT_SEED or entry is None:
        return
    inputs = digest(outcome.inputs)
    if (entry["inputs"], entry["outputs"]) != (inputs, first):
        outcome.failures.append(
            f"seed {DEFAULT_SEED} digests inputs={inputs} "
            f"outputs={first} != recorded inputs={entry['inputs']} "
            f"outputs={entry['outputs']}")
        for result in outcome.passes:
            result.failed = result.ops


def measure(workload: Any, seed: int, seconds: float, traced: bool,
            recorded: dict[str, Any] | None = None) -> Outcome:
    """One run of ``workload``; never raises for a failing program —
    an exception or a failed check is reported in the outcome."""
    session = Session()
    inputs = workload.inputs(seed)
    outcome = Outcome(workload=workload.name, seed=seed, traced=traced,
                      inputs=workload.input_digests(inputs), outputs="",
                      setups=[], passes=[], attempted=0,
                      failed=0, failures=[])
    recorder = Recorder()
    kernel = ReferenceKernel()

    def sample_speed() -> float:
        with session.span("bench.reference"):
            outcome.reference_ms.append(kernel())
        return outcome.reference_ms[-1]

    untraced: list[Pass] = []
    traced_passes: list[Pass] = []
    state = None
    try:
        with ExitStack() as probes:
            for owner, attr, make in workload.probe_targets(session):
                probes.enter_context(patched(owner, attr, make))
            started = time.perf_counter()
            if traced:
                with _tracing(workload, session, recorder):
                    outcome.setups, state = _set_up(
                        workload, inputs, session, outcome.failures,
                        sample_speed)
                outcome.traced_wall += time.perf_counter() - started
            else:
                outcome.setups, state = _set_up(
                    workload, inputs, session, outcome.failures,
                    sample_speed)
            workload.prepare(state, session)
            budget = seconds / 2 if traced else seconds
            state = _run_passes(workload, state, session, budget,
                                0 if traced else workload.min_ticks,
                                untraced, sample_speed)
            if traced:
                state = workload.renew(state, session)
                started = time.perf_counter()
                with _tracing(workload, session, recorder):
                    state = _run_passes(workload, state, session,
                                        budget, 0, traced_passes,
                                        sample_speed)
                outcome.traced_wall += time.perf_counter() - started
    except Exception:  # the program failed: report it, don't crash
        outcome.failures.append(traceback.format_exc())
    finally:
        if state is not None:
            workload.close(state)
    outcome.passes = untraced + traced_passes
    outcome.outputs = outcome.passes[0].digest if outcome.passes else ""
    _check_digests(outcome, recorded or {})
    outcome.attempted = max(sum(p.ops for p in outcome.passes), 1)
    outcome.failed = sum(p.failed for p in outcome.passes)
    if outcome.failures and not outcome.failed:
        # A run that raised counts all of its ops as failed.
        outcome.failed = outcome.attempted
    if traced and untraced and traced_passes:
        _layer_metrics(outcome, session, recorder, untraced, traced_passes)
    elif not traced and untraced:
        _end_to_end(outcome, untraced, workload.machine_scaled)
    return outcome


def _end_to_end(outcome: Outcome, passes: list[Pass],
                machine_scaled: tuple[str, ...]) -> None:
    rss_mib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
               + max(p.worker_peak_mib for p in passes))

    def summary(scaled: bool) -> dict[str, float]:
        """The metrics with every set-up's and pass's times scaled to
        the reference machine (rates inversely), or unscaled."""
        def at(item: Any) -> float:
            return item.scale if scaled else 1.0

        wall = sum(p.wall * at(p) for p in passes)
        ticks = np.concatenate([np.asarray(p.ticks_ms) * at(p)
                                for p in passes])
        keys = sum(p.keys for p in passes)
        p50, p95 = np.percentile(ticks, (50, 95))
        return {
            "setup_s": statistics.median(u.seconds * at(u)
                                         for u in outcome.setups),
            "ops_per_s": sum(p.work for p in passes) / wall,
            "tick_ms_p50": float(p50),
            "tick_ms_p95": float(p95),
            # The ticked workloads craft their poison once per set-up.
            "attack_keys_per_s": (keys / wall if keys else statistics.median(
                u.keys / (u.crafting_s * at(u))
                for u in outcome.setups if u.keys)),
            "peak_rss_mib": rss_mib,
        }

    outcome.raw = summary(scaled=False)
    scaled = summary(scaled=True)
    outcome.metrics = {name: scaled[name] if name in machine_scaled
                       else value for name, value in outcome.raw.items()}
    ticks = sum(len(p.ticks_ms) for p in passes)
    outcome.samples = {
        "setup_s": len(outcome.setups),
        "ops_per_s": sum(p.work for p in passes),
        "tick_ms_p50": ticks,
        "tick_ms_p95": ticks,
        "attack_keys_per_s": (sum(p.keys for p in passes)
                              or sum(u.keys for u in outcome.setups)),
        "peak_rss_mib": 1,
    }


def _layer_metrics(outcome: Outcome, session: Session,
                   recorder: Recorder, untraced: list[Pass],
                   traced: list[Pass]) -> None:
    spans = recorder.spans
    own = self_times(spans)
    per_phase = {"setup": max(len(outcome.setups), 1),
                 "pass": max(len(traced), 1)}
    # (name, phase) -> [total seconds, self seconds, calls]
    table: defaultdict[tuple[str, str], list[float]] = defaultdict(
        lambda: [0.0, 0.0, 0])
    for span, self_s in zip(spans, own):
        row = table[(span[NAME], span[PHASE])]
        row[0] += span[END] - span[START]
        row[1] += self_s
        row[2] += 1

    def per(name: str, column: int) -> float:
        """Per set-up plus per traced pass, wherever the layer ran."""
        return float(sum(table[(name, phase)][column] / n
                         for phase, n in per_phase.items()
                         if (name, phase) in table))

    def setup_median(name: str) -> float:
        durations = [span[END] - span[START] for span in spans
                     if span[NAME] == name and span[PHASE] == "setup"]
        return statistics.median(durations) if durations else 0.0

    calls = [c for c in session.greedy_calls if c[1]]
    steps = sum(c[3] / per_phase[c[0]] for c in calls)
    setup_calls = sum(1 for c in calls if c[0] == "setup")
    pass_calls = len(calls) - setup_calls
    models = sum(p.models for p in traced)
    exchanges = sum(p.exchanges for p in traced)
    useful = setup_calls + (models + 2 * exchanges if models
                            else pass_calls)
    reads = sum(p.reads for p in traced)
    mutations = recorder.counts["columnar.mutations"]
    worker_cpu = sum(p.worker_cpu_s for p in traced) / len(traced)
    untraced_wall = statistics.mean(p.wall for p in untraced)
    traced_wall = statistics.mean(p.wall for p in traced)
    attributed = float(sum(own))
    outcome.metrics = {
        "workload.simulator.self_s": per("workload.simulator", 1),
        "workload.backends.replay_ops.self_s":
            per("workload.backends.replay_ops", 1),
        "workload.backends.replay_ops.calls":
            per("workload.backends.replay_ops", 2),
        "workload.backends.rebuild.s": per("workload.backends.rebuild", 0),
        "workload.backends.rebuild.calls":
            per("workload.backends.rebuild", 2),
        "workload.backends.lookup_batch.s":
            per("workload.backends.lookup_batch", 0),
        "workload.backends.lookup_batch.calls":
            per("workload.backends.lookup_batch", 2),
        "workload.backends.error_bound.s":
            per("workload.backends.error_bound", 0),
        "workload.columnar.rewrite_bytes_per_mutation":
            (recorder.counts["columnar.rewrite_bytes"] / mutations
             if mutations else 0.0),
        "index.probes_per_read":
            (sum(p.probes for p in traced) / reads if reads else 0.0),
        "cluster.simulator.self_s": per("cluster.simulator", 1),
        "cluster.router.replay_ops.self_s":
            per("cluster.router.replay_ops", 1),
        "cluster.router.lookup_batch.s":
            per("cluster.router.lookup_batch", 0),
        "cluster.router.lookup_batch.calls":
            per("cluster.router.lookup_batch", 2),
        "cluster.replication.replay_ops.self_s":
            per("cluster.replication.replay_ops", 1),
        "cluster.replication.detect.s":
            per("cluster.replication.detect", 0),
        "cluster.transport.call.s": per("cluster.transport.call", 0),
        "cluster.transport.call.calls": per("cluster.transport.call", 2),
        "cluster.transport.worker_cpu_s": worker_cpu,
        "cluster.transport.wait_s":
            per("cluster.transport.call", 0) - worker_cpu,
        "cluster.transport.degraded":
            float(sum(p.degraded for p in outcome.passes)),
        "experiments.fig7.self_s": (per("experiments.fig7", 1)
                                    + per("experiments.fig7.cell", 1)),
        "core.rmi_attack.self_s": per("core.rmi_attack", 1),
        "core.rmi_attack.exchanges": exchanges / len(traced),
        "core.greedy.greedy_poison.s": per("core.greedy.greedy_poison", 0),
        "core.greedy.greedy_poison.calls":
            per("core.greedy.greedy_poison", 2),
        "core.greedy.steps": float(steps),
        "core.greedy.useful_frac": useful / len(calls) if calls else 0.0,
        "core.cdf_regression.fit.s": per("core.cdf_regression.fit", 0),
        "core.cdf_regression.fit.calls": per("core.cdf_regression.fit", 2),
        "setup.trace_s": setup_median("setup.trace"),
        "setup.build_s": setup_median("setup.build"),
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        "trace.unattributed_frac":
            (outcome.traced_wall - attributed) / outcome.traced_wall,
    }
    outcome.samples = {"set-ups": len(outcome.setups),
                       "traced passes": len(traced),
                       "untraced passes": len(untraced),
                       "spans": len(spans)}
    outcome.split = self_split(spans)
    outcome.split[UNATTRIBUTED] = outcome.traced_wall - attributed
    outcome.spans = spans
