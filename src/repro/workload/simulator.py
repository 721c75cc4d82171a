"""Replay a trace against a live backend and record its vitals.

The simulator consumes a :class:`~repro.workload.trace.Trace` in
order, one tick per call to the backend's ``replay_ops``, which fires
every rebuild at the exact op where pending updates cross the
threshold, so the recorded metrics are invariant under tick size.
:class:`TickDriver` is that loop, shared with the cluster simulator;
the op-by-op reference it is pinned against is
``tests/replay_oracle.py``.

All recorded metrics are **deterministic cost proxies** — probe
counts, not nanoseconds — which is what lets a workload cell produce
bit-identical results at ``jobs=1`` and ``jobs=N`` on either executor.

Per tick (a fixed op-count window, or a rate-driven variable one when
``tick_sizes`` is given) the report records:

* ``p50``/``p95``/``p99`` — probe-count percentiles over the tick's
  read operations (the latency story);
* ``mean_probes`` — the throughput proxy (ops per probe ~ how many
  operations a fixed probe budget serves);
* ``error_bound`` — the backend's worst-case search width (model
  drift under poisoning);
* ``retrains`` — cumulative retrain/rebuild cycles;
* ``amplification`` — lookup cost over a fixed probe sample divided
  by its pre-replay baseline: how much damage the stream (and the
  drip-fed poison in it) has done so far;
* ``n_keys`` — live key count.

Closed-loop mode
----------------
The replay becomes a control loop when any of ``tick_sizes``,
``adversary``, or ``tuner`` is supplied.  At every tick boundary the
simulator publishes a :class:`TickObservation` (the per-tick series
row, percentiles backfilled to the last finite value so a read-free
tick never feeds NaN into a policy) through two feedback ports:

* ``adversary(observation)`` may return crafted keys; they are
  injected at the start of the *next* tick (an attacker reacting to
  observed latency) — as synthetic poison ops ahead of the tick's
  stream, so retrain timing stays op-exact;
* ``tuner(observation)`` may return a :class:`TunerDecision`; the
  simulator applies it to the backend's ``set_trim_keep_fraction`` /
  ``set_rebuild_threshold`` hooks and logs the values now in force.

Closed-loop replays carry three extra series — ``injected`` (crafted
keys landed per tick), ``keep_fraction`` and ``rebuild_threshold``
(defense settings entering the next tick; ``keep_fraction`` is NaN
while TRIM is off) — so fixed and tuned cells of one grid share one
artifact shape.  Both ports are plain callables of the observation
alone; as long as they are deterministic, the whole loop is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from ..io import json_float
from ..observe.metrics import MetricsRegistry
from ..observe.metrics import active as observe_active
from ..runtime import stable_seed_words
from .backends import ServingBackend
from .trace import OP_POISON, OP_QUERY, OP_RANGE, Trace

__all__ = ["ServingReport", "ServingSimulator", "TickDriver",
           "TickObservation", "TunerDecision", "last_finite",
           "percentiles"]

_SERIES = ("p50", "p95", "p99", "mean_probes", "error_bound",
           "retrains", "amplification", "n_keys")
_LOOP_SERIES = ("injected", "keep_fraction", "rebuild_threshold")


def last_finite(values: Sequence[float], default: float = 0.0) -> float:
    """The most recent finite value of a series, else ``default``.

    The summary-field contract of a replay: a trace that *ends* on a
    read-free (churn-only) tick records NaN percentiles for that tick,
    and a final taken naively from the tail would leak the NaN into
    the JSON payload and into any policy watching the feedback port.
    Falling back to the last finite tick keeps finals — and closed-loop
    observations — well-defined whenever any earlier tick measured.

    Scans the tail by index — no copy of the series — because the
    feedback ports call this four times per tick over ever-growing
    series (copying made the observation step O(ticks²) per replay).
    """
    for i in range(len(values) - 1, -1, -1):
        value = values[i]
        if math.isfinite(value):
            return float(value)
    return default


@dataclass(frozen=True)
class TickObservation:
    """What the feedback ports see at one tick boundary.

    Mirrors the per-tick series row just recorded, with percentiles
    backfilled via :func:`last_finite` (NaN only before the first read
    of the whole replay).  ``retrains_delta`` is the cycle count since
    the previous tick — the signal a retrain-detecting adversary keys
    on; ``injected_total`` counts the adversary's own keys landed so
    far, so a policy can pace a budget without private bookkeeping.
    """

    tick: int
    ticks_total: int
    p50: float
    p95: float
    p99: float
    mean_probes: float
    error_bound: float
    retrains: int
    retrains_delta: int
    amplification: float
    n_keys: int
    injected_total: int


@dataclass(frozen=True)
class TunerDecision:
    """A defense tuner's knob settings for the ticks ahead.

    ``keep_fraction`` is the TRIM screen (``None`` disarms it);
    ``rebuild_threshold`` retargets the compaction trigger.  Values
    pass through the backend's validating setters, so an out-of-range
    decision fails loudly rather than silently clamping.
    """

    keep_fraction: float | None
    rebuild_threshold: float


#: Feedback-port signatures (policy objects are plain callables).
AdversaryPort = Callable[[TickObservation], "np.ndarray | None"]
TunerPort = Callable[[TickObservation], "TunerDecision | None"]


@dataclass(frozen=True, eq=False)  # array fields: identity equality
class ServingReport:
    """Everything one replay measured.

    ``series`` maps each name in ``p50 p95 p99 mean_probes error_bound
    retrains amplification n_keys`` — plus ``injected keep_fraction
    rebuild_threshold`` for closed-loop replays — to a per-tick float64
    array (a tick with no read op carries NaN percentiles; the summary
    fields fall back to the last finite tick instead of propagating
    it).  ``tick_ops`` is 0 for rate-driven replays, whose tick widths
    vary.
    """

    backend: str
    spec_digest: str
    n_ops: int
    tick_ops: int
    series: dict[str, np.ndarray]
    p50: float
    p95: float
    p99: float
    mean_probes: float
    total_probes: int
    found_fraction: float
    retrains: int
    final_amplification: float
    max_error_bound: float
    final_n_keys: int
    ops_by_kind: dict[str, int]
    injected_poison: int
    #: Adversary keys returned after the final tick: no stream was
    #: left to land them, so the budget ledger reconciles as
    #: spent == injected_poison + discarded_poison.
    discarded_poison: int

    @property
    def n_ticks(self) -> int:
        return int(self.series["p50"].size)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe, deterministic summary (no wall-clock)."""
        return {
            "backend": self.backend,
            "spec_digest": self.spec_digest,
            "n_ops": self.n_ops,
            "tick_ops": self.tick_ops,
            "n_ticks": self.n_ticks,
            "p50": json_float(self.p50),
            "p95": json_float(self.p95),
            "p99": json_float(self.p99),
            "mean_probes": json_float(self.mean_probes),
            "total_probes": self.total_probes,
            "found_fraction": json_float(self.found_fraction),
            "retrains": self.retrains,
            "final_amplification": json_float(self.final_amplification),
            "max_error_bound": json_float(self.max_error_bound),
            "final_n_keys": self.final_n_keys,
            "ops_by_kind": dict(self.ops_by_kind),
            "injected_poison": self.injected_poison,
            "discarded_poison": self.discarded_poison,
        }


def percentiles(values: np.ndarray, q: Sequence[float]) -> np.ndarray:
    """``np.percentile(values, q)`` bit for bit, at under half its cost
    on a tick's few hundred reads (and a tenth of it on a replay's
    tens of thousands).

    The default (linear) method: one sort, then numpy's two-sided
    interpolation between the two order statistics around each
    ``(n - 1) * q / 100`` — up from the lower one when the fraction is
    below one half, down from the upper one otherwise.  ``values`` is
    non-empty.
    """
    ordered = np.sort(values)
    last = ordered.size - 1
    virtual = last * np.true_divide(q, 100)
    below = np.minimum(virtual.astype(np.intp), last)
    gamma = virtual - below
    lower = ordered[below]
    upper = ordered[np.minimum(below + 1, last)]
    diff = upper - lower
    out = lower + diff * gamma
    np.subtract(upper, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out


class TickDriver:
    """The tick loop both simulators run.

    Per tick: keys the previous tick's ``feedback`` queued land first,
    as an ``OP_POISON`` prefix; the slice goes to the target in one
    ``replay_ops`` call, looked up on the instance every tick (so a
    caller may shadow it); the driver records the row both reports
    share (probe percentiles, error bound, retrains, live keys, keys
    injected) and ``close_tick`` the simulator's own channels; the
    ``<prefix>.ticks``/``.ops`` counters, the ``<prefix>.tick`` trace
    event and ``feedback`` follow.  Keys still queued when the trace
    ends are discarded.
    """

    def __init__(self, target: Any, trace: Trace, tick_ops: int,
                 tick_sizes: "np.ndarray | None",
                 series: Sequence[str], prefix: str,
                 metrics: "MetricsRegistry | None"):
        self._target = target
        self._trace = trace
        if tick_sizes is not None:
            self.bounds = np.cumsum(tick_sizes)
        else:
            n_ticks = -(-trace.n_ops // tick_ops)  # ceil
            self.bounds = np.minimum(
                (np.arange(n_ticks, dtype=np.int64) + 1) * tick_ops,
                trace.n_ops)
        self.series: dict[str, list[float]] = {name: []
                                               for name in series}
        self._prefix = prefix
        self._metrics = metrics
        self._pending = np.empty(0, dtype=np.int64)
        self._injected_total = 0
        self.total_probes = 0
        self._probes: list[np.ndarray] = []
        self._found = 0
        self._queries = 0
        self._observed_retrains = 0

    def run(self, close_tick: "Callable[..., dict[str, int]]",
            feedback: "Callable[[int], np.ndarray | None]",
            open_tick: "Callable[[int], None] | None" = None) -> None:
        """Replay every tick.  ``close_tick(tick, read_keys, probes)``
        returns the extra fields of the tick's trace event;
        ``feedback(tick)`` returns crafted keys or ``None``;
        ``open_tick(tick)`` runs before the tick's replay."""
        trace, target, metrics = self._trace, self._target, self._metrics
        series = self.series
        start = 0
        for tick, end in enumerate(self.bounds):
            if open_tick is not None:
                open_tick(tick)
            kinds = trace.kinds[start:end]
            keys = trace.keys[start:end]
            aux = trace.aux[start:end]
            injected = int(self._pending.size)
            if injected:
                kinds = np.concatenate([
                    np.full(injected, OP_POISON, dtype=kinds.dtype),
                    kinds])
                keys = np.concatenate([self._pending, keys])
                aux = np.concatenate([
                    np.zeros(injected, dtype=np.int64), aux])
            self._injected_total += injected
            self._pending = np.empty(0, dtype=np.int64)
            found, probes = target.replay_ops(kinds, keys, aux)
            reads = (kinds == OP_QUERY) | (kinds == OP_RANGE)
            is_query = kinds[reads] == OP_QUERY
            self._found += int(found[is_query].sum())
            self._queries += int(is_query.sum())
            self._probes.append(probes)
            self.total_probes += int(probes.sum())
            if probes.size:
                p50, p95, p99 = percentiles(probes, (50, 95, 99))
                mean = float(probes.mean())
            else:
                p50 = p95 = p99 = mean = float("nan")
            series["p50"].append(float(p50))
            series["p95"].append(float(p95))
            series["p99"].append(float(p99))
            series["mean_probes"].append(mean)
            series["error_bound"].append(target.error_bound())
            series["retrains"].append(float(target.retrain_count))
            series["n_keys"].append(float(target.n_keys))
            if "injected" in series:
                series["injected"].append(float(injected))
            fields = close_tick(tick, keys[reads], probes)
            if metrics is not None:
                ops = int(end - start)
                metrics.inc(f"{self._prefix}.ticks")
                metrics.inc(f"{self._prefix}.ops", ops + injected)
                metrics.trace(f"{self._prefix}.tick", tick=tick,
                              ops=ops, injected=injected, **fields)
            crafted = feedback(tick)
            if crafted is not None:
                self._pending = np.asarray(crafted, dtype=np.int64)
            start = end

    def observed(self, tick: int) -> dict[str, Any]:
        """The observation fields both simulators' ports share.

        Percentiles are backfilled via :func:`last_finite` (NaN only
        before the first read of the replay); ``retrains_delta``
        counts cycles since the previous observation.
        """
        series = self.series
        retrains = int(series["retrains"][-1])
        delta = retrains - self._observed_retrains
        self._observed_retrains = retrains
        return dict(
            tick=tick, ticks_total=int(self.bounds.size),
            p95=last_finite(series["p95"], float("nan")),
            mean_probes=last_finite(series["mean_probes"],
                                    float("nan")),
            retrains=retrains, retrains_delta=delta,
            n_keys=int(series["n_keys"][-1]),
            injected_total=self._injected_total)

    def finals(self) -> dict[str, Any]:
        """The whole-replay report fields both simulators share."""
        probes = (np.concatenate(self._probes) if self._probes
                  else np.empty(0, dtype=np.int64))
        if probes.size:
            p50, p95, p99 = (float(v) for v in
                             percentiles(probes, (50, 95, 99)))
            mean = float(probes.mean())
        else:
            # A read-free replay: fall back per the last-finite
            # contract (0.0 — no tick ever measured a read).
            p50, p95, p99, mean = (
                last_finite(self.series[name])
                for name in ("p50", "p95", "p99", "mean_probes"))
        return dict(
            series={name: np.asarray(values, dtype=np.float64)
                    for name, values in self.series.items()},
            p50=p50, p95=p95, p99=p99, mean_probes=mean,
            found_fraction=(self._found / self._queries
                            if self._queries else 0.0),
            injected_poison=self._injected_total,
            discarded_poison=int(self._pending.size))


class ServingSimulator:
    """Drives one backend through one trace.

    Parameters
    ----------
    backend:
        A freshly built :class:`ServingBackend` over the trace's base
        keys (the simulator asserts nothing about prior state — a
        pre-warmed backend is a legitimate scenario).
    trace:
        The operation stream to replay.
    tick_ops:
        Operations per metrics tick (fixed-width ticks).
    probe_sample_size:
        Size of the fixed key sample used for the amplification
        series; drawn deterministically from the trace's base keys
        and never counted into the op metrics.
    tick_sizes:
        Optional per-tick operation counts (a rate-driven stream, as
        produced by an :class:`~repro.workload.closedloop.ArrivalModel`).
        Must be non-negative and sum to the trace's op count; zero-op
        ticks are legal and record NaN percentiles.  Overrides
        ``tick_ops``.
    adversary:
        Optional feedback port: called with a :class:`TickObservation`
        after every tick; returned keys are injected at the start of
        the next tick.  Keys returned after the final tick have no
        stream left to land in; they are discarded and counted in the
        report's ``discarded_poison`` (so an adversary's budget ledger
        always reconciles: spent == injected + discarded).
    tuner:
        Optional defense port: called after every tick (after the
        adversary observes, before its next keys land); a returned
        :class:`TunerDecision` is applied through the backend's tuner
        hooks.
    """

    def __init__(self, backend: ServingBackend, trace: Trace,
                 tick_ops: int = 200, probe_sample_size: int = 64,
                 tick_sizes: "Sequence[int] | None" = None,
                 adversary: "AdversaryPort | None" = None,
                 tuner: "TunerPort | None" = None,
                 metrics: "MetricsRegistry | None" = None):
        if tick_ops < 1:
            raise ValueError(f"tick_ops must be >= 1: {tick_ops}")
        if probe_sample_size < 1:
            raise ValueError(
                "probe_sample_size must be >= 1 (the amplification "
                f"baseline is its mean probe cost): {probe_sample_size}")
        self._backend = backend
        self._trace = trace
        self._tick_ops = tick_ops
        self._tick_sizes = None
        if tick_sizes is not None:
            sizes = np.asarray(tick_sizes, dtype=np.int64)
            if sizes.size == 0 or (sizes < 0).any():
                raise ValueError(
                    "tick_sizes must be a non-empty sequence of "
                    f"non-negative counts: {tick_sizes!r}")
            if int(sizes.sum()) != trace.n_ops:
                raise ValueError(
                    f"tick_sizes sum to {int(sizes.sum())} but the "
                    f"trace holds {trace.n_ops} ops")
            self._tick_sizes = sizes
        self._adversary = adversary
        self._tuner = tuner
        # Opt-in instrumentation: an explicit registry wins, else the
        # process-installed one (``repro.observe.install``), else off
        # — in which case every hook below is one ``is None`` check.
        self._metrics = (metrics if metrics is not None
                         else observe_active())
        self._closed_loop = (tick_sizes is not None
                             or adversary is not None
                             or tuner is not None)
        rng = np.random.default_rng(stable_seed_words(
            trace.spec.seed, "probe-sample", trace.spec.digest))
        size = min(probe_sample_size, trace.base_keys.size)
        if size < 1:
            # probes.mean() over an empty sample is NaN, and a NaN
            # baseline silently poisons the whole amplification
            # series — fail here instead.
            raise ValueError(
                "cannot draw an amplification probe sample: the trace "
                "has no base keys")
        self._probe_sample = rng.choice(trace.base_keys, size=size,
                                        replace=False)

    # ------------------------------------------------------------------
    def _sample_cost(self) -> float:
        """Mean probes over the fixed sample (measurement only)."""
        _, probes = self._backend.lookup_batch(self._probe_sample)
        return float(probes.mean())

    def run(self) -> ServingReport:
        """Replay the whole trace; returns the metrics report."""
        trace, backend = self._trace, self._backend
        baseline = self._sample_cost()
        driver = TickDriver(
            backend, trace, self._tick_ops, self._tick_sizes,
            _SERIES + (_LOOP_SERIES if self._closed_loop else ()),
            "serving", self._metrics)
        series = driver.series

        def close_tick(tick: int, read_keys: np.ndarray,
                       probes: np.ndarray) -> dict[str, int]:
            series["amplification"].append(
                self._sample_cost() / baseline)
            return {"retrains": int(series["retrains"][-1]),
                    "n_keys": int(series["n_keys"][-1])}

        def feedback(tick: int) -> "np.ndarray | None":
            crafted = None
            if self._adversary is not None or self._tuner is not None:
                obs = TickObservation(
                    **driver.observed(tick),
                    p50=last_finite(series["p50"], float("nan")),
                    p99=last_finite(series["p99"], float("nan")),
                    error_bound=series["error_bound"][-1],
                    amplification=series["amplification"][-1])
                if self._tuner is not None:
                    decision = self._tuner(obs)
                    if decision is not None:
                        # Model-free backends have no training set to
                        # screen; their TRIM knob is inert so one grid
                        # can attach the same tuner to every backend.
                        if backend.supports_trim:
                            backend.set_trim_keep_fraction(
                                decision.keep_fraction)
                        backend.set_rebuild_threshold(
                            decision.rebuild_threshold)
                if self._adversary is not None:
                    crafted = self._adversary(obs)
            if self._closed_loop:
                keep = backend.trim_keep_fraction
                series["keep_fraction"].append(
                    float("nan") if keep is None else float(keep))
                series["rebuild_threshold"].append(
                    float(backend.rebuild_threshold))
            return crafted

        driver.run(close_tick, feedback)
        error_bounds = np.asarray(series["error_bound"])
        return ServingReport(
            backend=backend.name,
            spec_digest=trace.spec.digest,
            n_ops=trace.n_ops,
            tick_ops=(0 if self._tick_sizes is not None
                      else self._tick_ops),
            **driver.finals(),
            total_probes=driver.total_probes,
            retrains=int(backend.retrain_count),
            final_amplification=last_finite(series["amplification"],
                                            1.0),
            max_error_bound=(float(error_bounds.max())
                             if error_bounds.size else 0.0),
            final_n_keys=int(backend.n_keys),
            ops_by_kind=trace.counts())
