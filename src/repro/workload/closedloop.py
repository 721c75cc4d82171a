"""Closed-loop serving: arrival rates, adaptive adversaries, auto-tuning.

PR 3 made the threat model *online*; this module closes the loop.
Three pluggable policy families, all deterministic in their parameters
and the observation stream, so closed-loop cells keep the jobs/executor
parity guarantee of everything else on the sweep engine:

* :class:`ArrivalModel` — ops-per-tick processes (``constant``, a
  Poisson-like deterministic-counting stream, a periodic ``diurnal``
  ramp) that turn a :class:`~repro.workload.trace.TraceSpec` from a
  fixed op count into a rate-driven stream, via
  :func:`~repro.workload.trace.generate_rate_driven_trace` and the
  simulator's ``tick_sizes``.
* :class:`AdaptiveAdversary` — attackers on the simulator's feedback
  port.  Unlike the trace's oblivious poison schedules, these *watch*
  the per-tick :class:`~repro.workload.simulator.TickObservation` and
  decide each next-tick dose: ``escalate`` doubles its dose while the
  observed amplification sits below target and dumps its remaining
  budget near the end (forcing one last poisoned retrain instead of
  stranding keys in the delta buffer, where the sample lookups never
  see them); ``hillclimb`` walks a crafted-cluster placement through
  the key domain following observed p95; ``backoff`` goes quiet for a
  few ticks whenever it sees a retrain (the cycle a rate-limiting
  defense would watch).
* :class:`TrimAutoTuner` — the defense side of the loop: EMAs of
  observed amplification and key churn drive the TRIM keep-fraction
  and the rebuild threshold through the backends' tuner hooks.  The
  keep-fraction rule is monotone by construction — more observed
  poison damage can only tighten (never relax) the screen — which the
  hypothesis suite pins.

Only the Poisson arrivals draw randomness (via ``stable_seed_words``);
every policy keeps all state inside the object, so one cell = fresh
policies = bit-identical replays in any worker of any resumed run.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from ..core.greedy import greedy_poison
from ..core.rmi_attack import poison_rmi
from ..core.threat_model import RMIAttackerCapability
from ..data.keyset import Domain, KeySet
from ..runtime import stable_seed_words
from .simulator import TickObservation, TunerDecision

__all__ = [
    "ArrivalModel", "ConstantArrival", "PoissonArrival",
    "DiurnalArrival", "ARRIVALS", "make_arrival",
    "AdaptiveAdversary", "ObliviousDripAdversary",
    "LatencyEscalationAdversary", "HillClimbAdversary",
    "RetrainBackoffAdversary", "ADVERSARIES", "make_adversary",
    "TrimAutoTuner", "rmi_pool", "pack_around",
]


# ----------------------------------------------------------------------
# Arrival-rate models
# ----------------------------------------------------------------------

class ArrivalModel:
    """Deterministic ops-per-tick process.

    ``ops_for_tick`` is random-access — tick ``t``'s count never
    depends on which ticks were asked before it — so a resumed or
    fanned-out run regenerates identical tick sizes from the model's
    parameters alone.
    """

    name = "abstract"

    def ops_for_tick(self, tick: int) -> int:
        """Operations arriving in tick ``tick`` (non-negative)."""
        raise NotImplementedError

    def tick_sizes(self, n_ticks: int) -> np.ndarray:
        """The first ``n_ticks`` counts, ready for the simulator."""
        if n_ticks < 1:
            raise ValueError(f"need at least one tick: {n_ticks}")
        return np.asarray([self.ops_for_tick(t) for t in range(n_ticks)],
                          dtype=np.int64)

    @staticmethod
    def _validate_rate(rate: float) -> None:
        if not rate > 0:
            raise ValueError(f"arrival rate must be positive: {rate}")

    @staticmethod
    def _validate_tick(tick: int) -> None:
        if tick < 0:
            raise ValueError(f"tick must be non-negative: {tick}")


class ConstantArrival(ArrivalModel):
    """The fixed-ops-per-tick stream every open-loop replay assumes."""

    name = "constant"

    def __init__(self, rate: float):
        self._validate_rate(rate)
        self._rate = int(round(rate))
        if self._rate < 1:
            raise ValueError(f"constant rate rounds to zero: {rate}")

    def ops_for_tick(self, tick: int) -> int:
        self._validate_tick(tick)
        return self._rate


class PoissonArrival(ArrivalModel):
    """Poisson-like deterministic counting.

    Each tick's count is a Poisson draw from a stream seeded by
    ``stable_seed_words(seed, "arrival-poisson", tick)`` — the same
    count in every process, every resumed run, and regardless of
    query order, which is what "deterministic counting" means here.
    Zero-op ticks are legitimate output (the simulator records NaN
    percentiles for them, and finals fall back to the last finite
    tick).
    """

    name = "poisson"

    def __init__(self, rate: float, seed: int = 0):
        self._validate_rate(rate)
        self._rate = float(rate)
        self._seed = int(seed)

    def ops_for_tick(self, tick: int) -> int:
        self._validate_tick(tick)
        rng = np.random.default_rng(stable_seed_words(
            self._seed, "arrival-poisson", tick))
        return int(rng.poisson(self._rate))


class DiurnalArrival(ArrivalModel):
    """A periodic ramp: load swings around the base rate.

    ``rate(t) = base * (1 + amplitude * sin(2π * (t mod period) /
    period))``, rounded.  The phase is computed from ``t mod period``,
    so the series is *exactly* periodic (``ops_for_tick(t + period) ==
    ops_for_tick(t)``, no floating-point drift) and non-negative
    whenever ``amplitude <= 1``.
    """

    name = "diurnal"

    def __init__(self, rate: float, period: int = 24,
                 amplitude: float = 0.5):
        self._validate_rate(rate)
        if period < 2:
            raise ValueError(f"period must span ticks: {period}")
        if not 0.0 <= amplitude <= 1.0:
            raise ValueError(
                f"amplitude must be in [0, 1] to keep rates "
                f"non-negative: {amplitude}")
        self._rate = float(rate)
        self._period = int(period)
        self._amplitude = float(amplitude)

    def ops_for_tick(self, tick: int) -> int:
        self._validate_tick(tick)
        phase = (tick % self._period) / self._period
        swing = 1.0 + self._amplitude * math.sin(2.0 * math.pi * phase)
        return int(round(self._rate * swing))


ARRIVALS: dict[str, type[ArrivalModel]] = {
    cls.name: cls
    for cls in (ConstantArrival, PoissonArrival, DiurnalArrival)
}


def make_arrival(name: str, rate: float, seed: int = 0,
                 **kwargs: Any) -> ArrivalModel:
    """Instantiate a registered arrival model.

    ``seed`` only reaches the models that draw randomness; passing it
    for ``constant``/``diurnal`` is allowed (and ignored) so callers
    can treat the registry uniformly.
    """
    try:
        cls = ARRIVALS[name]
    except KeyError:
        raise ValueError(
            f"unknown arrival model {name!r}; known: {sorted(ARRIVALS)}"
        ) from None
    if cls is PoissonArrival:
        return cls(rate, seed=seed, **kwargs)
    return cls(rate, **kwargs)


# ----------------------------------------------------------------------
# Adaptive adversaries
# ----------------------------------------------------------------------

def rmi_pool(base_keys: np.ndarray, domain: Domain, model_size: int,
             percentage: float) -> np.ndarray:
    """Algorithm 2's pool against an RMI of one model per
    ``model_size`` base keys: what the serving duels release."""
    n_models = max(1, len(base_keys) // model_size)
    return np.asarray(poison_rmi(
        KeySet(base_keys, domain=domain), n_models,
        RMIAttackerCapability(poisoning_percentage=percentage),
    ).poison_keys, dtype=np.int64)


def pack_around(base: np.ndarray, crafted: set[int], centre: int,
                lo: int, hi: int, count: int) -> np.ndarray:
    """Up to ``count`` keys in ``[lo, hi]`` packed outward from
    ``centre``, skipping the sorted ``base`` and ``crafted`` (which
    records each key emitted); in emission order."""
    out: list[int] = []
    offset = 0
    while len(out) < count and offset <= hi - lo + 1:
        for candidate in (centre + offset, centre - offset):
            if len(out) >= count:
                break
            if not lo <= candidate <= hi:
                continue
            if candidate in crafted:
                continue
            slot = int(np.searchsorted(base, candidate))
            if slot < base.size and int(base[slot]) == candidate:
                continue
            out.append(candidate)
            crafted.add(candidate)
        offset += 1
    return np.asarray(out, dtype=np.int64)


class AdaptiveAdversary:
    """An attacker on the simulator's feedback port.

    Subclasses implement ``_next_keys(observation)``; this base class
    owns the budget ledger and the no-op guard for the final tick
    (keys emitted at the last observation have no stream left to land
    in, so a policy never wastes budget there).  Instances are
    single-replay: construct a fresh one per cell.
    """

    name = "abstract"

    def __init__(self, base_keys: np.ndarray, domain: Domain,
                 budget: int):
        if budget < 1:
            raise ValueError(f"adversary needs a budget: {budget}")
        self._base = np.sort(np.asarray(base_keys, dtype=np.int64))
        self._domain = domain
        self._budget = int(budget)
        self._emitted = 0

    @property
    def budget(self) -> int:
        """Total crafted keys this adversary may ever emit."""
        return self._budget

    @property
    def remaining(self) -> int:
        """Budget not yet spent."""
        return self._budget - self._emitted

    def __call__(self, obs: TickObservation) -> "np.ndarray | None":
        if self.remaining <= 0:
            return None
        if obs.tick >= obs.ticks_total - 1:
            return None  # nothing lands after the final tick
        keys = np.asarray(self._next_keys(obs), dtype=np.int64)
        keys = keys[:self.remaining]
        if keys.size == 0:
            return None
        self._emitted += int(keys.size)
        return keys

    def _next_keys(self, obs: TickObservation) -> np.ndarray:
        raise NotImplementedError


class _PooledAdversary(AdaptiveAdversary):
    """Releases a pre-crafted pool; the policy decides *when*.

    By default the pool is Algorithm 1 output against the base keys —
    exactly what the oblivious trace schedules inject.  A caller may
    pass a stronger ``pool`` (e.g. Algorithm 2's architecture-aware
    keys, as the ``closedloop`` grid does for every policy including
    the oblivious baseline), and because every policy of a grid shares
    the same pool, any advantage one shows over another is *pure
    timing* — the information carried by the feedback port, never
    better keys.
    """

    def __init__(self, base_keys: np.ndarray, domain: Domain,
                 budget: int, pool: "np.ndarray | None" = None):
        super().__init__(base_keys, domain, budget)
        if pool is None:
            keyset = KeySet(self._base, domain=domain)
            pool = np.asarray(
                greedy_poison(keyset, budget).poison_keys,
                dtype=np.int64)
        self._pool = np.asarray(pool, dtype=np.int64)[:budget]
        # Crafting may exhaust the key space early; the ledger must
        # agree with what can actually be emitted.
        self._budget = min(self._budget, int(self._pool.size))

    def _take(self, count: int) -> np.ndarray:
        return self._pool[self._emitted:self._emitted + max(count, 0)]


class ObliviousDripAdversary(_PooledAdversary):
    """The oblivious baseline, expressed as an injection policy.

    Releases its pool (the cluster placements ``uniform`` and
    ``concentrated`` are two) at a fixed, even pace — the trace
    schedules' ``drip`` — using nothing from the observation but the
    clock (its own schedule knowledge, not feedback).  Running the
    oblivious arm through the same port as the adaptive ones keeps an
    adaptive-vs-oblivious grid *same-world*: both cells replay the
    identical trace over the identical base keys with the identical
    pool, so any amplification gap is attributable to the policy
    alone.
    """

    name = "oblivious"

    def _next_keys(self, obs: TickObservation) -> np.ndarray:
        chances = max(1, obs.ticks_total - 1)
        dose = -(-self.budget // chances)  # ceil: spend the whole pool
        return self._take(dose)


class LatencyEscalationAdversary(_PooledAdversary):
    """Latency-threshold escalation.

    Starts with a probe dose and doubles it every tick the observed
    amplification (the latency ratio against the clean baseline) still
    sits below ``target_amplification``; once the target is reached it
    falls back to the probe dose, holding the damage with minimal
    spend.  In the last ``endgame_ticks`` injection opportunities it
    dumps the remaining budget: the burst crosses the victim's rebuild
    threshold, so the *final* model trains on the full pool instead of
    stranding the tail in a delta buffer that model-hit lookups never
    pay for.
    """

    name = "escalate"

    def __init__(self, base_keys: np.ndarray, domain: Domain,
                 budget: int, pool: "np.ndarray | None" = None,
                 target_amplification: float = 1.5,
                 initial_dose: int = 1, endgame_ticks: int = 2):
        super().__init__(base_keys, domain, budget, pool=pool)
        if target_amplification <= 1.0:
            raise ValueError(
                f"target amplification must exceed the clean baseline: "
                f"{target_amplification}")
        if initial_dose < 1 or endgame_ticks < 1:
            raise ValueError("initial_dose and endgame_ticks must be "
                             ">= 1")
        self._target = float(target_amplification)
        self._initial_dose = int(initial_dose)
        self._dose = int(initial_dose)
        self._endgame = int(endgame_ticks)

    def _next_keys(self, obs: TickObservation) -> np.ndarray:
        chances_left = obs.ticks_total - 1 - obs.tick
        if chances_left <= self._endgame:
            return self._take(self.remaining)
        if obs.amplification < self._target:
            self._dose = min(self._dose * 2, self.remaining)
        else:
            self._dose = self._initial_dose
        return self._take(self._dose)


class HillClimbAdversary(AdaptiveAdversary):
    """Hill-climbing poison *placement* over observed p95.

    Crafts dense clusters of consecutive unoccupied keys around a
    moving centre — a steep local CDF ramp the victim's models must
    absorb — and walks the centre through the domain: keep direction
    while the observed p95 keeps rising, otherwise turn around and
    halve the step.  All the attacker ever sees is latency; the walk
    is its gradient estimate.  Ends with the same remaining-budget
    dump as the escalation policy.
    """

    name = "hillclimb"

    def __init__(self, base_keys: np.ndarray, domain: Domain,
                 budget: int, dose: int = 8, endgame_ticks: int = 2):
        super().__init__(base_keys, domain, budget)
        if dose < 1 or endgame_ticks < 1:
            raise ValueError("dose and endgame_ticks must be >= 1")
        self._dose = int(dose)
        self._endgame = int(endgame_ticks)
        self._crafted: set[int] = set()
        self._centre = (domain.lo + domain.hi) // 2
        self._step = max(1, domain.size // 8)
        self._min_step = max(1, domain.size // 256)
        self._direction = 1
        self._prev_p95 = float("nan")

    def _next_keys(self, obs: TickObservation) -> np.ndarray:
        if math.isfinite(self._prev_p95) and math.isfinite(obs.p95):
            if obs.p95 <= self._prev_p95:  # placement not paying off
                self._direction = -self._direction
                self._step = max(self._step // 2, self._min_step)
        self._prev_p95 = obs.p95
        self._centre = int(np.clip(
            self._centre + self._direction * self._step,
            self._domain.lo, self._domain.hi))
        chances_left = obs.ticks_total - 1 - obs.tick
        count = (self.remaining if chances_left <= self._endgame
                 else self._dose)
        return pack_around(self._base, self._crafted, self._centre,
                           self._domain.lo, self._domain.hi, count)


class RetrainBackoffAdversary(_PooledAdversary):
    """Constant low-and-slow dosing with back-off on retrain detection.

    Whenever the observation shows a retrain happened (the defense's
    screening moment, and the event a rate limiter would alarm on),
    the adversary halves its dose and goes quiet for
    ``backoff_ticks`` — the stealthy counterpart to the escalation
    policy, trading damage for detection-surface.
    """

    name = "backoff"

    def __init__(self, base_keys: np.ndarray, domain: Domain,
                 budget: int, pool: "np.ndarray | None" = None,
                 dose: int = 8, backoff_ticks: int = 2):
        super().__init__(base_keys, domain, budget, pool=pool)
        if dose < 1 or backoff_ticks < 1:
            raise ValueError("dose and backoff_ticks must be >= 1")
        self._dose = int(dose)
        self._backoff = int(backoff_ticks)
        self._quiet = 0

    def _next_keys(self, obs: TickObservation) -> np.ndarray:
        if obs.retrains_delta > 0:
            self._quiet = self._backoff
            self._dose = max(1, self._dose // 2)
        if self._quiet > 0:
            self._quiet -= 1
            return np.empty(0, dtype=np.int64)
        return self._take(self._dose)


ADVERSARIES: dict[str, type[AdaptiveAdversary]] = {
    cls.name: cls
    for cls in (ObliviousDripAdversary, LatencyEscalationAdversary,
                HillClimbAdversary, RetrainBackoffAdversary)
}


def make_adversary(name: str, base_keys: np.ndarray, domain: Domain,
                   budget: int, *, pool: "np.ndarray | None" = None,
                   **kwargs: Any) -> AdaptiveAdversary:
    """Instantiate a registered injection policy.

    ``"oblivious"`` is in the registry on purpose: running the
    baseline schedule through the same feedback port keeps an
    adaptive-vs-oblivious grid same-world (identical trace, identical
    pool — only the policy differs).  ``pool`` pre-crafted keys reach
    the pooled policies; ``hillclimb`` crafts its own clusters and
    ignores it by design.
    """
    try:
        cls = ADVERSARIES[name]
    except KeyError:
        raise ValueError(
            f"unknown adversary {name!r}; known: "
            f"{sorted(ADVERSARIES)}") from None
    if issubclass(cls, _PooledAdversary):
        kwargs = {"pool": pool, **kwargs}
    return cls(base_keys, domain, budget, **kwargs)


# ----------------------------------------------------------------------
# Defense auto-tuning
# ----------------------------------------------------------------------

class TrimAutoTuner:
    """Closes the defense side of the loop.

    Watches the per-tick observations and turns the two knobs the
    backends expose.  Decisions are pure functions of the observation
    stream — no randomness — so a tuned cell is exactly as
    deterministic as a fixed one.

    **Retrain deferral (the churn knob).**  The per-tick live-key
    delta is the defender's cheapest anomaly signal: organic churn is
    steady, while an adaptive attacker forcing its pool into the next
    model arrives as a burst.  When a tick's delta exceeds
    ``burst_factor`` times the running average, the tuner raises the
    rebuild threshold to ``boost``× base for ``hold_ticks`` ticks
    (decaying back geometrically afterwards) — *don't retrain on a
    burst*.  Deferred, the dumped keys strand in the delta side table,
    which model-resident lookups never pay for, instead of training
    the next model.  This is the counter to dump-style endgames: an
    escalation ramp trips the detector before the final dump lands.

    **TRIM screen (the amplification knob).**  ``keep_fraction =
    clip(1 - keep_gain * max(0, amp_ema - 1 - keep_deadband),
    keep_floor, 1)`` — *monotone*: a pointwise-higher amplification
    history can never yield a looser screen (pinned by the hypothesis
    suite).  At 1.0 the screen is armed but passes everything.  The
    deadband is deliberate: reproducing Section VI, TRIM's
    residual-based selection cannot cheaply separate CDF-poisoning
    keys from their legitimate neighbours, and quarantining
    legitimate keys moves their lookups onto the slow side list — so
    the screen only tightens once the model is damaged enough that
    mis-quarantine is the lesser cost.
    """

    def __init__(self, base_threshold: float = 0.1, alpha: float = 0.5,
                 keep_gain: float = 0.5, keep_deadband: float = 0.5,
                 keep_floor: float = 0.85, burst_factor: float = 2.0,
                 boost: float = 2.5, hold_ticks: int = 6,
                 decay: float = 0.7):
        if not 0.0 < base_threshold <= 1.0:
            raise ValueError(
                f"base threshold must be in (0, 1]: {base_threshold}")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1]: {alpha}")
        if keep_gain < 0.0 or keep_deadband < 0.0:
            raise ValueError("keep gain and deadband must be "
                             "non-negative")
        if not 0.0 < keep_floor <= 1.0:
            raise ValueError(
                f"keep floor must be in (0, 1]: {keep_floor}")
        if burst_factor < 1.0:
            raise ValueError(
                f"burst factor must be >= 1: {burst_factor}")
        if boost < 1.0:
            raise ValueError(f"boost must be >= 1: {boost}")
        if hold_ticks < 1:
            raise ValueError(f"hold_ticks must be >= 1: {hold_ticks}")
        if not 0.0 <= decay < 1.0:
            raise ValueError(f"decay must be in [0, 1): {decay}")
        self._base_threshold = float(base_threshold)
        self._alpha = float(alpha)
        self._keep_gain = float(keep_gain)
        self._keep_deadband = float(keep_deadband)
        self._keep_floor = float(keep_floor)
        self._burst_factor = float(burst_factor)
        self._boosted = min(1.0, float(boost) * base_threshold)
        self._hold_ticks = int(hold_ticks)
        self._decay = float(decay)
        self._amp_ema = 1.0
        self._churn_ema: "float | None" = None
        self._prev_n_keys: "int | None" = None
        self._hold = 0
        self._threshold = float(base_threshold)

    def __call__(self, obs: TickObservation) -> TunerDecision:
        amp = obs.amplification
        if math.isfinite(amp):
            self._amp_ema += self._alpha * (amp - self._amp_ema)
        if self._prev_n_keys is not None:
            churn = float(abs(obs.n_keys - self._prev_n_keys))
            if self._churn_ema is None:
                self._churn_ema = churn
            else:
                if churn > self._burst_factor * max(self._churn_ema,
                                                    1.0):
                    self._hold = self._hold_ticks
                self._churn_ema += self._alpha * (churn
                                                  - self._churn_ema)
        self._prev_n_keys = obs.n_keys
        if self._hold > 0:
            self._hold -= 1
            self._threshold = self._boosted
        else:
            self._threshold = (self._base_threshold
                               + (self._threshold
                                  - self._base_threshold)
                               * self._decay)
        excess = max(0.0, self._amp_ema - 1.0 - self._keep_deadband)
        keep = min(1.0, max(self._keep_floor,
                            1.0 - self._keep_gain * excess))
        return TunerDecision(keep_fraction=keep,
                             rebuild_threshold=self._threshold)
