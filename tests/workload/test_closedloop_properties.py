"""Property tests for the closed-loop policies (ISSUE 4 satellite).

Three contracts:

* **arrival models** — every rate is non-negative, regeneration is
  deterministic (same parameters ⇒ same counts, random-access equals
  sequential, and a fresh interpreter under a different hash salt
  draws the identical stream), and the diurnal ramp is *exactly*
  periodic;
* **tuner monotonicity** — more observed poison damage (a pointwise
  higher amplification history) can never loosen the TRIM screen;
* **adversary ledgers** — no policy ever exceeds its budget, for any
  observation stream.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.keyset import Domain
from repro.workload import (
    ADVERSARIES,
    ARRIVALS,
    TickObservation,
    TrimAutoTuner,
    make_adversary,
    make_arrival,
)

DOMAIN = Domain.of_size(5_000)
BASE = np.arange(10, 5_000, 9, dtype=np.int64)

ARRIVAL_CASES = st.sampled_from(sorted(ARRIVALS))
RATES = st.sampled_from((1.0, 7.5, 40.0, 300.0))
SEEDS = st.integers(0, 2**31 - 1)


def _arrival(name, rate, seed):
    kwargs = {"period": 6, "amplitude": 1.0} if name == "diurnal" \
        else {}
    return make_arrival(name, rate=rate, seed=seed, **kwargs)


def _obs(tick, amplification, n_keys=600):
    return TickObservation(
        tick=tick, ticks_total=50, p50=3.0, p95=5.0, p99=7.0,
        mean_probes=3.0, error_bound=8.0, retrains=0,
        retrains_delta=0, amplification=amplification,
        n_keys=n_keys, injected_total=0)


class TestArrivalProperties:
    @settings(max_examples=40, deadline=None)
    @given(name=ARRIVAL_CASES, rate=RATES, seed=SEEDS)
    def test_rates_are_non_negative(self, name, rate, seed):
        sizes = _arrival(name, rate, seed).tick_sizes(48)
        assert (sizes >= 0).all()

    @settings(max_examples=25, deadline=None)
    @given(name=ARRIVAL_CASES, rate=RATES, seed=SEEDS)
    def test_regeneration_is_deterministic(self, name, rate, seed):
        a = _arrival(name, rate, seed).tick_sizes(30)
        b = _arrival(name, rate, seed).tick_sizes(30)
        assert np.array_equal(a, b)

    @settings(max_examples=25, deadline=None)
    @given(name=ARRIVAL_CASES, rate=RATES, seed=SEEDS,
           tick=st.integers(0, 100))
    def test_counts_are_random_access(self, name, rate, seed, tick):
        """Tick t's count never depends on which ticks came before —
        the property that makes resumed runs regenerate identical
        streams."""
        model = _arrival(name, rate, seed)
        assert model.ops_for_tick(tick) == \
            _arrival(name, rate, seed).tick_sizes(tick + 1)[-1]

    @settings(max_examples=25, deadline=None)
    @given(rate=RATES, period=st.integers(2, 24),
           amplitude=st.floats(0.0, 1.0, allow_nan=False),
           tick=st.integers(0, 200))
    def test_diurnal_ramp_is_exactly_periodic(self, rate, period,
                                              amplitude, tick):
        model = make_arrival("diurnal", rate=rate, period=period,
                             amplitude=amplitude)
        assert model.ops_for_tick(tick) == \
            model.ops_for_tick(tick + period)

    def test_poisson_counts_stable_across_processes(self):
        """A worker with a different hash salt must draw identical
        arrival counts — stable_seed_words, never builtin hash."""
        local = make_arrival("poisson", rate=120,
                             seed=77).tick_sizes(32)
        script = (
            "from repro.workload import make_arrival;"
            "print(make_arrival('poisson', rate=120, seed=77)"
            ".tick_sizes(32).tolist())")
        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        for salt in ("0", "12345"):
            env = dict(os.environ,
                       PYTHONPATH=src, PYTHONHASHSEED=salt)
            out = subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True, check=True)
            assert eval(out.stdout.strip()) == local.tolist(), salt


class TestTunerMonotonicity:
    @settings(max_examples=50, deadline=None)
    @given(
        amps=st.lists(st.floats(1.0, 4.0, allow_nan=False,
                                allow_infinity=False),
                      min_size=1, max_size=20),
        bumps=st.lists(st.floats(0.0, 2.0, allow_nan=False,
                                 allow_infinity=False),
                       min_size=1, max_size=20),
    )
    def test_more_poison_never_loosens_the_screen(self, amps, bumps):
        """The pinned contract: feed two observation streams that
        differ only in amplification, the dominating one pointwise
        higher — its keep-fraction decisions are pointwise <=."""
        n = min(len(amps), len(bumps))
        lo, hi = TrimAutoTuner(), TrimAutoTuner()
        for tick in range(n):
            keep_lo = lo(_obs(tick, amps[tick])).keep_fraction
            keep_hi = hi(_obs(tick,
                              amps[tick] + bumps[tick])).keep_fraction
            assert keep_hi <= keep_lo + 1e-12

    @settings(max_examples=30, deadline=None)
    @given(amps=st.lists(st.floats(1.0, 5.0, allow_nan=False),
                         min_size=1, max_size=15))
    def test_decisions_stay_inside_the_validated_ranges(self, amps):
        tuner = TrimAutoTuner(base_threshold=0.1, boost=2.5)
        for tick, amp in enumerate(amps):
            decision = tuner(_obs(tick, amp, n_keys=600 + 40 * tick))
            assert 0.0 < decision.keep_fraction <= 1.0
            assert 0.0 < decision.rebuild_threshold <= 0.25


class TestAdversaryLedgers:
    @settings(max_examples=20, deadline=None)
    @given(name=st.sampled_from(sorted(ADVERSARIES)),
           budget=st.integers(1, 150),
           amps=st.lists(st.floats(0.5, 3.0, allow_nan=False),
                         min_size=5, max_size=30))
    def test_budget_never_exceeded(self, name, budget, amps):
        adversary = make_adversary(name, BASE, DOMAIN, budget)
        emitted = 0
        for tick, amp in enumerate(amps):
            keys = adversary(_obs(tick, amp))
            if keys is not None:
                emitted += keys.size
        assert emitted <= budget
        assert emitted == adversary.budget - adversary.remaining
