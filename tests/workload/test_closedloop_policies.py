"""Unit tests for the closed-loop policies and the feedback ports."""

import math

import numpy as np
import pytest

from repro.data.keyset import Domain
from repro.data.synthetic import uniform_keyset
from repro.workload import (
    ADVERSARIES,
    ARRIVALS,
    ServingSimulator,
    TickObservation,
    TraceSpec,
    TrimAutoTuner,
    TunerDecision,
    generate_rate_driven_trace,
    make_adversary,
    make_arrival,
    make_backend,
)

DOMAIN = Domain.of_size(8_000)


@pytest.fixture(scope="module")
def base_keys():
    rng = np.random.default_rng(91)
    return uniform_keyset(600, DOMAIN, rng).keys


def obs(tick=0, ticks_total=10, p95=5.0, amplification=1.0,
        retrains=0, retrains_delta=0, n_keys=600, injected_total=0):
    return TickObservation(
        tick=tick, ticks_total=ticks_total, p50=p95 - 1.0, p95=p95,
        p99=p95 + 1.0, mean_probes=p95 - 2.0, error_bound=8.0,
        retrains=retrains, retrains_delta=retrains_delta,
        amplification=amplification, n_keys=n_keys,
        injected_total=injected_total)


class TestArrivalModels:
    def test_registry_names_match_classes(self):
        for name, cls in ARRIVALS.items():
            assert cls.name == name

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown arrival"):
            make_arrival("bursty", rate=10)

    def test_constant_is_flat(self):
        sizes = make_arrival("constant", rate=50).tick_sizes(6)
        assert sizes.dtype == np.int64
        assert (sizes == 50).all()

    def test_poisson_varies_but_averages_near_rate(self):
        sizes = make_arrival("poisson", rate=100, seed=3).tick_sizes(
            200)
        assert sizes.min() >= 0
        assert len(set(sizes.tolist())) > 1
        assert abs(sizes.mean() - 100) < 5

    def test_diurnal_swings_around_the_base_rate(self):
        arrival = make_arrival("diurnal", rate=100, period=8,
                               amplitude=0.5)
        sizes = arrival.tick_sizes(8)
        assert sizes.max() > 100 > sizes.min()
        assert abs(sizes.mean() - 100) < 10

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            make_arrival("constant", rate=0)
        with pytest.raises(ValueError, match="amplitude"):
            make_arrival("diurnal", rate=10, amplitude=1.5)
        with pytest.raises(ValueError, match="period"):
            make_arrival("diurnal", rate=10, period=1)
        with pytest.raises(ValueError, match="non-negative"):
            make_arrival("poisson", rate=10).ops_for_tick(-1)
        with pytest.raises(ValueError, match="at least one tick"):
            make_arrival("constant", rate=10).tick_sizes(0)


class TestAdversaries:
    def test_registry_names_match_classes(self):
        for name, cls in ADVERSARIES.items():
            assert cls.name == name
        assert "oblivious" in ADVERSARIES

    def test_unknown_adversary_rejected(self, base_keys):
        with pytest.raises(ValueError, match="unknown adversary"):
            make_adversary("ddos", base_keys, DOMAIN, 10)

    @pytest.mark.parametrize("name", sorted(ADVERSARIES))
    def test_budget_is_a_hard_cap(self, name, base_keys):
        adversary = make_adversary(name, base_keys, DOMAIN, 37)
        emitted = 0
        for tick in range(20):
            keys = adversary(obs(tick=tick, ticks_total=20,
                                 amplification=1.0))
            emitted += 0 if keys is None else keys.size
        assert emitted <= 37
        assert adversary.remaining == adversary.budget - emitted

    @pytest.mark.parametrize("name", sorted(ADVERSARIES))
    def test_nothing_emitted_at_the_final_tick(self, name, base_keys):
        adversary = make_adversary(name, base_keys, DOMAIN, 20)
        assert adversary(obs(tick=9, ticks_total=10)) is None

    def test_oblivious_paces_evenly_and_ignores_feedback(self,
                                                         base_keys):
        adversary = make_adversary("oblivious", base_keys, DOMAIN,
                                   36)
        doses = [adversary(obs(tick=t, ticks_total=10,
                               amplification=float(t)))
                 for t in range(9)]
        sizes = [d.size for d in doses if d is not None]
        assert sizes == [4] * 9  # ceil(36 / 9), observation-blind

    def test_escalate_doubles_until_target_then_holds(self,
                                                      base_keys):
        adversary = make_adversary("escalate", base_keys, DOMAIN, 200,
                                   target_amplification=1.5)
        below = [adversary(obs(tick=t, ticks_total=30,
                               amplification=1.0)).size
                 for t in range(4)]
        assert below == [2, 4, 8, 16]  # doubling ramp
        above = adversary(obs(tick=4, ticks_total=30,
                              amplification=2.0))
        assert above.size == 1  # back to the probe dose

    def test_escalate_dumps_its_remaining_budget_at_endgame(
            self, base_keys):
        adversary = make_adversary("escalate", base_keys, DOMAIN, 50,
                                   endgame_ticks=2)
        adversary(obs(tick=0, ticks_total=10))
        remaining = adversary.remaining
        dump = adversary(obs(tick=7, ticks_total=10))
        assert dump.size == remaining
        assert adversary.remaining == 0

    def test_backoff_goes_quiet_after_an_observed_retrain(self,
                                                          base_keys):
        adversary = make_adversary("backoff", base_keys, DOMAIN, 100,
                                   dose=8, backoff_ticks=2)
        assert adversary(obs(tick=0, ticks_total=30)).size == 8
        assert adversary(obs(tick=1, ticks_total=30,
                             retrains_delta=1)) is None
        assert adversary(obs(tick=2, ticks_total=30)) is None
        resumed = adversary(obs(tick=3, ticks_total=30))
        assert resumed.size == 4  # halved after detection

    def test_hillclimb_crafts_fresh_unoccupied_keys(self, base_keys):
        adversary = make_adversary("hillclimb", base_keys, DOMAIN, 60,
                                   dose=10)
        crafted = []
        p95 = 5.0
        for tick in range(5):
            keys = adversary(obs(tick=tick, ticks_total=20, p95=p95))
            p95 += 1.0  # pretend the placement keeps paying off
            crafted.extend(keys.tolist())
        assert len(crafted) == len(set(crafted))  # never re-emitted
        assert not np.isin(np.asarray(crafted), base_keys).any()
        assert all(DOMAIN.lo <= k <= DOMAIN.hi for k in crafted)

    def test_pool_override_is_released_verbatim(self, base_keys):
        pool = np.arange(7_000, 7_040, dtype=np.int64)
        adversary = make_adversary("oblivious", base_keys, DOMAIN, 40,
                                   pool=pool)
        out = []
        for tick in range(19):
            keys = adversary(obs(tick=tick, ticks_total=20))
            if keys is not None:
                out.extend(keys.tolist())
        assert out == pool.tolist()

    def test_budget_must_be_positive(self, base_keys):
        with pytest.raises(ValueError, match="budget"):
            make_adversary("oblivious", base_keys, DOMAIN, 0)


class TestTrimAutoTuner:
    def test_quiet_stream_leaves_the_knobs_alone(self):
        tuner = TrimAutoTuner(base_threshold=0.1)
        for tick in range(8):
            decision = tuner(obs(tick=tick, amplification=1.0,
                                 n_keys=600 + 2 * tick))
        assert decision.keep_fraction == 1.0
        assert decision.rebuild_threshold == pytest.approx(0.1)

    def test_churn_burst_defers_the_rebuild(self):
        tuner = TrimAutoTuner(base_threshold=0.1, boost=2.0,
                              hold_ticks=3)
        tuner(obs(tick=0, n_keys=600))
        tuner(obs(tick=1, n_keys=604))   # establishes the churn EMA
        burst = tuner(obs(tick=2, n_keys=680))  # 76-key spike
        assert burst.rebuild_threshold == pytest.approx(0.2)
        held = tuner(obs(tick=3, n_keys=682))
        assert held.rebuild_threshold == pytest.approx(0.2)

    def test_threshold_decays_back_toward_base(self):
        tuner = TrimAutoTuner(base_threshold=0.1, boost=2.0,
                              hold_ticks=1, decay=0.5)
        tuner(obs(tick=0, n_keys=600))
        tuner(obs(tick=1, n_keys=604))
        tuner(obs(tick=2, n_keys=680))          # burst: held once
        after = [tuner(obs(tick=t, n_keys=680)).rebuild_threshold
                 for t in range(3, 7)]
        assert after == sorted(after, reverse=True)
        assert after[-1] == pytest.approx(0.1, abs=0.01)

    def test_high_amplification_tightens_the_screen(self):
        tuner = TrimAutoTuner(base_threshold=0.1, keep_gain=0.5,
                              keep_deadband=0.2, keep_floor=0.8)
        for tick in range(10):
            decision = tuner(obs(tick=tick, amplification=3.0))
        assert decision.keep_fraction < 1.0
        assert decision.keep_fraction >= 0.8

    def test_validation(self):
        with pytest.raises(ValueError, match="base threshold"):
            TrimAutoTuner(base_threshold=0.0)
        with pytest.raises(ValueError, match="alpha"):
            TrimAutoTuner(alpha=0.0)
        with pytest.raises(ValueError, match="keep floor"):
            TrimAutoTuner(keep_floor=0.0)
        with pytest.raises(ValueError, match="burst factor"):
            TrimAutoTuner(burst_factor=0.5)
        with pytest.raises(ValueError, match="boost"):
            TrimAutoTuner(boost=0.5)
        with pytest.raises(ValueError, match="hold_ticks"):
            TrimAutoTuner(hold_ticks=0)
        with pytest.raises(ValueError, match="decay"):
            TrimAutoTuner(decay=1.0)


class TestClosedLoopSimulator:
    @pytest.fixture(scope="class")
    def scenario(self):
        sizes = make_arrival("poisson", rate=80, seed=9).tick_sizes(8)
        spec = TraceSpec(n_base_keys=400, n_ops=int(sizes.sum()),
                         insert_fraction=0.05, seed=9)
        return generate_rate_driven_trace(spec, sizes), sizes, spec

    def test_tick_sizes_validation(self, scenario):
        trace, sizes, _ = scenario
        backend = make_backend("binary", trace.base_keys)
        with pytest.raises(ValueError, match="sum to"):
            ServingSimulator(backend, trace, tick_sizes=sizes[:-1])
        with pytest.raises(ValueError, match="non-negative"):
            ServingSimulator(backend, trace,
                             tick_sizes=[-1, trace.n_ops + 1])
        with pytest.raises(ValueError, match="non-empty"):
            ServingSimulator(backend, trace, tick_sizes=[])

    def test_rate_driven_ticks_follow_the_arrival_counts(self,
                                                         scenario):
        trace, sizes, _ = scenario
        report = ServingSimulator(
            make_backend("binary", trace.base_keys), trace,
            tick_sizes=sizes).run()
        assert report.n_ticks == sizes.size
        assert report.tick_ops == 0  # marks a rate-driven replay
        for name in ("injected", "keep_fraction",
                     "rebuild_threshold"):
            assert report.series[name].size == sizes.size

    def test_zero_op_tick_records_nan_percentiles(self, scenario):
        trace, _, _ = scenario
        sizes = np.concatenate([
            np.asarray([trace.n_ops], dtype=np.int64),
            np.zeros(2, dtype=np.int64)])
        report = ServingSimulator(
            make_backend("binary", trace.base_keys), trace,
            tick_sizes=sizes).run()
        assert math.isnan(float(report.series["p95"][-1]))
        assert math.isfinite(report.p95)

    def test_adversary_port_injects_next_tick(self, scenario):
        trace, sizes, spec = scenario
        seen = []

        def adversary(observation):
            seen.append(observation)
            if observation.tick == 2:
                return np.asarray([3_901, 3_903], dtype=np.int64)
            return None

        backend = make_backend("rmi", trace.base_keys)
        report = ServingSimulator(backend, trace, tick_sizes=sizes,
                                  adversary=adversary).run()
        assert report.injected_poison == 2
        assert report.series["injected"].sum() == 2
        assert report.series["injected"][3] == 2  # lands one tick on
        assert len(seen) == sizes.size
        assert [o.tick for o in seen] == list(range(sizes.size))
        assert all(o.ticks_total == sizes.size for o in seen)
        found, _ = backend.lookup_batch(
            np.asarray([3_901, 3_903], dtype=np.int64))
        assert found.all()

    def test_observation_percentiles_are_backfilled(self, scenario):
        trace, _, _ = scenario
        sizes = np.concatenate([
            np.asarray([trace.n_ops], dtype=np.int64),
            np.zeros(2, dtype=np.int64)])
        seen = []
        ServingSimulator(make_backend("binary", trace.base_keys),
                         trace, tick_sizes=sizes,
                         adversary=lambda o: seen.append(o)).run()
        # Ticks 1 and 2 measured nothing; the port still sees the
        # last finite percentiles instead of NaN.
        assert seen[1].p95 == seen[0].p95
        assert math.isfinite(seen[2].p95)

    def test_tuner_port_drives_the_backend_knobs(self, scenario):
        trace, sizes, _ = scenario

        def tuner(observation):
            return TunerDecision(keep_fraction=0.95,
                                 rebuild_threshold=0.42)

        backend = make_backend("rmi", trace.base_keys)
        report = ServingSimulator(backend, trace, tick_sizes=sizes,
                                  tuner=tuner).run()
        assert backend.rebuild_threshold == 0.42
        assert backend.trim_keep_fraction == 0.95
        assert (report.series["rebuild_threshold"][1:] == 0.42).all()
        assert (report.series["keep_fraction"][1:] == 0.95).all()

    def test_trim_decision_is_inert_on_model_free_backends(
            self, scenario):
        trace, sizes, _ = scenario
        backend = make_backend("binary", trace.base_keys)
        report = ServingSimulator(
            backend, trace, tick_sizes=sizes,
            tuner=lambda o: TunerDecision(keep_fraction=0.9,
                                          rebuild_threshold=0.3),
        ).run()
        assert backend.trim_keep_fraction is None
        assert backend.rebuild_threshold == 0.3
        assert math.isnan(float(report.series["keep_fraction"][-1]))

    def test_open_loop_replay_has_no_loop_series(self, scenario):
        trace, _, _ = scenario
        report = ServingSimulator(
            make_backend("binary", trace.base_keys), trace).run()
        assert "injected" not in report.series
        assert report.injected_poison == 0
