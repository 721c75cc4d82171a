"""The metrics registry and its opt-in install hook."""

import threading

import pytest

from repro import observe
from repro.observe.metrics import TimingStat


class TestCounters:
    def test_inc_accumulates(self):
        reg = observe.MetricsRegistry()
        reg.inc("ops")
        reg.inc("ops", 41)
        assert reg.counters == {"ops": 42}

    def test_len_counts_distinct_names(self):
        reg = observe.MetricsRegistry()
        assert len(reg) == 0
        reg.inc("a")
        reg.observe("c", 0.5)
        assert len(reg) == 2

    def test_thread_safety_of_inc(self):
        reg = observe.MetricsRegistry()

        def hammer():
            for _ in range(1000):
                reg.inc("n")

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counters["n"] == 4000


class TestTimings:
    def test_observe_accumulates_stats(self):
        reg = observe.MetricsRegistry()
        reg.observe("stage", 0.5)
        reg.observe("stage", 1.5)
        stat = reg.timings["stage"]
        assert stat.count == 2
        assert stat.total == 2.0
        assert stat.min == 0.5
        assert stat.max == 1.5
        assert stat.to_dict()["mean_seconds"] == 1.0

    def test_empty_stat_serializes_finite(self):
        stat = TimingStat()
        d = stat.to_dict()
        assert d["count"] == 0
        assert d["min_seconds"] == 0.0
        assert d["mean_seconds"] == 0.0


class TestTrace:
    def test_events_preserve_order_and_fields(self):
        reg = observe.MetricsRegistry()
        reg.trace("tick", tick=0, ops=10)
        reg.trace("tick", tick=1, ops=20)
        assert reg.events == [
            {"event": "tick", "tick": 0, "ops": 10},
            {"event": "tick", "tick": 1, "ops": 20}]


class TestProfile:
    def test_profile_shape_and_sorted_keys(self):
        reg = observe.MetricsRegistry()
        reg.inc("z")
        reg.inc("a")
        reg.observe("stage", 0.1)
        reg.trace("e")
        profile = reg.to_profile()
        assert list(profile["counters"]) == ["a", "z"]
        assert profile["trace_events"] == 1
        assert profile["timings"]["stage"]["count"] == 1


class TestInstallHook:
    def test_active_defaults_to_none(self):
        assert observe.active() is None

    def test_install_uninstall_roundtrip(self):
        reg = observe.MetricsRegistry()
        try:
            assert observe.install(reg) is reg
            assert observe.active() is reg
        finally:
            observe.uninstall()
        assert observe.active() is None

    def test_installed_context_restores_previous(self):
        outer = observe.MetricsRegistry()
        inner = observe.MetricsRegistry()
        with observe.installed(outer):
            with observe.installed(inner):
                assert observe.active() is inner
            assert observe.active() is outer
        assert observe.active() is None

    def test_installed_honours_an_empty_registry(self):
        """The regression: an empty registry is len() == 0, and a
        truthiness check would silently install a fresh one."""
        reg = observe.MetricsRegistry()
        assert len(reg) == 0
        with observe.installed(reg) as got:
            assert got is reg
            assert observe.active() is reg

    def test_installed_without_argument_makes_one(self):
        with observe.installed() as reg:
            assert isinstance(reg, observe.MetricsRegistry)
            assert observe.active() is reg
        assert observe.active() is None

    def test_exception_still_restores(self):
        with pytest.raises(RuntimeError):
            with observe.installed():
                raise RuntimeError("boom")
        assert observe.active() is None
