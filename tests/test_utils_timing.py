"""Tests for the phase timers (repro.obs.timing, re-exported by repro.utils)."""

import time

import pytest

from repro.obs.timing import Timer, TimingRegistry, timed


class TestTimer:
    def test_accumulates_elapsed(self):
        t = Timer(name="x")
        with t:
            time.sleep(0.01)
        assert t.elapsed >= 0.005
        assert t.count == 1

    def test_multiple_activations_accumulate(self):
        t = Timer(name="x")
        for _ in range(3):
            with t:
                pass
        assert t.count == 3
        assert t.mean == pytest.approx(t.elapsed / 3)

    def test_double_start_raises(self):
        t = Timer(name="x")
        t.start()
        with pytest.raises(RuntimeError, match="already running"):
            t.start()

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError, match="not running"):
            Timer(name="x").stop()

    def test_reset_clears_state(self):
        t = Timer(name="x")
        with t:
            pass
        t.reset()
        assert t.elapsed == 0.0
        assert t.count == 0

    def test_cancel_drops_the_running_activation(self):
        t = Timer(name="x")
        with t:
            pass
        elapsed = t.elapsed
        with t:
            t.cancel()
        assert (t.count, t.elapsed) == (1, elapsed)
        t.cancel()  # not running: nothing to drop
        with t:
            pass
        assert t.count == 2

    def test_mean_zero_when_never_run(self):
        assert Timer(name="x").mean == 0.0

    def test_stop_returns_duration(self):
        t = Timer(name="x")
        t.start()
        dt = t.stop()
        assert dt >= 0.0
        assert dt == pytest.approx(t.elapsed)


class TestTimingRegistry:
    def test_timer_is_cached_by_name(self):
        reg = TimingRegistry()
        assert reg.timer("a") is reg.timer("a")

    def test_phase_context_accumulates(self):
        reg = TimingRegistry()
        with reg.phase("build"):
            pass
        with reg.phase("build"):
            pass
        assert reg.timer("build").count == 2

    def test_elapsed_of_unknown_phase_is_zero(self):
        assert TimingRegistry().elapsed("nope") == 0.0

    def test_report_contains_phase_names(self):
        reg = TimingRegistry()
        with reg.phase("traverse"):
            pass
        assert "traverse" in reg.report()

    def test_as_dict(self):
        reg = TimingRegistry()
        with reg.phase("a"):
            pass
        d = reg.as_dict()
        assert set(d) == {"a"}
        assert d["a"] >= 0.0

    def test_reset(self):
        reg = TimingRegistry()
        with reg.phase("a"):
            time.sleep(0.002)
        reg.reset()
        assert reg.elapsed("a") == 0.0


def test_timed_block():
    with timed() as t:
        time.sleep(0.005)
    assert t.elapsed >= 0.002
