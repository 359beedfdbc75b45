"""Tests for the evaluators' stopwatch (repro.obs.timing.Timer)."""

import time

import pytest

from repro.obs.timing import Timer


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
