"""Tests for repro.obs.tracer — recording semantics and, critically, the
zero-cost contract of the disabled (null) path.

The null-tracer tests mirror the ``REPRO_SANITIZE`` identity-decorator
contract in ``test_sanitize.py``: when observability is off, the
instrumented call sites must not allocate.
"""

import gc
import sys

from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)


class TestNullFastPath:
    def test_default_tracer_is_the_null_singleton(self):
        assert get_tracer() is NULL_TRACER
        assert not NULL_TRACER.enabled

    def test_span_returns_shared_singleton(self):
        """No per-call allocation: every span() is the same object."""
        a = NULL_TRACER.span("tree_build")
        b = NULL_TRACER.span("moments", track="rank3", cat="phase")
        assert a is b
        with a as ctx:
            assert ctx.add(n=1) is a

    def test_event_methods_return_none(self):
        assert NULL_TRACER.vspan("x", 0.0, 1.0) is None
        assert NULL_TRACER.instant("x", t=0.5) is None
        assert NULL_TRACER.annotate("rank0", "begin:sweep", 0.0) is None

    def test_disabled_span_loop_allocates_nothing(self):
        """The zero-allocation regression: a hot loop over the disabled
        tracer must not grow the heap (one attribute check, a shared
        context manager, no garbage)."""
        def hot_loop(n):
            tracer = get_tracer()
            for _ in range(n):
                if tracer.enabled:
                    with tracer.span("phase"):
                        pass
                tracer.instant("ev", t=1.0)

        hot_loop(100)  # warm up: caches, bytecode specialisation
        gc.collect()
        before = sys.getallocatedblocks()
        hot_loop(10_000)
        after = sys.getallocatedblocks()
        assert after - before <= 2  # interpreter noise only, O(1) not O(n)

    def test_null_tracer_has_no_instance_dict(self):
        assert not hasattr(NullTracer(), "__dict__")


class TestTracerRecording:
    def test_wall_span_records_interval(self):
        tracer = Tracer()
        with tracer.span("tree_build", track="main", cat="phase") as sp:
            sp.add(n=64)
        (span,) = tracer.spans
        assert span.name == "tree_build"
        assert span.clock == "wall"
        assert span.cat == "phase"
        assert span.args == {"n": 64}
        assert span.duration >= 0.0

    def test_vspan_records_virtual_interval(self):
        tracer = Tracer()
        tracer.vspan("compute", 1.0, 2.5, track="rank1", cat="compute")
        (span,) = tracer.spans
        assert (span.clock, span.t0, span.t1) == ("virtual", 1.0, 2.5)
        assert span.duration == 1.5

    def test_instant_defaults_to_wall_clock_stamp(self):
        tracer = Tracer()
        tracer.instant("checkpoint")
        (inst,) = tracer.instants
        assert inst.clock == "wall"
        assert inst.t > 0.0

    def test_instant_with_virtual_time(self):
        tracer = Tracer()
        tracer.instant("send", t=0.25, track="rank0", cat="comm",
                       args={"dest": 1})
        (inst,) = tracer.instants
        assert (inst.clock, inst.t, inst.args) == ("virtual", 0.25,
                                                   {"dest": 1})

    def test_annotate_folds_begin_end_into_span(self):
        tracer = Tracer()
        tracer.annotate("rank2", "begin:sweep:L0:k1", 3.0, data={"k": 1})
        tracer.annotate("rank2", "end:sweep:L0:k1", 4.5, data={"res": 0.1})
        (span,) = tracer.spans
        assert span.name == "sweep:L0:k1"
        assert (span.t0, span.t1, span.track) == (3.0, 4.5, "rank2")
        assert span.cat == "phase"
        assert span.args == {"k": 1, "res": 0.1}
        assert not tracer.instants

    def test_annotate_interleaves_across_tracks(self):
        tracer = Tracer()
        tracer.annotate("rank0", "begin:predict:0", 0.0)
        tracer.annotate("rank1", "begin:predict:0", 0.5)
        tracer.annotate("rank0", "end:predict:0", 1.0)
        tracer.annotate("rank1", "end:predict:0", 1.5)
        assert [(s.track, s.t0, s.t1) for s in tracer.spans] == [
            ("rank0", 0.0, 1.0), ("rank1", 0.5, 1.5)]

    def test_annotate_plain_label_becomes_instant(self):
        tracer = Tracer()
        tracer.annotate("rank0", "residual", 2.0, data={"k": 0})
        assert not tracer.spans
        (inst,) = tracer.instants
        assert inst.name == "residual"
        assert inst.cat == "mark"

    def test_annotate_end_without_begin_stays_visible(self):
        tracer = Tracer()
        tracer.annotate("rank0", "end:sweep:L0:k0", 1.0)
        (inst,) = tracer.instants
        assert inst.name == "end:sweep:L0:k0"

    def test_tracks_and_clear(self):
        tracer = Tracer(meta={"run": "t"})
        tracer.vspan("a", 0.0, 1.0, track="rank1")
        tracer.instant("b", t=0.5, track="rank0")
        assert tracer.tracks() == ["rank0", "rank1"]
        tracer.clear()
        assert tracer.tracks() == []
        assert tracer.meta == {"run": "t"}  # meta survives clear


class TestActiveTracer:
    def test_use_tracer_restores_previous(self):
        tracer = Tracer()
        assert get_tracer() is NULL_TRACER
        with use_tracer(tracer) as installed:
            assert installed is tracer
            assert get_tracer() is tracer
        assert get_tracer() is NULL_TRACER

    def test_set_tracer_none_restores_null(self):
        tracer = Tracer()
        set_tracer(tracer)
        try:
            assert get_tracer() is tracer
        finally:
            set_tracer(None)
        assert get_tracer() is NULL_TRACER

    def test_tree_evaluator_records_its_phases(self):
        """A cold ``TreeEvaluator.field`` records the six tree stages as
        ``phase`` spans; a field-memo hit records none."""
        import numpy as np

        from repro.tree import TreeEvaluator

        rng = np.random.default_rng(5)
        positions, charges = rng.normal(size=(2, 200, 3))
        ev = TreeEvaluator("algebraic6", 0.3, theta=0.5, leaf_size=16)
        tracer = Tracer()
        with use_tracer(tracer):
            ev.field(positions, charges)
            cold = [s.name for s in tracer.spans if s.cat == "phase"]
            tracer.clear()
            ev.field(positions, charges)
        assert ev.last_stats.field_cached
        assert cold == ["tree_build", "moments", "traverse", "layout",
                        "far_field", "near_field"]
        assert tracer.spans == []
