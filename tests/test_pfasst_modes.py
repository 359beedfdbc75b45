"""Tests for the PFASST controller's F update and its tracing."""

import numpy as np

from repro.pfasst import LevelSpec, PfasstConfig, run_pfasst
from repro.sdc import SDCStepper
from support import AnnotationLog


def _specs(problem):
    return [
        LevelSpec(problem, num_nodes=3, sweeps=1),
        LevelSpec(problem, num_nodes=2, sweeps=2),
    ]


class TestFUpdateModes:
    """The up-sweep corrects F by the interpolated coarse F increment
    instead of re-evaluating it; the fixed point is still serial SDC's."""

    def test_interpolated_f_update_converges_to_sdc(self, scalar_problem):
        u0 = np.array([1.0])
        ref = SDCStepper(scalar_problem, num_nodes=3, sweeps=14).run(
            u0, 0.0, 1.0, 0.25
        )
        cfg = PfasstConfig(t0=0.0, t_end=1.0, n_steps=4, iterations=12)
        res = run_pfasst(cfg, _specs(scalar_problem), u0, p_time=4)
        assert np.allclose(res.u_end, ref, atol=1e-11)


def _annotations(problem, **kw):
    """The run's annotations, as the attached tracer saw them."""
    log = AnnotationLog()
    cfg = PfasstConfig(t0=0.0, t_end=1.0, n_steps=2, **kw)
    run_pfasst(cfg, _specs(problem), np.array([1.0]), p_time=2, tracer=log)
    return log


class TestTracing:
    def test_trace_disabled_by_default(self, scalar_problem):
        log = _annotations(scalar_problem, iterations=1)
        assert log.events == []
        assert not [s for s in log.spans if s.cat == "phase"]

    def test_trace_records_sweeps(self, scalar_problem):
        log = _annotations(scalar_problem, iterations=2, trace=True)
        labels = {label for _, label, _ in log.events}
        assert "begin:sweep:L0:k0" in labels
        assert "end:sweep:L1:k1" in labels
        assert "begin:predict:0" in labels
        phases = {s.name for s in log.spans if s.cat == "phase"}
        assert {"sweep:L0:k0", "sweep:L1:k1", "predict:0"} <= phases

    def test_trace_begin_end_pairing(self, scalar_problem):
        log = _annotations(scalar_problem, iterations=2, trace=True)
        begins = sum(1 for _, label, _ in log.events
                     if label.startswith("begin:"))
        ends = sum(1 for _, label, _ in log.events
                   if label.startswith("end:"))
        assert begins == ends
        assert begins == sum(1 for s in log.spans if s.cat == "phase")

    def test_trace_does_not_change_numerics(self, scalar_problem):
        u0 = np.array([1.0])
        outs = []
        for trace in (False, True):
            cfg = PfasstConfig(t0=0.0, t_end=1.0, n_steps=2, iterations=2,
                               trace=trace)
            outs.append(
                run_pfasst(cfg, _specs(scalar_problem), u0, p_time=2).u_end
            )
        assert np.array_equal(outs[0], outs[1])
