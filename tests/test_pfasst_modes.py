"""Tests for the PFASST controller's F update and its tracing."""

import numpy as np

from repro.parallel.simmpi import TraceEvent
from repro.pfasst import LevelSpec, PfasstConfig, run_pfasst
from repro.sdc import SDCStepper


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


class TestTracing:
    def test_trace_disabled_by_default(self, scalar_problem):
        cfg = PfasstConfig(t0=0.0, t_end=1.0, n_steps=2, iterations=1)
        res = run_pfasst(cfg, _specs(scalar_problem), np.array([1.0]),
                         p_time=2)
        assert res.trace == []

    def test_trace_records_sweeps(self, scalar_problem):
        cfg = PfasstConfig(t0=0.0, t_end=1.0, n_steps=2, iterations=2,
                           trace=True)
        res = run_pfasst(cfg, _specs(scalar_problem), np.array([1.0]),
                         p_time=2)
        assert all(isinstance(ev, TraceEvent) for ev in res.trace)
        labels = {ev.label for ev in res.trace}
        assert "begin:sweep:L0:k0" in labels
        assert "end:sweep:L1:k1" in labels
        assert "begin:predict:0" in labels

    def test_trace_begin_end_pairing(self, scalar_problem):
        cfg = PfasstConfig(t0=0.0, t_end=1.0, n_steps=2, iterations=2,
                           trace=True)
        res = run_pfasst(cfg, _specs(scalar_problem), np.array([1.0]),
                         p_time=2)
        begins = sum(1 for ev in res.trace if ev.label.startswith("begin:"))
        ends = sum(1 for ev in res.trace if ev.label.startswith("end:"))
        assert begins == ends

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
