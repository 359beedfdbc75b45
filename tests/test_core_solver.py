"""Tests for the solver's core run path: the plain objects a run is built
from (``VortexProblem`` with a tree or direct evaluator, the theta
coarsening, ``SDCStepper`` / ``run_pfasst``), wired the way ``repro
sheet`` wires them."""

import numpy as np
import pytest

from repro.cli import main
from repro.pfasst import (LevelSpec, PfasstConfig, alpha_from_measurements,
                          run_pfasst)
from repro.sdc import SDCStepper
from repro.tree import TreeEvaluator
from repro.vortex import (DirectEvaluator, SheetConfig, VortexProblem,
                          spherical_vortex_sheet)
from support import reference_solution


@pytest.fixture(scope="module")
def sheet():
    cfg = SheetConfig(n=200)
    return spherical_vortex_sheet(cfg), cfg


def _direct(ps, cfg):
    return VortexProblem(ps.volumes, DirectEvaluator("algebraic6", cfg.sigma))


def _pfasst(fine, coarse, u0, t_end, dt, iterations, p_time):
    config = PfasstConfig(t0=0.0, t_end=t_end,
                          n_steps=int(round(t_end / dt)),
                          iterations=iterations)
    specs = [LevelSpec(fine, 3, 1), LevelSpec(coarse, 2, 2)]
    return run_pfasst(config, specs, u0, p_time=p_time)


#: relative agreement of two final positions on the module's sheet
_AGREE = 1e-12


def _sdc_end(ps, cfg, **stepper):
    return SDCStepper(_direct(ps, cfg), **stepper).run(ps.state(), 0.0, 1.0,
                                                       0.5)


@pytest.fixture(scope="module")
def reference(sheet):
    ps, cfg = sheet
    return reference_solution(_direct(ps, cfg), ps.state(), 1.0)


def _distance(ps, u, v):
    """Largest position difference relative to the largest coordinate."""
    a, b = ps.with_state(u).positions, ps.with_state(v).positions
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestConfigValidation:
    def test_bad_method(self):
        # the Runge-Kutta baselines are SDC configurations, not methods
        with pytest.raises(SystemExit):
            main(["sheet", "--method", "rk2"])

    def test_bad_evaluator(self):
        with pytest.raises(SystemExit):
            main(["sheet", "--evaluator", "fmm"])

    def test_bad_dt(self, sheet):
        ps, cfg = sheet
        with pytest.raises(ValueError, match="dt"):
            SDCStepper(_direct(ps, cfg)).run(ps.state(), 0.0, 1.0, -0.5)
        with pytest.raises(ValueError, match="dt"):
            SDCStepper(_direct(ps, cfg), num_nodes=2, sweeps=2).run(
                ps.state(), 0.0, 1.0, 0.0)

    def test_n_steps(self):
        config = PfasstConfig(t0=0.0, t_end=4.0, n_steps=8, iterations=2)
        assert config.dt == 0.5

    def test_n_steps_non_divisible(self):
        with pytest.raises(ValueError, match="integer multiple"):
            main(["sheet", "-n", "40", "--method", "pfasst", "--t-end",
                  "1.0", "--dt", "0.3", "--p-time", "1"])

    def test_negative_theta(self):
        with pytest.raises(ValueError, match="theta"):
            TreeEvaluator("algebraic6", 0.1, theta=-1.0)


class TestRuns:
    def test_sdc_run(self, sheet):
        ps, cfg = sheet
        problem = _direct(ps, cfg)
        u_end = SDCStepper(problem, sweeps=3).run(ps.state(), 0.0, 1.0, 0.5)
        assert u_end.shape == ps.state().shape
        assert problem.evaluator.calls > 0

    def test_pfasst_run_records_alpha(self, sheet):
        ps, cfg = sheet
        fine = VortexProblem(ps.volumes, TreeEvaluator(
            "algebraic6", cfg.sigma, theta=0.3, leaf_size=24))
        coarse = fine.coarsened(theta=0.6)
        res = _pfasst(fine, coarse, ps.state(), 1.0, 0.25, 2, 4)
        assert coarse.evaluator.calls > 0
        ratio = fine.evaluator.mean_cost / coarse.evaluator.mean_cost
        assert alpha_from_measurements(2, 3, ratio) > 0
        assert len(res.residuals) == 4

    def test_methods_agree_on_final_state(self, sheet, reference):
        """SDC(4) and PFASST must land on the same flow as an independent
        high-order reference, to what the setup resolves: measured, SDC(4)
        lands 4.4e-14 (relative to the largest coordinate) from DOP853 and
        PFASST(3 iterations, P_T = 2) 1.4e-14 from SDC(4); the bounds
        leave a margin of about 20x and 70x."""
        ps, cfg = sheet
        u0 = ps.state()
        pfasst = _pfasst(_direct(ps, cfg), _direct(ps, cfg), u0, 1.0, 0.5, 3,
                         2).u_end
        sdc = _sdc_end(ps, cfg, sweeps=4)
        assert _distance(ps, sdc, reference) < _AGREE
        assert _distance(ps, pfasst, sdc) < _AGREE

    @pytest.mark.parametrize("stepper", [
        dict(num_nodes=2, sweeps=1),  # forward Euler: 1.6e-5 measured
        dict(num_nodes=2, sweeps=2),  # Heun's RK2: 1.3e-8 measured
    ], ids=["euler", "heun"])
    def test_low_order_steppers_fail_the_agreement_bound(self, sheet,
                                                        reference, stepper):
        """Negative control: the bound above tells SDC(4) from the RK
        configurations on the same setup and step."""
        ps, cfg = sheet
        assert (_distance(ps, _sdc_end(ps, cfg, **stepper), reference)
                > 1e3 * _AGREE)

    def test_callback_receives_states(self, sheet):
        ps, cfg = sheet
        seen = []
        SDCStepper(_direct(ps, cfg), num_nodes=2, sweeps=1).run(
            ps.state(), 0.0, 1.0, 0.5, callback=lambda t, u: seen.append(t),
        )
        assert seen == pytest.approx([0.0, 0.5, 1.0])

    def test_tree_and_direct_agree(self, sheet):
        ps, cfg = sheet
        tree = VortexProblem(ps.volumes, TreeEvaluator(
            "algebraic6", cfg.sigma, theta=0.2, leaf_size=24))
        r_direct, r_tree = (
            ps.with_state(SDCStepper(problem, num_nodes=2, sweeps=2).run(
                ps.state(), 0.0, 0.5, 0.5)).positions
            for problem in (_direct(ps, cfg), tree))
        scale = np.max(np.abs(r_direct))
        assert np.max(np.abs(r_tree - r_direct)) < 1e-4 * scale
