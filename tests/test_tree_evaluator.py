"""Tests for the full Barnes-Hut evaluators against direct summation."""

import numpy as np
import pytest

from repro.tree import TreeEvaluator
from repro.tree.parallel import SpaceParallelTreeEvaluator
from repro.vortex import DirectEvaluator, get_kernel, spherical_vortex_sheet
from repro.vortex.sheet import SheetConfig


@pytest.fixture(scope="module")
def sheet_setup():
    cfg = SheetConfig(n=400)
    ps = spherical_vortex_sheet(cfg)
    kernel = get_kernel("algebraic6")
    ref = DirectEvaluator(kernel, cfg.sigma).field(ps.positions, ps.charges)
    return ps, cfg, kernel, ref


class TestAccuracy:
    def test_theta_zero_matches_direct_exactly(self, sheet_setup):
        ps, cfg, kernel, ref = sheet_setup
        tree = TreeEvaluator(kernel, cfg.sigma, theta=0.0, leaf_size=24)
        out = tree.field(ps.positions, ps.charges)
        assert np.allclose(out.velocity, ref.velocity, rtol=1e-12, atol=1e-14)
        assert np.allclose(out.gradient, ref.gradient, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("theta,tol", [(0.3, 2e-3), (0.6, 2e-2)])
    def test_accuracy_at_paper_thetas(self, sheet_setup, theta, tol):
        ps, cfg, kernel, ref = sheet_setup
        tree = TreeEvaluator(kernel, cfg.sigma, theta=theta, leaf_size=24)
        out = tree.field(ps.positions, ps.charges)
        rel = np.max(np.abs(out.velocity - ref.velocity)) / np.max(
            np.abs(ref.velocity)
        )
        assert rel < tol

    def test_error_monotone_in_theta(self, sheet_setup):
        ps, cfg, kernel, ref = sheet_setup
        errs = []
        for theta in (0.2, 0.5, 1.0):
            out = TreeEvaluator(kernel, cfg.sigma, theta=theta,
                                leaf_size=24).field(ps.positions, ps.charges)
            errs.append(np.max(np.abs(out.velocity - ref.velocity)))
        assert errs[0] < errs[1] < errs[2]

    def test_cost_decreases_with_theta(self, sheet_setup):
        """The paper's coarsening premise: larger theta => less work."""
        ps, cfg, kernel, _ = sheet_setup
        work = []
        for theta in (0.3, 0.6):
            ev = TreeEvaluator(kernel, cfg.sigma, theta=theta, leaf_size=24)
            ev.field(ps.positions, ps.charges)
            s = ev.last_stats
            work.append(s.far_interactions + s.near_interactions)
        assert work[1] < work[0]

    def test_multipole_order_improves_accuracy(self, sheet_setup):
        ps, cfg, kernel, ref = sheet_setup
        errs = []
        for order in (0, 1, 2):
            out = TreeEvaluator(kernel, cfg.sigma, theta=0.5, order=order,
                                leaf_size=24).field(ps.positions, ps.charges)
            errs.append(np.max(np.abs(out.velocity - ref.velocity)))
        assert errs[2] < errs[0]

    def test_gradient_accuracy(self, sheet_setup):
        ps, cfg, kernel, ref = sheet_setup
        out = TreeEvaluator(kernel, cfg.sigma, theta=0.3,
                            leaf_size=24).field(ps.positions, ps.charges)
        rel = np.max(np.abs(out.gradient - ref.gradient)) / np.max(
            np.abs(ref.gradient)
        )
        assert rel < 5e-3

    def test_no_gradient_mode(self, sheet_setup):
        ps, cfg, kernel, _ = sheet_setup
        out = TreeEvaluator(kernel, cfg.sigma, theta=0.3).field(
            ps.positions, ps.charges, gradient=False
        )
        assert out.gradient is None

    def test_bmax_variant_works(self, sheet_setup):
        ps, cfg, kernel, ref = sheet_setup
        out = TreeEvaluator(kernel, cfg.sigma, theta=0.4, leaf_size=24,
                            mac_variant="bmax").field(ps.positions, ps.charges)
        rel = np.max(np.abs(out.velocity - ref.velocity)) / np.max(
            np.abs(ref.velocity)
        )
        assert rel < 2e-2

    def test_result_in_caller_order(self, sheet_setup, rng):
        """Scatter back: permuting the input permutes the output."""
        ps, cfg, kernel, _ = sheet_setup
        ev = TreeEvaluator(kernel, cfg.sigma, theta=0.3, leaf_size=24)
        out = ev.field(ps.positions, ps.charges)
        perm = rng.permutation(ps.n)
        out_p = ev.field(ps.positions[perm], ps.charges[perm])
        assert np.allclose(out_p.velocity, out.velocity[perm], atol=1e-11)


class TestValidation:
    def test_kernel_without_chain_rejected(self, no_chain_kernel):
        with pytest.raises(ValueError, match="multipole"):
            TreeEvaluator(no_chain_kernel, 0.5)

    def test_negative_theta(self):
        with pytest.raises(ValueError, match="theta"):
            TreeEvaluator("algebraic6", 0.5, theta=-0.1)

    def test_bad_order(self):
        with pytest.raises(ValueError, match="order"):
            TreeEvaluator("algebraic6", 0.5, order=5)

    @pytest.mark.parametrize("kwargs,name", [
        ({"theta": float("nan")}, "theta"),
        # every leaf would take itself as a far cluster: no near pairs
        ({"theta": float("inf")}, "theta"),
        # theta 0 never consults the variant, 0.5 only at traversal time
        ({"theta": 0.0, "mac_variant": "bogus"}, "mac_variant"),
        ({"theta": 0.5, "mac_variant": "bogus"}, "mac_variant"),
    ], ids=["nan-theta", "inf-theta", "bogus-variant-theta0",
            "bogus-variant-theta0.5"])
    def test_bad_mac_rejected_at_construction(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            TreeEvaluator("algebraic6", 0.5, **kwargs)
        if "mac_variant" not in kwargs:  # coarsening only sets theta
            ev = TreeEvaluator("algebraic6", 0.5)
            with pytest.raises(ValueError, match=name):
                ev.coarsened(kwargs["theta"])

    @pytest.mark.parametrize("leaf_size", [0, -1, 2.7])
    def test_bad_leaf_size_rejected_at_construction(self, leaf_size):
        for cls in (TreeEvaluator, SpaceParallelTreeEvaluator):
            with pytest.raises(ValueError, match="leaf_size"):
                cls("algebraic6", 0.5, leaf_size=leaf_size)
        # NumPy integers are integers
        ev = TreeEvaluator("algebraic6", 0.5, leaf_size=np.int64(3))
        assert type(ev.leaf_size) is int and ev.leaf_size == 3

    def test_stats_populated(self, sheet_setup):
        ps, cfg, kernel, _ = sheet_setup
        ev = TreeEvaluator(kernel, cfg.sigma, theta=0.5, leaf_size=24)
        ev.field(ps.positions, ps.charges)
        s = ev.last_stats
        assert s.n_particles == ps.n
        assert s.n_nodes > 0
        assert s.interactions_per_particle > 0
        assert ev.phases.elapsed("traverse") > 0
