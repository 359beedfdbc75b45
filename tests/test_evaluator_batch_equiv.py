"""Equivalence of the batched engine with direct and per-group paths.

The batched engine (``repro.tree.engine``) must reproduce

* the O(N^2) direct references within the established theta tolerances,
  across MAC variants, multipole orders and gradient modes; and
* the pre-batching per-group implementation (``repro.tree.reference``)
  to summation-reordering accuracy: both walk the *same* interaction
  lists and evaluate the *same* expansion formulas, so any discrepancy
  beyond float addition order is an engine indexing bug.

The direct-comparison grids run once per kernel backend
(``repro.backends.usable_backends``): every backend must hold the exact
same tolerances as the serial NumPy reference, because their batch
decomposition is write-disjoint and each batch is evaluated with the
identical serial arithmetic.
"""

import numpy as np
import pytest

from repro.backends import usable_backends
from repro.tree import TreeEvaluator
from repro.tree.reference import reference_vortex_field
from repro.vortex import DirectEvaluator, get_kernel, spherical_vortex_sheet
from repro.vortex.sheet import SheetConfig

THETA_TOL = {0.0: 1e-12, 0.3: 2e-3, 0.6: 2e-2}

#: every registered backend
BACKENDS = list(usable_backends())


@pytest.fixture(scope="module")
def sheet():
    cfg = SheetConfig(n=400)
    ps = spherical_vortex_sheet(cfg)
    kernel = get_kernel("algebraic6")
    ref = DirectEvaluator(kernel, cfg.sigma).field(ps.positions, ps.charges)
    return ps, cfg, kernel, ref


def _rel_err(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestVortexAgainstDirect:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("theta", [0.0, 0.3, 0.6])
    @pytest.mark.parametrize("variant", ["bh", "bmax"])
    def test_velocity_within_theta_tolerance(self, sheet, theta, variant,
                                             backend):
        ps, cfg, kernel, ref = sheet
        ev = TreeEvaluator(kernel, cfg.sigma, theta=theta, leaf_size=24,
                           mac_variant=variant, backend=backend)
        out = ev.field(ps.positions, ps.charges)
        if theta == 0.0:
            assert np.allclose(out.velocity, ref.velocity,
                               rtol=1e-12, atol=1e-14)
            assert np.allclose(out.gradient, ref.gradient,
                               rtol=1e-12, atol=1e-14)
        else:
            assert _rel_err(out.velocity, ref.velocity) < THETA_TOL[theta]
            assert _rel_err(out.gradient, ref.gradient) < 10 * THETA_TOL[theta]

    @pytest.mark.parametrize("gradient", [True, False])
    def test_gradient_toggle(self, sheet, gradient):
        ps, cfg, kernel, _ = sheet
        ev = TreeEvaluator(kernel, cfg.sigma, theta=0.3, leaf_size=24)
        out = ev.field(ps.positions, ps.charges, gradient=gradient)
        assert (out.gradient is not None) == gradient
        assert np.all(np.isfinite(out.velocity))


class TestVortexAgainstReference:
    """Batched engine vs the preserved per-group path, bitwise-close."""

    @pytest.mark.parametrize("theta", [0.0, 0.3, 0.6])
    @pytest.mark.parametrize("variant", ["bh", "bmax"])
    def test_theta_and_variant_grid(self, sheet, theta, variant):
        ps, cfg, kernel, _ = sheet
        ev = TreeEvaluator(kernel, cfg.sigma, theta=theta, leaf_size=24,
                           mac_variant=variant)
        out = ev.field(ps.positions, ps.charges)
        ref = reference_vortex_field(
            ps.positions, ps.charges, kernel, cfg.sigma, theta=theta,
            leaf_size=24, mac_variant=variant,
        )
        scale = np.max(np.abs(ref.velocity))
        assert np.allclose(out.velocity, ref.velocity, atol=1e-12 * scale)
        gscale = np.max(np.abs(ref.gradient))
        assert np.allclose(out.gradient, ref.gradient, atol=1e-12 * gscale)

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("gradient", [True, False])
    def test_order_and_gradient_grid(self, sheet, order, gradient):
        ps, cfg, kernel, _ = sheet
        ev = TreeEvaluator(kernel, cfg.sigma, theta=0.5, order=order,
                           leaf_size=24)
        out = ev.field(ps.positions, ps.charges, gradient=gradient)
        ref = reference_vortex_field(
            ps.positions, ps.charges, kernel, cfg.sigma, theta=0.5,
            order=order, leaf_size=24, gradient=gradient,
        )
        scale = np.max(np.abs(ref.velocity))
        assert np.allclose(out.velocity, ref.velocity, atol=1e-12 * scale)
        if gradient:
            gscale = np.max(np.abs(ref.gradient))
            assert np.allclose(out.gradient, ref.gradient,
                               atol=1e-12 * gscale)

    def test_tiny_system_single_group(self, rng):
        """N < leaf_size: one group, all-near traversal, no far pairs."""
        pos = rng.normal(size=(10, 3))
        ch = rng.normal(size=(10, 3))
        kernel = get_kernel("algebraic6")
        ev = TreeEvaluator(kernel, 0.5, theta=0.3, leaf_size=24)
        out = ev.field(pos, ch)
        ref = reference_vortex_field(pos, ch, kernel, 0.5, theta=0.3,
                                     leaf_size=24)
        assert np.allclose(out.velocity, ref.velocity, atol=1e-13)
        assert ev.last_stats.far_pairs == 0


class TestEngineBudget:
    def test_tiny_budget_matches_default(self, sheet):
        """Batching must not change results — exercise many small batches."""
        ps, cfg, kernel, _ = sheet
        ev_default = TreeEvaluator(kernel, cfg.sigma, theta=0.4, leaf_size=24)
        ev_tiny = TreeEvaluator(kernel, cfg.sigma, theta=0.4, leaf_size=24,
                                batch_budget_bytes=1)
        out_d = ev_default.field(ps.positions, ps.charges)
        out_t = ev_tiny.field(ps.positions, ps.charges)
        assert np.allclose(out_t.velocity, out_d.velocity,
                           atol=1e-13 * np.max(np.abs(out_d.velocity)))
        assert np.allclose(out_t.gradient, out_d.gradient,
                           atol=1e-13 * np.max(np.abs(out_d.gradient)))
