"""The near pass's batch seam: the serial NumPy backend and the probe's pool.

Covers what :mod:`repro.backends` still promises: ``get_backend``
resolves ``None`` / ``"numpy"`` / ``"threaded"`` to one instance each,
passes an instance through and rejects any other name; ``map_batches``
runs every batch in order; the ``threaded`` backend's near pass is
bitwise the serial one at theta = 0 and theta = 0.6, with a forced
multi-worker pool and a tiny batch budget (many batches in flight), and
a batch's exception reaches the caller.
"""

import os

import numpy as np
import pytest

import repro.backends
from repro.backends import (
    KernelBackend,
    ThreadedBackend,
    get_backend,
    usable_backends,
)
from repro.tree import (
    build_octree,
    build_traversal_layout,
    compute_vortex_moments,
    dual_traversal,
)
from repro.tree.engine import batched_near_vortex
from repro.vortex import get_kernel, spherical_vortex_sheet
from repro.vortex.sheet import SheetConfig


@pytest.fixture(scope="module")
def sheet():
    cfg = SheetConfig(n=600)
    return spherical_vortex_sheet(cfg), cfg, get_kernel("algebraic6")


def _near(sheet, theta, gradient, backend):
    ps, cfg, kernel = sheet
    tree = build_octree(ps.positions, leaf_size=16)
    moments = compute_vortex_moments(tree, ps.charges)
    lists = dual_traversal(tree, theta, node_bmax=moments.bmax, variant="bh")
    layout = build_traversal_layout(tree, lists)
    n = ps.positions.shape[0]
    vel = np.zeros((n, 3))
    grad = np.zeros((n, 3, 3)) if gradient else None
    batched_near_vortex(
        tree, ps.charges[tree.order], layout, kernel, cfg.sigma, gradient,
        False, vel, grad, budget_bytes=200_000, backend=backend,
    )
    return vel, grad


class TestRegistryAndResolution:
    def test_all_three_backends_registered(self):
        """Two since the cupy backend left; the id is pinned."""
        assert usable_backends() == ("numpy", "threaded")

    def test_cpu_backends_always_usable(self):
        assert all(get_backend(n).device == "cpu" for n in usable_backends())
        assert repro.backends.__all__ == [
            "KernelBackend", "get_backend", "usable_backends",
        ]

    def test_default_is_numpy(self):
        assert get_backend() is get_backend("numpy")
        assert get_backend().name == "numpy"

    def test_explicit_name_resolves_singleton(self):
        assert get_backend("threaded") is get_backend("threaded")
        assert get_backend("numpy").device == "cpu"

    def test_instance_passes_through(self):
        b = KernelBackend()
        assert get_backend(b) is b

    def test_unknown_name_lists_valid_names(self):
        with pytest.raises(ValueError) as exc:
            get_backend("torch")
        msg = str(exc.value)
        assert "'torch'" in msg
        assert "valid names: numpy, threaded" in msg


class TestMapBatches:
    def test_runs_every_batch_in_order(self):
        seen = []
        batches = [np.arange(k) for k in (3, 1, 2)]
        get_backend().map_batches(lambda b: seen.append(b.size), batches)
        assert seen == [3, 1, 2]

    def test_to_device_is_the_identity(self):
        a = np.arange(4.0)
        assert get_backend().to_device(a) is a


class TestThreadedEquivalence:
    @pytest.mark.parametrize("theta", [0.0, 0.6])
    def test_bitwise_identical_to_numpy(self, sheet, theta):
        ref = _near(sheet, theta, True, None)
        out = _near(sheet, theta, True, ThreadedBackend(max_workers=4))
        assert (out[0] == ref[0]).all()
        assert (out[1] == ref[1]).all()

    def test_velocity_only_bitwise(self, sheet):
        ref = _near(sheet, 0.6, False, None)
        out = _near(sheet, 0.6, False, ThreadedBackend(max_workers=4))
        assert (out[0] == ref[0]).all()
        assert out[1] is None

    def test_worker_count_resolution(self):
        assert ThreadedBackend(max_workers=3).workers == 3
        assert ThreadedBackend().workers == (os.cpu_count() or 1)

    def test_batch_exception_surfaces_at_call_site(self):
        def boom(batch):
            raise RuntimeError(f"batch {batch} failed")

        with pytest.raises(RuntimeError, match="batch"):
            ThreadedBackend(max_workers=2).map_batches(
                boom, [np.arange(1), np.arange(2)]
            )
