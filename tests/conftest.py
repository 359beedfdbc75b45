"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.vortex import (
    DirectEvaluator,
    ParticleSystem,
    SheetConfig,
    SmoothingKernel,
    VortexProblem,
    get_kernel,
    spherical_vortex_sheet,
)
from repro.vortex.problem import ODEProblem


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_sheet() -> tuple[ParticleSystem, SheetConfig]:
    cfg = SheetConfig(n=200)
    return spherical_vortex_sheet(cfg), cfg


@pytest.fixture
def random_cloud(rng) -> tuple[np.ndarray, np.ndarray]:
    """Random positions and vector charges for tree/direct comparisons."""
    n = 300
    positions = rng.normal(size=(n, 3))
    charges = rng.normal(size=(n, 3)) * 0.1
    return positions, charges


class NoChainKernel(SmoothingKernel):
    """A caller-supplied kernel that is neither algebraic nor singular,
    so it has no exact multipole radial chain."""

    name = "no-chain"

    def _profile(self, *args, **kwargs):
        raise NotImplementedError("not needed by the rejection tests")

    q = qprime = q_over_rho3 = w = f_g_from_r2 = _profile


@pytest.fixture
def no_chain_kernel() -> SmoothingKernel:
    return NoChainKernel()


class ScalarODE(ODEProblem):
    """Nonlinear scalar test problem u' = -u^2 + sin(3t), u(0) = 1."""

    def __init__(self) -> None:
        self.evals = 0

    def rhs(self, t: float, u: np.ndarray) -> np.ndarray:
        self.evals += 1
        return -u * u + np.sin(3.0 * t)


class LinearODE(ODEProblem):
    """Dahlquist-style linear system u' = A u with known solution."""

    def __init__(self, lam: complex = -1.0) -> None:
        self.matrix = np.array([[0.0, 1.0], [-4.0, -0.4]])

    def rhs(self, t: float, u: np.ndarray) -> np.ndarray:
        return self.matrix @ u

    def exact(self, t: float, u0: np.ndarray) -> np.ndarray:
        from scipy.linalg import expm

        return expm(self.matrix * t) @ u0


@pytest.fixture
def scalar_problem() -> ScalarODE:
    return ScalarODE()


@pytest.fixture
def linear_problem() -> LinearODE:
    return LinearODE()


@pytest.fixture
def vortex_problem(small_sheet) -> tuple[VortexProblem, np.ndarray, float]:
    ps, cfg = small_sheet
    prob = VortexProblem(
        ps.volumes, DirectEvaluator(get_kernel("algebraic6"), cfg.sigma)
    )
    return prob, ps.state(), cfg.sigma
