"""ODE-problem view of the vortex particle method.

The time integrators (RK, SDC, PFASST) see an initial value problem
``du/dt = f(t, u)`` over packed ``(2, N, 3)`` states.  The right-hand side
is delegated to a :class:`FieldEvaluator`, which is either

* :class:`DirectEvaluator` — exact O(N^2) summation (paper Sec. IV-A), or
* ``repro.tree.TreeEvaluator`` — Barnes-Hut with a multipole acceptance
  parameter ``theta`` (paper Sec. III-A).

PFASST's *particle-based spatial coarsening* consists of giving the coarse
level a ``VortexProblem`` whose evaluator uses a larger ``theta``: the state
space is unchanged, only the accuracy/cost of ``f`` differs.  Evaluators
count calls and accumulate wall-clock so the benchmark harness can measure
the fine/coarse cost ratio ``alpha`` that enters the speedup model.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from repro.obs.timing import Timer
from repro.utils.validation import check_array, check_positive
from repro.vortex.kernels import SmoothingKernel, get_kernel
from repro.vortex.particles import pack_state, unpack_state
from repro.vortex.rhs import StretchingScheme, VelocityField, biot_savart_direct

__all__ = ["FieldEvaluator", "DirectEvaluator", "VortexProblem", "ODEProblem"]


class ODEProblem(ABC):
    """Initial value problem interface consumed by every time integrator."""

    @abstractmethod
    def rhs(self, t: float, u: np.ndarray) -> np.ndarray:
        """Evaluate ``f(t, u)``; must return an array shaped like ``u``."""

    def norm(self, u: np.ndarray) -> float:
        """Norm used for residuals/errors (max norm by default)."""
        return float(np.max(np.abs(u))) if u.size else 0.0


class FieldEvaluator(ABC):
    """Computes the induced velocity field of a set of vortex particles."""

    def __init__(self) -> None:
        self.timer = Timer(name=type(self).__name__)
        self.calls = 0

    @abstractmethod
    def _evaluate(
        self, positions: np.ndarray, charges: np.ndarray, gradient: bool
    ) -> VelocityField:
        """Field of the given sources sampled at the source positions."""

    def field(
        self, positions: np.ndarray, charges: np.ndarray, gradient: bool = True
    ) -> VelocityField:
        """Timed, counted evaluation of velocity (and gradient).

        ``calls`` counts every request; ``timer`` only those that were
        computed — an evaluator that answers from a memo cancels the
        running activation (:meth:`repro.obs.timing.Timer.cancel`).
        """
        self.calls += 1
        with self.timer:
            return self._evaluate(positions, charges, gradient)

    @property
    def mean_cost(self) -> float:
        """Mean measured wall-clock seconds per computed evaluation."""
        return self.timer.mean

    def reset_stats(self) -> None:
        self.timer.reset()
        self.calls = 0


class DirectEvaluator(FieldEvaluator):
    """Exact O(N^2) summation evaluator."""

    def __init__(
        self,
        kernel: SmoothingKernel | str,
        sigma: float,
    ) -> None:
        super().__init__()
        self.kernel = get_kernel(kernel) if isinstance(kernel, str) else kernel
        self.sigma = check_positive("sigma", sigma)

    def _evaluate(
        self, positions: np.ndarray, charges: np.ndarray, gradient: bool
    ) -> VelocityField:
        return biot_savart_direct(
            positions,
            positions,
            charges,
            self.kernel,
            self.sigma,
            gradient=gradient,
        )


class VortexProblem(ODEProblem):
    """The vortex particle IVP (paper Eqs. 5-6) over packed states.

    Parameters
    ----------
    volumes : (N,)
        Constant particle volumes (incompressible flow).
    evaluator :
        Field evaluator used for ``f``; swap for a tree evaluator with a
        larger ``theta`` to obtain the paper's coarse propagator.
    scheme :
        Stretching scheme, ``"transpose"`` (paper) or ``"classical"``.
    """

    def __init__(
        self,
        volumes: np.ndarray,
        evaluator: FieldEvaluator,
        scheme: StretchingScheme = "transpose",
    ) -> None:
        self.volumes = check_array("volumes", volumes, shape=(None,), dtype=np.float64)
        self.evaluator = evaluator
        self.scheme: StretchingScheme = scheme

    @property
    def n(self) -> int:
        return self.volumes.shape[0]

    def rhs(self, t: float, u: np.ndarray) -> np.ndarray:
        positions, vorticity = unpack_state(u)
        if positions.shape[0] != self.n:
            raise ValueError(
                f"state carries {positions.shape[0]} particles, expected {self.n}"
            )
        charges = vorticity * self.volumes[:, None]
        field = self.evaluator.field(positions, charges, gradient=True)
        return pack_state(field.velocity, field.stretching(vorticity, self.scheme))

    def rhs_program(self, space, t: float, u: np.ndarray,
                    key: Optional[str]):
        """Generator form of :meth:`rhs`, collective over ``space``.

        The field solve is driven over the space ranks by the
        evaluator's ``field_program`` (see
        :class:`repro.tree.parallel.SpaceParallelTreeEvaluator`);
        :meth:`repro.sdc.sweeper.RhsContext.rhs` calls this only with a
        live communicator and such an evaluator.  ``key`` (this problem's
        key with the scheduler's execution backend) is handed on: the
        rank's far/near segment then runs as a ``Compute`` operation,
        while the branch exchange and the RHS allgather stay in the event
        loop — they are communication, not compute.
        """
        positions, vorticity = unpack_state(u)
        if positions.shape[0] != self.n:
            raise ValueError(
                f"state carries {positions.shape[0]} particles, expected {self.n}"
            )
        charges = vorticity * self.volumes[:, None]
        field = yield from self.evaluator.field_program(
            space, positions, charges, gradient=True, key=key,
        )
        return pack_state(field.velocity, field.stretching(vorticity, self.scheme))

    def field_segment(
        self,
        positions: np.ndarray,
        charges: np.ndarray,
        rank: int,
        p_space: int,
        gradient: bool = True,
    ):
        """One space rank's compact far/near field segment (dispatch unit).

        Thin forwarding method so a :class:`~repro.parallel.executor.
        ComputeTask` over this *registered problem* can name the
        evaluator's segment computation with a plain string method —
        the RPR006 process-safety contract.  Requires an evaluator
        exposing ``segment_field`` (the space-parallel tree evaluator).
        """
        return self.evaluator.segment_field(
            positions, charges, rank, p_space, gradient=gradient
        )

    def with_evaluator(self, evaluator: FieldEvaluator) -> "VortexProblem":
        """Same problem, different field evaluator (used for coarse levels)."""
        return VortexProblem(self.volumes, evaluator, self.scheme)

    def coarsened(self, theta: float) -> "VortexProblem":
        """The paper's particle coarsening: same problem, larger ``theta``.

        Requires a theta-aware evaluator (``repro.tree.TreeEvaluator``);
        the coarse evaluator shares the fine one's tree-state cache, so
        the pair runs one tree build + one moment pass per configuration.
        """
        coarsen = getattr(self.evaluator, "coarsened", None)
        if coarsen is None:
            raise TypeError(
                f"evaluator {type(self.evaluator).__name__} does not support "
                "theta coarsening; construct the coarse problem explicitly"
            )
        return self.with_evaluator(coarsen(theta))
