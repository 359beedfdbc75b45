"""Particle state containers for the vortex method.

The time integrators (SDC, PFASST) operate on plain ``float64`` ndarrays
so that quadrature and FAS algebra stay vectorised and state-agnostic.  A
vortex particle ensemble is packed as an array of shape ``(2, N, 3)``::

    u[0] = particle positions  x_p      (advected, paper Eq. 5)
    u[1] = particle vorticity  omega_p  (stretched, paper Eq. 6)

Particle volumes ``vol_p`` are *constant* along an inviscid trajectory (the
flow is incompressible), so they live on the problem object, not in the
state vector.  ``alpha_p = omega_p * vol_p`` is the vector charge entering
the Biot-Savart sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from repro.utils.validation import check_array

__all__ = ["ParticleSystem", "pack_state", "unpack_state"]


def pack_state(positions: np.ndarray, vorticity: np.ndarray) -> np.ndarray:
    """Stack positions and vorticity into the canonical (2, N, 3) state."""
    positions = check_array("positions", positions, shape=(None, 3), dtype=np.float64)
    vorticity = check_array("vorticity", vorticity, shape=(None, 3), dtype=np.float64)
    if positions.shape != vorticity.shape:
        raise ValueError(
            f"positions {positions.shape} and vorticity {vorticity.shape} "
            "must have identical shapes"
        )
    out = np.empty((2,) + positions.shape, dtype=np.float64)
    out[0], out[1] = positions, vorticity
    return out


def unpack_state(u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(positions, vorticity)`` views of a packed state."""
    u = np.asarray(u)
    if u.ndim != 3 or u.shape[0] != 2 or u.shape[2] != 3:
        raise ValueError(f"state must have shape (2, N, 3), got {u.shape}")
    return u[0], u[1]


@dataclass
class ParticleSystem:
    """A named bundle of particle arrays with convenience constructors.

    Attributes
    ----------
    positions : (N, 3) float64
    vorticity : (N, 3) float64
    volumes   : (N,) float64
        Quadrature volume attached to each particle.
    """

    positions: np.ndarray
    vorticity: np.ndarray
    volumes: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.positions = check_array(
            "positions", self.positions, shape=(None, 3), dtype=np.float64
        )
        n = self.positions.shape[0]
        self.vorticity = check_array(
            "vorticity", self.vorticity, shape=(n, 3), dtype=np.float64
        )
        if self.volumes is None:
            self.volumes = np.ones(n, dtype=np.float64)
        self.volumes = check_array("volumes", self.volumes, shape=(n,), dtype=np.float64)
        if np.any(self.volumes < 0):
            raise ValueError("volumes must be non-negative")

    @property
    def n(self) -> int:
        """Number of particles."""
        return self.positions.shape[0]

    @property
    def charges(self) -> np.ndarray:
        """Vector charges ``alpha_p = omega_p vol_p``, shape (N, 3)."""
        return self.vorticity * self.volumes[:, None]

    def state(self) -> np.ndarray:
        """Packed (2, N, 3) integration state (copies the arrays)."""
        return pack_state(self.positions.copy(), self.vorticity.copy())

    def with_state(self, u: np.ndarray) -> "ParticleSystem":
        """New system with positions/vorticity replaced from a state."""
        x, w = unpack_state(u)
        if x.shape[0] != self.n:
            raise ValueError(
                f"state has {x.shape[0]} particles, system has {self.n}"
            )
        return ParticleSystem(x.copy(), w.copy(), self.volumes.copy())

    def copy(self) -> "ParticleSystem":
        return ParticleSystem(
            self.positions.copy(), self.vorticity.copy(), self.volumes.copy()
        )

    def bounding_box(self) -> Tuple[np.ndarray, np.ndarray]:
        """Axis-aligned bounding box ``(lower, upper)`` of the positions."""
        return self.positions.min(axis=0), self.positions.max(axis=0)
