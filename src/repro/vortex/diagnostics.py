"""Flow diagnostics and conserved quantities for vortex particle ensembles.

For an unbounded, inviscid flow the following integrals are invariants of
the continuous dynamics and serve as accuracy monitors of the discrete
solver (Cottet & Koumoutsakos 2000, Ch. 1):

* total vorticity      ``Omega = sum_p alpha_p``              (exactly conserved)
* linear impulse       ``I = (1/2) sum_p x_p x alpha_p``
* angular impulse      ``A = (1/3) sum_p x_p x (x_p x alpha_p)``

The enstrophy reported here is a particle-quadrature approximation of the
field integral; it is useful for *relative* drift monitoring rather than
as an absolute value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.vortex.particles import ParticleSystem

__all__ = [
    "total_vorticity",
    "linear_impulse",
    "angular_impulse",
    "enstrophy",
    "FlowDiagnostics",
    "compute_diagnostics",
]


def total_vorticity(ps: ParticleSystem) -> np.ndarray:
    """``sum_p alpha_p`` — exactly conserved by any consistent scheme."""
    return ps.charges.sum(axis=0)


def linear_impulse(ps: ParticleSystem) -> np.ndarray:
    """Linear impulse ``(1/2) sum_p x_p x alpha_p``."""
    return 0.5 * np.cross(ps.positions, ps.charges).sum(axis=0)


def angular_impulse(ps: ParticleSystem) -> np.ndarray:
    """Angular impulse ``(1/3) sum_p x_p x (x_p x alpha_p)``."""
    inner = np.cross(ps.positions, ps.charges)
    return np.cross(ps.positions, inner).sum(axis=0) / 3.0


def enstrophy(ps: ParticleSystem) -> float:
    """Particle-quadrature enstrophy ``sum_p |omega_p|^2 vol_p``."""
    return float(np.einsum("ni,ni,n->", ps.vorticity, ps.vorticity, ps.volumes))


@dataclass(frozen=True)
class FlowDiagnostics:
    """Snapshot of the invariants at one time instant."""

    time: float
    total_vorticity: np.ndarray
    linear_impulse: np.ndarray
    angular_impulse: np.ndarray
    enstrophy: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "time": self.time,
            "total_vorticity_norm": float(np.linalg.norm(self.total_vorticity)),
            "linear_impulse_norm": float(np.linalg.norm(self.linear_impulse)),
            "angular_impulse_norm": float(np.linalg.norm(self.angular_impulse)),
            "enstrophy": self.enstrophy,
        }


def compute_diagnostics(ps: ParticleSystem, time: float = 0.0) -> FlowDiagnostics:
    """Evaluate all cheap (O(N)) invariants of a particle system."""
    return FlowDiagnostics(
        time=time,
        total_vorticity=total_vorticity(ps),
        linear_impulse=linear_impulse(ps),
        angular_impulse=angular_impulse(ps),
        enstrophy=enstrophy(ps),
    )
