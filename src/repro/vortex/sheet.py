"""Spherical vortex sheet initial condition (paper Sec. II, Eqs. 7-8).

``N`` particles are placed on the unit sphere and given the vorticity

    omega(theta, phi) = (3/8pi) sin(theta) e_phi,

the initial condition for potential flow past a sphere with unit free-stream
velocity along ``-z`` (Winckelmans et al. 1996).  Particle spacing, volume
and core radius follow the paper:

    h = sqrt(4 pi / N),   vol_p = h,   sigma ~= 18.53 h.

The paper does not specify the point distribution on the sphere; we use
the Fibonacci (golden-spiral) lattice, which is deterministic and nearly
equal-area.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro.utils.validation import check_positive
from repro.vortex.particles import ParticleSystem

__all__ = ["SheetConfig", "spherical_vortex_sheet", "sphere_points"]

#: core-size-to-spacing ratio used throughout the paper
SIGMA_OVER_H = 18.53


@dataclass(frozen=True)
class SheetConfig:
    """Parameters of the spherical vortex sheet setup.

    ``placement`` names the point set: ``"fibonacci"`` is the only one,
    :func:`spherical_vortex_sheet` raises ``ValueError`` on any other.
    """

    n: int = 1000
    radius: float = 1.0
    sigma_over_h: float = SIGMA_OVER_H
    placement: Literal["fibonacci"] = "fibonacci"

    @property
    def h(self) -> float:
        """Inter-particle spacing ``h = sqrt(4 pi / N)`` (paper Eq. 8)."""
        return float(np.sqrt(4.0 * np.pi / self.n))

    @property
    def sigma(self) -> float:
        """Smoothing core size ``sigma = sigma_over_h * h``."""
        return self.sigma_over_h * self.h


def sphere_points(n: int) -> np.ndarray:
    """Golden-spiral lattice of ``n`` points on the unit sphere, (n, 3)."""
    if n < 1:
        raise ValueError(f"need n >= 1 points, got {n}")
    k = np.arange(n, dtype=np.float64)
    # offset 0.5 avoids placing points exactly at the poles
    z = 1.0 - 2.0 * (k + 0.5) / n
    phi = k * (np.pi * (3.0 - np.sqrt(5.0)))  # golden angle
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([s * np.cos(phi), s * np.sin(phi), z])


def spherical_vortex_sheet(config: SheetConfig | None = None, **kwargs) -> ParticleSystem:
    """Build the spherical vortex sheet particle system.

    Accepts either a :class:`SheetConfig` or its keyword arguments.

    >>> ps = spherical_vortex_sheet(n=100)
    >>> ps.n
    100
    """
    if config is None:
        config = SheetConfig(**kwargs)
    elif kwargs:
        raise TypeError("pass either a SheetConfig or keyword arguments, not both")
    check_positive("radius", config.radius)
    check_positive("sigma_over_h", config.sigma_over_h)
    if config.placement != "fibonacci":
        raise ValueError(f"unknown placement {config.placement!r}")

    unit = sphere_points(config.n)
    positions = config.radius * unit

    # spherical angles of each particle
    z = np.clip(unit[:, 2], -1.0, 1.0)
    theta = np.arccos(z)  # polar angle from +z
    phi = np.arctan2(unit[:, 1], unit[:, 0])

    # omega = (3/8pi) sin(theta) e_phi, e_phi = (-sin phi, cos phi, 0)
    magnitude = 3.0 / (8.0 * np.pi) * np.sin(theta)
    e_phi = np.column_stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)])
    vorticity = magnitude[:, None] * e_phi

    # paper Eq. 8: each particle carries volume h (taken literally)
    volumes = np.full(config.n, config.h, dtype=np.float64)
    return ParticleSystem(positions, vorticity, volumes)
