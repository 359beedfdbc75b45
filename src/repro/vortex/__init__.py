"""Vortex particle method: kernels, states, direct RHS, initial conditions.

This package implements the model problem of Sec. II of the paper — the 3D
vortex particle discretisation of the incompressible Euler equations in
vorticity-velocity form — as a reusable substrate for the space-time
parallel solver.
"""

from repro.vortex.kernels import (
    SmoothingKernel,
    SecondOrderAlgebraic,
    SixthOrderAlgebraic,
    SingularKernel,
    get_kernel,
    available_kernels,
)
from repro.vortex.particles import (
    ParticleSystem,
    pack_state,
    unpack_state,
)
from repro.vortex.rhs import VelocityField, biot_savart_direct
from repro.vortex.sheet import (
    SheetConfig,
    spherical_vortex_sheet,
    sphere_points,
    SIGMA_OVER_H,
)
from repro.vortex.diagnostics import (
    FlowDiagnostics,
    compute_diagnostics,
    total_vorticity,
    linear_impulse,
    angular_impulse,
    enstrophy,
)
from repro.vortex.problem import (
    ODEProblem,
    FieldEvaluator,
    DirectEvaluator,
    VortexProblem,
)

__all__ = [
    "SmoothingKernel",
    "SecondOrderAlgebraic",
    "SixthOrderAlgebraic",
    "SingularKernel",
    "get_kernel",
    "available_kernels",
    "ParticleSystem",
    "pack_state",
    "unpack_state",
    "VelocityField",
    "biot_savart_direct",
    "SheetConfig",
    "spherical_vortex_sheet",
    "sphere_points",
    "SIGMA_OVER_H",
    "FlowDiagnostics",
    "compute_diagnostics",
    "total_vorticity",
    "linear_impulse",
    "angular_impulse",
    "enstrophy",
    "ODEProblem",
    "FieldEvaluator",
    "DirectEvaluator",
    "VortexProblem",
]
