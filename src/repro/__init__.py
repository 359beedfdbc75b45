"""repro — a massively space-time parallel N-body solver.

Reproduction of Speck, Ruprecht, Krause, Emmett, Minion, Winkel & Gibbon,
"A massively space-time parallel N-body solver" (SC 2012): the PFASST
parallel-in-time integrator coupled to a Barnes-Hut tree code for a 3D
vortex particle method, with particle-based spatial coarsening via the
multipole acceptance criterion.

Quickstart::

    from repro import (SpaceTimeSolver, SolverConfig, SpaceConfig,
                       TimeConfig, spherical_vortex_sheet, SheetConfig)

    sheet = SheetConfig(n=2000)
    particles = spherical_vortex_sheet(sheet)
    config = SolverConfig(
        space=SpaceConfig(evaluator="tree", theta=0.3, theta_coarse=0.6),
        time=TimeConfig(method="pfasst", t_end=2.0, dt=0.5,
                        iterations=2, coarse_sweeps=2, p_time=4),
    )
    result = SpaceTimeSolver(particles, sheet.sigma, config).run()

Packages
--------
``repro.vortex``    vortex particle method (kernels, RHS, initial data)
``repro.tree``      Barnes-Hut tree code ("PEPC")
``repro.backends``  kernel backends for the tree engine (numpy / threaded)
``repro.sdc``       spectral deferred corrections
``repro.pfasst``    PFASST parallel-in-time method and its speedup theory
``repro.parallel``  deterministic simulated MPI
``repro.integrators`` classical Runge-Kutta baselines
"""

from repro.core import (
    SolverConfig,
    SpaceConfig,
    TimeConfig,
    SpaceTimeSolver,
    RunResult,
)
from repro.vortex import (
    ParticleSystem,
    SheetConfig,
    spherical_vortex_sheet,
    get_kernel,
    DirectEvaluator,
    VortexProblem,
)
from repro.tree import TreeEvaluator, build_octree
from repro.sdc import SDCStepper
from repro.pfasst import LevelSpec, PfasstConfig, run_pfasst

__version__ = "1.0.0"

__all__ = [
    "SolverConfig",
    "SpaceConfig",
    "TimeConfig",
    "SpaceTimeSolver",
    "RunResult",
    "ParticleSystem",
    "SheetConfig",
    "spherical_vortex_sheet",
    "get_kernel",
    "DirectEvaluator",
    "VortexProblem",
    "TreeEvaluator",
    "build_octree",
    "SDCStepper",
    "LevelSpec",
    "PfasstConfig",
    "run_pfasst",
    "__version__",
]
