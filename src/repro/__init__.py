"""repro — a massively space-time parallel N-body solver.

Reproduction of Speck, Ruprecht, Krause, Emmett, Minion, Winkel & Gibbon,
"A massively space-time parallel N-body solver" (SC 2012): the PFASST
parallel-in-time integrator coupled to a Barnes-Hut tree code for a 3D
vortex particle method, with particle-based spatial coarsening via the
multipole acceptance criterion.

Quickstart::

    from repro import (LevelSpec, PfasstConfig, SheetConfig, TreeEvaluator,
                       VortexProblem, run_pfasst, spherical_vortex_sheet)

    sheet = SheetConfig(n=2000)
    particles = spherical_vortex_sheet(sheet)
    fine = VortexProblem(particles.volumes,
                         TreeEvaluator("algebraic6", sheet.sigma, theta=0.3))
    coarse = fine.coarsened(theta=0.6)  # MAC coarsening, shared tree
    config = PfasstConfig(t0=0.0, t_end=2.0, n_steps=4, iterations=2)
    specs = [LevelSpec(fine, num_nodes=3, sweeps=1),
             LevelSpec(coarse, num_nodes=2, sweeps=2)]
    result = run_pfasst(config, specs, particles.state(), p_time=4)

Packages
--------
``repro.vortex``    vortex particle method (kernels, RHS, initial data)
``repro.tree``      Barnes-Hut tree code ("PEPC")
``repro.backends``  the tree engine's near-pass batch seam (serial NumPy)
                    and the e2e probe's thread-pool backend
``repro.sdc``       spectral deferred corrections
``repro.pfasst``    PFASST parallel-in-time method and its speedup theory
``repro.parallel``  deterministic simulated MPI
``repro.integrators`` classical Runge-Kutta baselines
"""

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
