"""PFASST: parallel full approximation scheme in space and time."""

from repro.pfasst.level import Level, LevelSpec, paper_levels
from repro.pfasst.transfer import TimeSpaceTransfer
from repro.pfasst.fas import fas_correction
from repro.pfasst.controller import (
    PfasstConfig,
    PfasstResult,
    run_pfasst,
    pfasst_rank_program,
)
from repro.pfasst.checkpoint import (
    RunCheckpoint,
    RunCheckpointer,
    snapshot_levels,
    adopt_levels,
)
from repro.pfasst.theory import (
    speedup_two_level,
    efficiency_two_level,
    speedup_bound,
    parareal_speedup,
    alpha_from_measurements,
    measured_cost_ratio,
)
from repro.pfasst.analysis import (
    sdc_stability,
    sdc_sweep_matrices,
)

__all__ = [
    "Level",
    "LevelSpec",
    "paper_levels",
    "TimeSpaceTransfer",
    "fas_correction",
    "PfasstConfig",
    "PfasstResult",
    "run_pfasst",
    "pfasst_rank_program",
    "RunCheckpoint",
    "RunCheckpointer",
    "snapshot_levels",
    "adopt_levels",
    "speedup_two_level",
    "efficiency_two_level",
    "speedup_bound",
    "parareal_speedup",
    "alpha_from_measurements",
    "measured_cost_ratio",
    "sdc_stability",
    "sdc_sweep_matrices",
]
