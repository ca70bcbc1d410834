"""Numerical laboratory for the two-species Vlasov-Poisson-Landau system."""

import os

# One BLAS thread unless the caller chose a count, set before numpy loads
# OpenBLAS: outputs depend on the thread count, and two were no faster
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from .grid import (
    PhaseGrid,
    build_grid,
    Maxwellian,
    maxwellian,
    VelocityWeight,
    NormSuite,
)
from .collision import (
    KernelTable,
    CollisionAssembly,
    assemble_sigma,
    coercivity_probe,
    GammaOp,
)
from .macroscopic import (
    MacroState,
    FieldState,
    MacroProjector,
    macro_state,
    solve_poisson,
    moment_residuals,
)
from .lineardecay import (
    ModeOperator,
    ModeTrajectory,
    evolve_mode,
    whole_space_decay,
)
from .solver import (
    TwoSpeciesField,
    PsiWeight,
    EnergyReport,
    Simulation,
    make_initial_data,
    energy_report,
    energy_inequality_monitor,
    smoothing_diagnostic,
)

__all__ = [
    "PhaseGrid", "build_grid", "Maxwellian", "maxwellian",
    "VelocityWeight", "NormSuite",
    "KernelTable", "CollisionAssembly", "assemble_sigma",
    "coercivity_probe", "GammaOp",
    "MacroState", "FieldState", "MacroProjector", "macro_state",
    "solve_poisson", "moment_residuals",
    "ModeOperator", "ModeTrajectory", "evolve_mode", "whole_space_decay",
    "TwoSpeciesField", "PsiWeight", "EnergyReport", "Simulation",
    "make_initial_data", "energy_report", "energy_inequality_monitor",
    "smoothing_diagnostic",
]

__version__ = "0.1.0"
