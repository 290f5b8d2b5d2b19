"""Generic optimization kernels: LP solver and norm cutting planes."""

from .lp import (
    DUALITY_GAP_TOL,
    FEASIBILITY_TOL,
    BasisStart,
    Infeasible,
    LinearProgram,
    LpSolution,
    NumericalFailure,
    SolveStats,
    solve_lp,
)
from .socp import (
    NormAugmentedResult,
    NormAugmentedStatus,
    certify,
    solve_norm_augmented,
)

__all__ = [
    "DUALITY_GAP_TOL",
    "FEASIBILITY_TOL",
    "BasisStart",
    "Infeasible",
    "LinearProgram",
    "LpSolution",
    "NumericalFailure",
    "SolveStats",
    "solve_lp",
    "NormAugmentedResult",
    "NormAugmentedStatus",
    "certify",
    "solve_norm_augmented",
]
