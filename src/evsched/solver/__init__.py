"""Generic optimization kernels: LP solver and norm cutting planes."""

from .lp import (
    FEASIBILITY_TOL,
    BasisStart,
    GAP_REL_TOL,
    LinearProgram,
    LpSolution,
    LpStatus,
    NumericalFailure,
    SolveStats,
    solve_lp,
)
from .socp import (
    NormAugmentedResult,
    NormAugmentedStatus,
    solve_norm_augmented,
)

__all__ = [
    "FEASIBILITY_TOL",
    "BasisStart",
    "GAP_REL_TOL",
    "LinearProgram",
    "LpSolution",
    "LpStatus",
    "NumericalFailure",
    "SolveStats",
    "solve_lp",
    "NormAugmentedResult",
    "NormAugmentedStatus",
    "solve_norm_augmented",
]
