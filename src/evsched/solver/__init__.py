"""Generic optimization kernels: LP solver and norm cutting planes."""

from .lp import (
    FEASIBILITY_TOL,
    BasisStart,
    Infeasible,
    LinearProgram,
    LpSolution,
    NumericalFailure,
    SolveStats,
    certify,
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
    "Infeasible",
    "LinearProgram",
    "LpSolution",
    "NumericalFailure",
    "SolveStats",
    "certify",
    "solve_lp",
    "NormAugmentedResult",
    "NormAugmentedStatus",
    "solve_norm_augmented",
]
