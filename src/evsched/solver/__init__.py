"""Generic optimization kernels: LP solver, max-flow, norm cutting planes."""

from .flow import Arc, FlowNetwork, max_flow_value
from .lp import (
    FEASIBILITY_TOL,
    GAP_REL_TOL,
    LinearProgram,
    LpSolution,
    LpStatus,
    NumericalFailure,
    solve_lp,
)
from .socp import (
    NormAugmentedResult,
    NormAugmentedStatus,
    solve_norm_augmented,
)

__all__ = [
    "Arc",
    "FlowNetwork",
    "max_flow_value",
    "FEASIBILITY_TOL",
    "GAP_REL_TOL",
    "LinearProgram",
    "LpSolution",
    "LpStatus",
    "NumericalFailure",
    "solve_lp",
    "NormAugmentedResult",
    "NormAugmentedStatus",
    "solve_norm_augmented",
]
