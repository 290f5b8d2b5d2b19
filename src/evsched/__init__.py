"""evsched: cost-minimal EV charging schedules over a daily horizon.

Builds per-day scheduling scenarios from session and price data, computes
certified-optimal power allocations (plus robust variants under price and
load uncertainty), and compares them against a First-Come-First-Served
baseline.
"""

__version__ = "0.1.0"

from .baseline import FcfsResult, fcfs_schedule, fcfs_with_report
from .model import (
    CostBreakdown,
    Method,
    Scenario,
    Schedule,
    ShapeMismatch,
    ValidationReport,
    Violation,
    ViolationKind,
    evaluate_cost,
    occupancy_from_windows,
    validate_schedule,
)
from .nominal import FeasibilityReport, InfeasibleScenario, check_feasibility
from .robust import SolveResult, solve

__all__ = [
    "__version__",
    "CostBreakdown",
    "Method",
    "Scenario",
    "Schedule",
    "ShapeMismatch",
    "ValidationReport",
    "Violation",
    "ViolationKind",
    "evaluate_cost",
    "occupancy_from_windows",
    "validate_schedule",
    "FcfsResult",
    "fcfs_schedule",
    "fcfs_with_report",
    "FeasibilityReport",
    "InfeasibleScenario",
    "check_feasibility",
    "SolveResult",
    "solve",
]
