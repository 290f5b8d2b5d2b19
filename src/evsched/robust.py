"""Robust counterparts of the nominal model.

Two uncertainty mechanisms are supported:

* prices known only up to a Euclidean ball around a nominal vector: the
  worst case adds `radius * ||per-step totals||` to the objective, which
  the cutting-plane kernel minimizes over the unchanged constraint set;
* per-vehicle demand known only up to an interval: the worst case simply
  substitutes the upper bounds, then any model (nominal or price-robust)
  runs on the substituted scenario.

Only the objective is robustified for prices; constraints are certain, so
robust schedules remain feasible for the (worst-case-load) scenario.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    CostBreakdown,
    Method,
    Scenario,
    Schedule,
    ShapeMismatch,
    evaluate_cost,
)
from .nominal import schedule_from_x, scheduling_lp, unsolved, variable_index
from .solver import (
    NormAugmentedResult,
    NormAugmentedStatus,
    NumericalFailure,
    solve_norm_augmented,
)
from .solver.socp import GAP_ABS_TOL, GAP_REL_TOL, MAX_CUTS


@dataclass(frozen=True)
class PriceBall:
    """Euclidean uncertainty ball for the price vector."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        if center.ndim != 1:
            raise ValueError("center must be a vector")
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")
        center.setflags(write=False)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))

    @classmethod
    def around(cls, scenario: Scenario, radius: float) -> "PriceBall":
        return cls(center=scenario.prices, radius=radius)


@dataclass(frozen=True)
class LoadInterval:
    """Elementwise demand bounds 0 <= lower <= upper."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.shape != upper.shape:
            raise ShapeMismatch("lower and upper must have the same length")
        if (lower < 0).any():
            raise ValueError("lower bounds must be nonnegative")
        if (lower > upper).any():
            raise ValueError("interval requires lower <= upper elementwise")
        lower.setflags(write=False)
        upper.setflags(write=False)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)


@dataclass
class RobustResult:
    schedule: Schedule
    objective: float  # nominal-price cost + radius * ||per-step totals||
    nominal_cost: CostBreakdown
    per_step_totals: np.ndarray
    norm_value: float
    gap: float
    cuts: int
    pivots: int  # simplex pivots over every cutting-plane master
    converged: bool


def totals_map(
    scenario: Scenario, var_index: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """Linear map from LP variables to the per-step total vector whose
    norm the price ball penalizes: v_t = (1 + waste_t) * dt * sum_i Y[t][i]."""
    steps = var_index[0]
    M = np.zeros((scenario.horizon_steps, steps.size))
    factor = (1.0 + scenario.waste) * scenario.step_hours
    M[steps, np.arange(steps.size)] = factor[steps]
    return M


def optimize_robust_price(
    scenario: Scenario,
    ball: PriceBall,
    *,
    gap_abs_tol: float = GAP_ABS_TOL,
    gap_rel_tol: float = GAP_REL_TOL,
    max_cuts: int = MAX_CUTS,
) -> RobustResult:
    """Worst-case-price schedule for one scenario.

    The objective is center.v + radius * ||v|| over per-step totals v; the
    constraint set is the nominal one.  With radius 0 this reduces to the
    nominal LP exactly.
    """
    if ball.center.shape != (scenario.horizon_steps,):
        raise ShapeMismatch(
            f"ball center length {ball.center.size} != horizon "
            f"{scenario.horizon_steps}"
        )
    if not variable_index(scenario)[0].size:
        schedule = Schedule(
            allocation=np.zeros((scenario.horizon_steps, scenario.num_vehicles)),
            method=Method.ROBUST_PRICE,
            scenario_id=scenario.scenario_id,
        )
        return RobustResult(
            schedule=schedule,
            objective=0.0,
            nominal_cost=evaluate_cost(schedule, scenario),
            per_step_totals=np.zeros(scenario.horizon_steps),
            norm_value=0.0,
            gap=0.0,
            cuts=0,
            pivots=0,
            converged=True,
        )

    lp, var_index = scheduling_lp(scenario, prices=ball.center)
    M = totals_map(scenario, var_index)
    try:
        result = solve_norm_augmented(
            lp,
            ball.radius,
            M,
            gap_abs_tol=gap_abs_tol,
            gap_rel_tol=gap_rel_tol,
            max_cuts=max_cuts,
        )
    except NumericalFailure as exc:
        raise unsolved(scenario, str(exc)) from exc
    if result.status in (NormAugmentedStatus.INFEASIBLE, NormAugmentedStatus.UNBOUNDED):
        # phase one of the first master decides feasibility; the box bounds
        # the feasible set, so unbounded means a numerical failure
        raise unsolved(scenario, f"robust master reported {result.status.value}")
    return _package(scenario, result, M, var_index, Method.ROBUST_PRICE)


def robustify_load(scenario: Scenario, interval: LoadInterval) -> Scenario:
    """Scenario with demand replaced by its worst-case (upper) values.

    The caller is responsible for re-checking feasibility of the result.
    """
    if interval.upper.shape != (scenario.num_vehicles,):
        raise ShapeMismatch(
            f"interval length {interval.upper.size} != vehicles "
            f"{scenario.num_vehicles}"
        )
    return scenario.replace_load(interval.upper)


def optimize_robust_both(
    scenario: Scenario,
    ball: PriceBall,
    interval: LoadInterval,
    **kwargs,
) -> RobustResult:
    """Worst-case load substitution followed by the price-ball model."""
    worst = robustify_load(scenario, interval)
    result = optimize_robust_price(worst, ball, **kwargs)
    schedule = Schedule(
        allocation=result.schedule.allocation,
        method=Method.ROBUST_LOAD,
        scenario_id=scenario.scenario_id,
    )
    result.schedule = schedule
    return result


def _package(scenario, result: NormAugmentedResult, M, var_index, method) -> RobustResult:
    schedule = schedule_from_x(scenario, result.x, var_index, method)
    totals = M @ result.x
    return RobustResult(
        schedule=schedule,
        objective=float(result.objective),
        nominal_cost=evaluate_cost(schedule, scenario),
        per_step_totals=totals,
        norm_value=float(result.norm_value),
        gap=float(result.gap),
        cuts=result.cuts,
        pivots=result.pivots,
        converged=result.status is NormAugmentedStatus.OPTIMAL,
    )
