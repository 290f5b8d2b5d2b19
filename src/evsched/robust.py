"""One solve entry point for every optimizer.

Each method minimizes `prices . v + radius * ||v||` over the per-step
totals v of the allocation LP, by the cutting-plane kernel:

* nominal is radius 0, where the kernel solves the plain LP;
* robust-price takes prices known only up to a Euclidean ball of the given
  radius around the scenario's prices; the norm term is the worst case
  over that ball (the Ben-Tal & Nemirovski ball counterpart);
* robust-load takes demand known only up to the interval
  [load, load * load_scale]; the worst case substitutes the upper bound,
  then runs the price-ball model.

Only the objective is robustified for prices; constraints are certain, so
robust schedules remain feasible for the (worst-case-load) scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import CostBreakdown, Method, Scenario, Schedule, evaluate_cost
from .nominal import (
    InfeasibleScenario,
    _phase_one_report,
    least_cost_start,
    schedule_from_x,
    scheduling_lp,
)
from .solver import Infeasible, NormAugmentedStatus, SolveStats, solve_norm_augmented


@dataclass
class SolveResult:
    """One optimizer run; `cost` is the schedule's cost at the nominal prices."""

    schedule: Schedule
    cost: CostBreakdown
    objective: float  # nominal-price cost + radius * ||per-step totals||
    gap: float  # cutting-plane upper minus lower bound (0 for an LP)
    cuts: int
    stats: SolveStats  # the simplex's counters over every LP the solve ran
    converged: bool  # False when the cut limit stopped the loop
    polished: bool  # the loop stopped on a certified polish of a master's face


def check_options(method: Method | str, radius: float, load_scale: float) -> Method:
    """The optimizer named by `method`; ValueError on FCFS, a negative or
    non-finite radius, or a non-finite load scale below 1."""
    method = Method(method)
    if method is Method.FCFS:
        raise ValueError("fcfs is a baseline, not an optimizer")
    if not 0.0 <= radius < math.inf:
        raise ValueError(f"radius must be finite and nonnegative, got {radius}")
    if not 1.0 <= load_scale < math.inf:
        raise ValueError(f"load_scale must be finite and >= 1, got {load_scale}")
    return method


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


def solve(
    scenario: Scenario,
    method: Method = Method.NOMINAL,
    *,
    radius: float = 0.0,
    load_scale: float = 1.0,
) -> SolveResult:
    """Optimal schedule for one scenario under `method`.

    `radius` applies to the robust methods and `load_scale` to robust-load.
    Raises InfeasibleScenario, carrying phase one's report, when demand
    cannot be met, and NumericalFailure when the solver cannot certify
    its result.
    """
    method = check_options(method, radius, load_scale)
    if method is Method.NOMINAL:
        radius = 0.0
    elif method is Method.ROBUST_LOAD:
        scenario = replace(scenario, load=scenario.load * load_scale)
    lp, var_index = scheduling_lp(scenario)
    # at radius 0 the norm has no weight, so it gets a map with no rows
    norm_map = totals_map(scenario, var_index) if radius else np.empty((0, lp.num_vars))
    try:
        result = solve_norm_augmented(lp, radius, norm_map,
                                      start=least_cost_start(scenario, var_index))
    except Infeasible as exc:
        raise InfeasibleScenario(scenario.scenario_id,
                                 _phase_one_report(scenario, exc.shortfall)) from exc
    schedule = schedule_from_x(scenario, result.x, var_index, method)
    return SolveResult(
        schedule=schedule,
        cost=evaluate_cost(schedule, scenario),
        objective=float(result.objective),
        gap=float(result.gap),
        cuts=result.cuts,
        stats=result.stats,
        converged=result.status is NormAugmentedStatus.OPTIMAL,
        polished=result.polished,
    )
