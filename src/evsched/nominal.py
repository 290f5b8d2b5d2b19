"""The allocation LP of one scenario and its feasibility report.

The allocation problem is an LP over the variables Y[t][i] for the
(step, vehicle) pairs where the vehicle is present: minimize the summed
step costs subject to demand satisfaction, the station power budget and
per-socket limits (`robust.solve` runs it for every method).  Phase one
of the simplex decides whether a schedule meeting all demand exists, and
its optimum says by how much a day falls short: at Y = 0 only the demand
rows are violated, so the least artificial sum is the least total
shortfall, and total load minus it is the max-flow of the equivalent
transportation network (max-flow/min-cut, Ford & Fulkerson 1956).
Infeasible scenarios are a hard error because silently under-delivering
would corrupt every cost comparison downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Method, Scenario, Schedule
from .solver import LinearProgram, LpSolution
from .solver.lp import _Simplex


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    per_vehicle_slack: np.ndarray  # window socket capacity minus demand
    max_flow: float
    total_load: float

    def __str__(self):
        verdict = "feasible" if self.feasible else "INFEASIBLE"
        worst = float(self.per_vehicle_slack.min(initial=np.inf))
        return (
            f"{verdict}: max-flow {self.max_flow:.6g} vs total load "
            f"{self.total_load:.6g}, tightest per-vehicle slack {worst:.6g} kW"
        )


class InfeasibleScenario(RuntimeError):
    def __init__(self, scenario_id: str, report: FeasibilityReport):
        super().__init__(f"scenario {scenario_id!r} is infeasible ({report})")
        self.scenario_id = scenario_id
        self.report = report


def variable_index(scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """(steps, vehicles) index arrays of the pairs that get an LP variable,
    vehicle-major.

    Only in-window entries are instantiated; everything else is fixed 0.
    """
    vehicles, steps = np.nonzero(scenario.occupancy.T)
    return steps, vehicles


def check_feasibility(scenario: Scenario) -> FeasibilityReport:
    """Can all demand be met?  Runs phase one of the allocation LP alone,
    the test that `robust.solve` applies to every day."""
    simplex = _Simplex(scheduling_lp(scenario)[0])
    simplex.build_initial_basis()
    return _phase_one_report(scenario, simplex.phase_one())


def _phase_one_report(scenario: Scenario,
                      infeasible: LpSolution | None) -> FeasibilityReport:
    """The report of a phase one on `scheduling_lp(scenario)` that returned
    `infeasible`, None when it found a feasible point."""
    slack = scenario.occupancy.T.astype(float) @ scenario.socket_limit - scenario.load
    total = float(scenario.load.sum())
    shortfall = 0.0 if infeasible is None else infeasible.objective_value
    return FeasibilityReport(
        feasible=infeasible is None,
        per_vehicle_slack=slack,
        max_flow=total - shortfall,
        total_load=total,
    )


def scheduling_lp(
    scenario: Scenario,
) -> tuple[LinearProgram, tuple[np.ndarray, np.ndarray]]:
    """Build the allocation LP and its variable index."""
    var_index = steps, vehicles = variable_index(scenario)
    T, n = scenario.horizon_steps, scenario.num_vehicles
    k = np.arange(steps.size)
    unit_cost = scenario.prices * (1.0 + scenario.waste) * scenario.step_hours

    G = np.zeros((n + T, k.size))
    G[vehicles, k] = -1.0  # demand row, as -sum(Y) <= -L
    G[n + steps, k] = 1.0  # capacity row
    h = np.concatenate([-scenario.load, scenario.capacity])
    lp = LinearProgram(c=unit_cost[steps], G=G, h=h, lo=np.zeros(k.size),
                       up=scenario.socket_limit[steps])
    return lp, var_index


def schedule_from_x(
    scenario: Scenario,
    x: np.ndarray,
    var_index: tuple[np.ndarray, np.ndarray],
    method: Method,
) -> Schedule:
    steps, vehicles = var_index
    y = np.zeros((scenario.horizon_steps, scenario.num_vehicles))
    y[steps, vehicles] = np.clip(x, 0.0, scenario.socket_limit[steps])
    return Schedule(allocation=y, method=method, scenario_id=scenario.scenario_id)
