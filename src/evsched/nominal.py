"""The allocation LP of one scenario and its feasibility diagnostics.

The allocation problem is an LP over the variables Y[t][i] for the
(step, vehicle) pairs where the vehicle is present: minimize the summed
step costs subject to demand satisfaction, the station power budget and
per-socket limits (`robust.solve` runs it for every method).  Phase one
of the simplex decides whether a schedule meeting all demand exists.
Only when it finds none does `check_feasibility` run (per-vehicle window
capacity plus an aggregate max-flow test), to explain why in the
`InfeasibleScenario` it raises; infeasible scenarios are a hard error
because silently under-delivering would corrupt every cost comparison
downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import FEAS_TOL, Method, Scenario, Schedule
from .solver import Arc, FlowNetwork, LinearProgram, NumericalFailure, max_flow_value


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


def scheduling_network(scenario: Scenario) -> FlowNetwork:
    """Equivalent transportation network.

    Node layout: 0 = source, 1..N = vehicles, N+1..N+T = steps, N+T+1 = sink.
    Source->vehicle arcs carry each demand, vehicle->step arcs the socket
    limit at the step's unit cost, step->sink arcs the station budget.
    """
    T, n = scenario.horizon_steps, scenario.num_vehicles
    delta = scenario.step_hours
    step_cost = scenario.prices * (1.0 + scenario.waste) * delta
    arcs: list[Arc] = []
    for i in range(n):
        arcs.append(Arc(0, 1 + i, float(scenario.load[i])))
    for i in range(n):
        for t in np.flatnonzero(scenario.occupancy[:, i]):
            arcs.append(
                Arc(
                    1 + i,
                    1 + n + int(t),
                    float(scenario.socket_limit[t]),
                    float(step_cost[t]),
                )
            )
    for t in range(T):
        arcs.append(Arc(1 + n + t, 1 + n + T, float(scenario.capacity[t])))
    return FlowNetwork(num_nodes=n + T + 2, source=0, sink=1 + n + T, arcs=tuple(arcs))


def check_feasibility(scenario: Scenario, tol: float = FEAS_TOL) -> FeasibilityReport:
    """Can all demand be met?  Per-vehicle window capacity check plus the
    aggregate max-flow test on the transportation network."""
    slack = scenario.occupancy.T.astype(float) @ scenario.socket_limit - scenario.load
    total = float(scenario.load.sum())
    flow = max_flow_value(scheduling_network(scenario))
    feasible = bool(flow >= total - tol and (slack >= -tol).all())
    return FeasibilityReport(
        feasible=feasible,
        per_vehicle_slack=slack,
        max_flow=flow,
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


def unsolved(scenario: Scenario, detail: str) -> RuntimeError:
    """The error for a solve that ended without a certified optimum: the
    max-flow test decides whether the day is infeasible, and if it finds
    the day feasible the solver failed."""
    report = check_feasibility(scenario)
    if report.feasible:
        return NumericalFailure(
            f"scenario {scenario.scenario_id!r}: {detail}, but max-flow finds "
            "it feasible"
        )
    return InfeasibleScenario(scenario.scenario_id, report)
