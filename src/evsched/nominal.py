"""The allocation LP of one scenario and its feasibility report.

The allocation problem is an LP over the variables Y[t][i] for the
(step, vehicle) pairs where the vehicle is present: minimize the summed
step costs subject to demand satisfaction, the station power budget and
per-socket limits (`robust.solve` runs it for every method).  Every solve
of it starts from the least-cost greedy allocation (`least_cost_start`),
the starting solution of the transportation simplex (Dantzig 1951); on a
day whose station budget does not bind, that start is already optimal,
and its u-v potentials certify it without a simplex.

A start that meets every demand is feasible.  Otherwise phase one of the
simplex decides whether a schedule meeting all demand exists, and its
optimum says by how much a day falls short.  At the start only the demand
rows the greedy leaves short are violated, and the least artificial sum
is the least total shortfall: augmenting paths never take flow from a
vehicle, so the greedy flow grows into a maximum flow that still meets
every demand it met.  Total load minus the shortfall is the max-flow of
the equivalent transportation network (max-flow/min-cut, Ford & Fulkerson
1956).  Infeasible scenarios are a hard error because silently
under-delivering would corrupt every cost comparison downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Method, Scenario, Schedule, greedy_fill
from .solver import BasisStart, Infeasible, LinearProgram
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
    """Can all demand be met?  Yes where the least-cost start meets it all;
    otherwise phase one of the allocation LP decides, as in `robust.solve`."""
    start = least_cost_start(scenario, variable_index(scenario))
    if start.duals is None:  # the greedy leaves a demand short
        simplex = _Simplex(scheduling_lp(scenario)[0])
        simplex.build_initial_basis(start)
        try:
            simplex.phase_one()
        except Infeasible as exc:
            return _phase_one_report(scenario, exc.shortfall)
    return _phase_one_report(scenario, None)


def _phase_one_report(scenario: Scenario, shortfall: float | None) -> FeasibilityReport:
    """The report of a phase one on `scheduling_lp(scenario)` whose least
    artificial sum is `shortfall`, None when it found a feasible point."""
    slack = scenario.occupancy.T.astype(float) @ scenario.socket_limit - scenario.load
    total = float(scenario.load.sum())
    return FeasibilityReport(
        feasible=shortfall is None,
        per_vehicle_slack=slack,
        max_flow=total if shortfall is None else total - shortfall,
        total_load=total,
    )


def scheduling_lp(
    scenario: Scenario,
) -> tuple[LinearProgram, tuple[np.ndarray, np.ndarray]]:
    """Build the allocation LP and its variable index."""
    var_index = steps, vehicles = variable_index(scenario)
    T, n = scenario.horizon_steps, scenario.num_vehicles
    k = np.arange(steps.size)

    G = np.zeros((n + T, k.size))
    G[vehicles, k] = -1.0  # demand row, as -sum(Y) <= -L
    G[n + steps, k] = 1.0  # capacity row
    h = np.concatenate([-scenario.load, scenario.capacity])
    lp = LinearProgram(c=_unit_cost(scenario)[steps], G=G, h=h, lo=np.zeros(k.size),
                       up=scenario.socket_limit[steps])
    return lp, var_index


def _unit_cost(scenario: Scenario) -> np.ndarray:
    return scenario.prices * (1.0 + scenario.waste) * scenario.step_hours


def least_cost_start(
    scenario: Scenario, var_index: tuple[np.ndarray, np.ndarray]
) -> BasisStart:
    """The least-cost greedy starting basis of `scheduling_lp(scenario)`.

    Each vehicle, in index order, fills its in-window steps cheapest first
    (ties to the earlier step), each by the least of the socket limit, its
    unmet demand and the station budget still unused.  A fill at the
    socket limit rests at its upper bound; a fill cut short by the budget
    is basic in that step's capacity row, and one cut short by the demand
    in the vehicle's demand row.  Every other row keeps its slack, or an
    artificial where the greedy leaves a demand short.

    A capacity row is named by the fill that empties its budget, so only
    earlier vehicles charge at that step; a demand row is named by its
    vehicle's last fill.  Following named columns around a cycle would
    then need ever smaller vehicle indices, so the named columns and the
    slacks form a spanning forest of the transportation network: the
    basis is invertible.

    Its row multipliers, the u-v potentials of the transportation simplex,
    are 0 where a slack is basic, lam[n + t] = lam[i] - c for a fill basic
    in step t's capacity row and lam[i] = c + lam[n + t] for one in vehicle
    i's demand row; set from the last fill back, each finds the one it needs
    already set, by the same argument.  None where a demand is left short."""
    steps, vehicles = var_index
    n = scenario.num_vehicles
    unit_cost = _unit_cost(scenario)
    # vehicle-major, cheapest first; lexsort is stable, so ties keep step order
    order = np.lexsort((unit_cost[steps], vehicles))
    step_of, vehicle_of = steps[order].tolist(), vehicles[order].tolist()
    unmet = scenario.load.tolist()
    fills, short = greedy_fill(step_of, vehicle_of, scenario.socket_limit.tolist(),
                               scenario.capacity.tolist(), unmet)
    x = np.empty(order.size)
    x[order] = fills
    basic = np.full(n + scenario.horizon_steps, -1)
    for p, emptied in short:  # cut short: basic in the row that cut it
        basic[n + step_of[p] if emptied else vehicle_of[p]] = order[p]
    if any(unmet):
        return BasisStart(x, basic)
    lam, cost = [0.0] * basic.size, unit_cost.tolist()
    for p, emptied in reversed(short):
        t, i = step_of[p], vehicle_of[p]
        if emptied:
            lam[n + t] = lam[i] - cost[t]
        else:
            lam[i] = cost[t] + lam[n + t]
    return BasisStart(x, basic, np.array(lam))


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
