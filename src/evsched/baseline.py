"""First-Come-First-Served allocation, the comparison standard.

Steps are processed in order; within a step, vehicles present are served
in arrival order (ties by vehicle index).  Each served vehicle receives
the largest power allowed by its socket, its remaining demand and the
remaining station budget, and residuals are updated immediately.  Demand
left unmet at the end of the horizon is reported, not an error: a vehicle
that found the station busy simply waits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Method, Scenario, Schedule


@dataclass
class FcfsResult:
    schedule: Schedule
    shortfall: np.ndarray  # unmet demand per vehicle, kW-equivalent

    @property
    def fully_served(self) -> bool:
        return bool((self.shortfall <= 1e-12).all())


def fcfs_with_report(scenario: Scenario) -> FcfsResult:
    T, n = scenario.horizon_steps, scenario.num_vehicles
    occ = scenario.occupancy
    x = np.zeros((T, n))
    remaining = scenario.load.astype(float).copy()

    # service order: arrival step, then vehicle index
    arrivals = np.where(occ.any(axis=0), occ.argmax(axis=0), T)
    queue = np.lexsort((np.arange(n), arrivals))

    for t in range(T):
        budget = float(scenario.capacity[t])
        socket = float(scenario.socket_limit[t])
        for i in queue[occ[t, queue] == 1]:
            give = min(socket, remaining[i], budget)
            if give <= 0.0:
                continue
            x[t, i] = give
            remaining[i] -= give
            budget -= give

    schedule = Schedule(
        allocation=x, method=Method.FCFS, scenario_id=scenario.scenario_id
    )
    return FcfsResult(schedule=schedule, shortfall=np.maximum(remaining, 0.0))


def fcfs_schedule(scenario: Scenario) -> Schedule:
    return fcfs_with_report(scenario).schedule
