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

from .model import Method, Scenario, Schedule, greedy_fill


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
    # service order: arrival step, then vehicle index (a vehicle never
    # present has no pair to serve, so its place does not matter)
    queue = np.argsort(occ.argmax(axis=0), kind="stable")
    # the pairs served, step by step, in service order within a step
    steps, place = np.nonzero(occ[:, queue])
    vehicles = queue[place]
    remaining = scenario.load.tolist()
    fills, _ = greedy_fill(steps.tolist(), vehicles.tolist(),
                           scenario.socket_limit.tolist(), scenario.capacity.tolist(),
                           remaining)
    x = np.zeros((T, n))
    x[steps, vehicles] = fills
    schedule = Schedule(
        allocation=x, method=Method.FCFS, scenario_id=scenario.scenario_id
    )
    return FcfsResult(schedule=schedule, shortfall=np.maximum(np.array(remaining), 0.0))


def fcfs_schedule(scenario: Scenario) -> Schedule:
    return fcfs_with_report(scenario).schedule
