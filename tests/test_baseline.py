"""FCFS allocator tests: hand traces and the greedy/no-overdelivery rules."""

import numpy as np
import pytest

from evsched import evaluate_cost, fcfs_with_report, validate_schedule
from evsched.model import ViolationKind
from evsched.synth import random_batch, random_scenario

from conftest import make_scenario


class TestHandTraces:
    def test_single_vehicle_front_loads(self):
        # min(7,10,300)=7, then min(7,3,300)=3, then min(7,0,300)=0
        sc = make_scenario([(1, 3)], [10.0], [1.0, 1.0, 1.0], socket=7.0)
        schedule = fcfs_with_report(sc).schedule
        assert schedule.allocation[:, 0] == pytest.approx([7.0, 3.0, 0.0])

    def test_capacity_contention_in_arrival_order(self):
        # v1 gets min(7,5,8)=5, leaving 3 for v2: min(7,5,3)=3
        sc = make_scenario([(1, 1), (1, 1)], [5.0, 5.0], [1.0],
                           socket=7.0, capacity=8.0)
        result = fcfs_with_report(sc)
        assert result.schedule.allocation[0] == pytest.approx([5.0, 3.0])
        assert result.shortfall == pytest.approx([0.0, 2.0])
        assert not result.fully_served

    def test_empty_scenario(self):
        sc = make_scenario([], [], [1.0, 1.0])
        schedule = fcfs_with_report(sc).schedule
        assert schedule.allocation.shape == (2, 0)

    def test_zero_demand_vehicle(self):
        sc = make_scenario([(1, 2)], [0.0], [1.0, 1.0])
        result = fcfs_with_report(sc)
        assert result.schedule.allocation.sum() == 0.0
        assert result.shortfall == pytest.approx([0.0])

    def test_arrival_order_beats_index_order(self):
        # v1 (index 0) arrives at step 2; v0 (index 1) at step 1. In the
        # shared step 2 the earlier arrival is served first.
        sc = make_scenario([(2, 2), (1, 2)], [7.0, 14.0], [1.0, 1.0],
                           socket=7.0, capacity=10.0)
        schedule = fcfs_with_report(sc).schedule
        # step 2: v2 (arrived step 1) takes 7, leaving 3 for the new arrival
        assert schedule.allocation[1] == pytest.approx([3.0, 7.0])

    def test_tie_broken_by_index(self):
        sc = make_scenario([(1, 1), (1, 1)], [7.0, 7.0], [1.0],
                           socket=7.0, capacity=10.0)
        schedule = fcfs_with_report(sc).schedule
        assert schedule.allocation[0] == pytest.approx([7.0, 3.0])


class TestProperties:
    def test_never_violates_hard_constraints(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            sc = random_scenario(rng, horizon_steps=int(rng.integers(1, 10)),
                                 max_vehicles=8)
            report = validate_schedule(fcfs_with_report(sc).schedule, sc)
            kinds = {v.kind for v in report.violations}
            assert kinds <= {ViolationKind.DEMAND_SHORTFALL}

    def test_never_over_delivers(self):
        rng = np.random.default_rng(32)
        for _ in range(40):
            sc = random_scenario(rng, horizon_steps=6, max_vehicles=6)
            delivered = fcfs_with_report(sc).schedule.allocation.sum(axis=0)
            assert (delivered <= sc.load + 1e-8).all()

    def test_greedy_within_each_step(self):
        # replay the trace: every allocation equals the rule's three-way min
        rng = np.random.default_rng(33)
        for _ in range(20):
            sc = random_scenario(rng, horizon_steps=5, max_vehicles=5)
            x = fcfs_with_report(sc).schedule.allocation
            arrivals = {
                i: sc.window(i)[0] if sc.window(i) else sc.horizon_steps + 1
                for i in range(sc.num_vehicles)
            }
            remaining = sc.load.astype(float).copy()
            for t in range(sc.horizon_steps):
                budget = sc.capacity[t]
                present = sorted(
                    np.flatnonzero(sc.occupancy[t]), key=lambda i: (arrivals[i], i)
                )
                for i in present:
                    expect = min(sc.socket_limit[t], remaining[i], budget)
                    assert x[t, i] == pytest.approx(max(expect, 0.0), abs=1e-12)
                    remaining[i] -= x[t, i]
                    budget -= x[t, i]

    def test_front_loaded_when_capacity_slack(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            sc = random_scenario(rng, horizon_steps=6, num_vehicles=n,
                                 capacity=7.0 * n + 1.0)
            x = fcfs_with_report(sc).schedule.allocation
            for i in range(n):
                window = np.flatnonzero(sc.occupancy[:, i])
                remaining = sc.load[i]
                for t in window:
                    expect = min(sc.socket_limit[t], remaining)
                    assert x[t, i] == pytest.approx(expect, abs=1e-9)
                    remaining -= x[t, i]

    def test_shortfall_matches_cost_delivery(self):
        rng = np.random.default_rng(35)
        sc = random_scenario(rng, horizon_steps=4, max_vehicles=6, capacity=10.0)
        result = fcfs_with_report(sc)
        cost = evaluate_cost(result.schedule, sc)
        delivered = result.schedule.allocation.sum() * sc.step_hours
        assert cost.total_energy_delivered == pytest.approx(delivered)
        assert result.shortfall == pytest.approx(
            sc.load - result.schedule.allocation.sum(axis=0), abs=1e-9
        )


def fcfs_reference(sc):
    """FCFS as a plain per-step loop: at each step the vehicles present are
    served in arrival order (ties by index), each by the least of the socket
    limit, its unmet demand and the budget left."""
    T, n = sc.horizon_steps, sc.num_vehicles
    occ = sc.occupancy
    x = np.zeros((T, n))
    remaining = sc.load.astype(float).tolist()
    capacity = sc.capacity.tolist()
    socket_limit = sc.socket_limit.tolist()
    arrivals = np.where(occ.any(axis=0), occ.argmax(axis=0), T)
    queue = np.lexsort((np.arange(n), arrivals))
    for t in range(T):
        budget = capacity[t]
        socket = socket_limit[t]
        for i in queue[occ[t, queue] == 1].tolist():
            give = min(socket, remaining[i], budget)
            if give <= 0.0:
                continue
            x[t, i] = give
            remaining[i] -= give
            budget -= give
    return x, np.maximum(np.array(remaining), 0.0)


class TestAgainstReferenceLoop:
    """fcfs_with_report equals the reference loop bit for bit."""

    def assert_same(self, days):
        for sc in days:
            result = fcfs_with_report(sc)
            x, shortfall = fcfs_reference(sc)
            assert result.schedule.allocation.tobytes() == x.tobytes(), sc.scenario_id
            assert result.shortfall.tobytes() == shortfall.tobytes(), sc.scenario_id

    def test_default_capacity(self):
        self.assert_same(random_batch(41, 60))

    def test_binding_capacity(self):
        days = random_batch(42, 60, capacity=10.0)
        assert sum(not fcfs_with_report(sc).fully_served for sc in days) > 10
        self.assert_same(days)

    def test_arrival_ties(self):
        # three steps and up to eight vehicles: most arrivals tie
        self.assert_same(random_batch(43, 60, horizon_steps=3, max_vehicles=8,
                                      capacity=12.0))

    def test_half_hour_steps(self):
        self.assert_same(random_batch(44, 30, horizon_steps=48, step_hours=0.5,
                                      capacity=20.0))

    def test_zero_budget_demand_and_absent_vehicles(self):
        sc = make_scenario([(1, 3), None, (2, 3), (1, 1), (2, 2)],
                           [9.0, 0.0, 0.0, 3.0, 8.0], [1.0, 1.0, 1.0],
                           capacity=[5.0, 0.0, 7.0], socket=[7.0, 7.0, 2.0])
        self.assert_same([sc])
