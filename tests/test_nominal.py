"""Nominal optimizer tests: hand instances, the min-cost-flow oracle, and
dominance over FCFS."""

from dataclasses import replace

import numpy as np
import pytest

import evsched.nominal as nominal_module
from evsched import (
    InfeasibleScenario,
    Method,
    PriceBall,
    ViolationKind,
    check_feasibility,
    evaluate_cost,
    fcfs_with_report,
    optimize_nominal,
    optimize_robust_price,
    validate_schedule,
)
from evsched.nominal import schedule_from_x, scheduling_lp, scheduling_network
from evsched.robust import totals_map
from evsched.solver import FlowStatus, NumericalFailure, solve_min_cost_flow
from evsched.synth import random_scenario

from conftest import make_scenario


class TestFeasibilityCheck:
    def test_window_capacity_sufficient(self):
        sc = make_scenario([(1, 2)], [10.0], [1.0, 1.0], socket=7.0)
        report = check_feasibility(sc)
        assert report.feasible
        assert report.per_vehicle_slack[0] == pytest.approx(4.0)

    def test_window_capacity_insufficient(self):
        sc = make_scenario([(1, 2)], [15.0], [1.0, 1.0], socket=7.0)
        report = check_feasibility(sc)
        assert not report.feasible
        assert report.per_vehicle_slack[0] == pytest.approx(-1.0)

    def test_aggregate_capacity_binds(self):
        # two vehicles share the single step: per-vehicle fine, total 10 > C=8
        sc = make_scenario([(1, 1), (1, 1)], [5.0, 5.0], [1.0],
                           socket=7.0, capacity=8.0)
        report = check_feasibility(sc)
        assert (report.per_vehicle_slack >= 0).all()
        assert report.max_flow == pytest.approx(8.0)
        assert report.total_load == pytest.approx(10.0)
        assert not report.feasible

    def test_empty_scenario_feasible(self):
        sc = make_scenario([], [], [1.0, 1.0])
        assert check_feasibility(sc).feasible


class TestHandInstances:
    def test_two_step_instance(self, two_step_vehicle):
        result = optimize_nominal(two_step_vehicle)
        # all power in the cheap second step
        assert result.schedule.allocation[:, 0] == pytest.approx([0.0, 5.0], abs=1e-9)
        assert result.cost.total_cost == pytest.approx(5.05, abs=1e-9)
        assert result.lp_solution.objective_value == pytest.approx(
            result.cost.total_cost, abs=1e-9
        )

    def test_infeasible_scenario_raises(self):
        sc = make_scenario([(1, 2)], [15.0], [1.0, 1.0], socket=7.0)
        with pytest.raises(InfeasibleScenario) as err:
            optimize_nominal(sc)
        assert not err.value.report.feasible

    def test_empty_scenario(self):
        sc = make_scenario([], [], [1.0, 1.0])
        result = optimize_nominal(sc)
        assert result.cost.total_cost == 0.0
        assert result.schedule.allocation.shape == (2, 0)

    def test_zero_demand_vehicle(self):
        sc = make_scenario([(1, 2), None], [4.0, 0.0], [0.5, 0.2])
        result = optimize_nominal(sc)
        assert result.schedule.allocation[:, 1] == pytest.approx([0.0, 0.0])
        assert result.cost.total_cost == pytest.approx(0.2 * 4.0, abs=1e-9)


class TestProperties:
    def test_flat_price_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            p = float(rng.uniform(0.05, 0.5))
            g = float(rng.uniform(0.0, 0.05))
            sc = random_scenario(rng, horizon_steps=int(rng.integers(2, 8)),
                                 max_vehicles=5, waste=g,
                                 price_low=p, price_high=p)
            result = optimize_nominal(sc)
            expected = p * (1.0 + g) * sc.step_hours * sc.load.sum()
            assert result.cost.total_cost == pytest.approx(expected, rel=1e-8)

    def test_demand_tight_at_positive_prices(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            sc = random_scenario(rng, horizon_steps=6, max_vehicles=4)
            result = optimize_nominal(sc)
            delivered = result.schedule.allocation.sum(axis=0)
            assert delivered == pytest.approx(sc.load, rel=1e-6, abs=1e-6)

    def test_matches_flow_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            sc = random_scenario(
                rng,
                horizon_steps=int(rng.integers(2, 7)),
                max_vehicles=4,
                capacity=float(rng.uniform(8.0, 25.0)),
            )
            result = optimize_nominal(sc)
            flow = solve_min_cost_flow(scheduling_network(sc), float(sc.load.sum()))
            assert flow.status is FlowStatus.OPTIMAL
            assert result.cost.total_cost == pytest.approx(
                flow.cost, rel=1e-6, abs=1e-9
            )

    def test_dominates_fcfs(self):
        rng = np.random.default_rng(14)
        checked = 0
        for _ in range(60):
            sc = random_scenario(rng, horizon_steps=8, max_vehicles=6)
            fcfs = fcfs_with_report(sc)
            if (fcfs.shortfall > 1e-9).any():
                continue
            fcfs_cost = evaluate_cost(fcfs.schedule, sc).total_cost
            opt_cost = optimize_nominal(sc).cost.total_cost
            assert opt_cost <= fcfs_cost + 1e-9
            checked += 1
        assert checked >= 40

    def test_schedule_validates(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            sc = random_scenario(rng, horizon_steps=6, max_vehicles=5)
            result = optimize_nominal(sc)
            assert validate_schedule(result.schedule, sc).feasible

    def test_permutation_leaves_cost_unchanged(self):
        rng = np.random.default_rng(16)
        sc = random_scenario(rng, horizon_steps=6, num_vehicles=5)
        base = optimize_nominal(sc).cost.total_cost
        perm = rng.permutation(5)
        permuted = make_scenario(
            [sc.window(i) for i in perm],
            sc.load[perm],
            sc.prices,
            capacity=sc.capacity[0],
            socket=sc.socket_limit[0],
            waste=sc.waste[0],
        )
        assert optimize_nominal(permuted).cost.total_cost == pytest.approx(
            base, abs=1e-9, rel=1e-9
        )

    def test_negative_prices_stay_bounded(self):
        # negative-price steps attract over-delivery, capped by the socket
        sc = make_scenario([(1, 2)], [3.0], [-0.5, 1.0], socket=7.0)
        result = optimize_nominal(sc)
        report = validate_schedule(result.schedule, sc)
        assert not report.of_kind(ViolationKind.SOCKET_EXCEEDED)
        assert result.schedule.allocation[0, 0] == pytest.approx(7.0, abs=1e-9)
        assert result.cost.total_cost == pytest.approx(-3.5, abs=1e-9)


def variants(seed):
    """A seeded feasible day and copies made infeasible, or nearly so, by
    shrinking the station budget or raising demand."""
    rng = np.random.default_rng(seed)
    sc = random_scenario(rng, horizon_steps=6, max_vehicles=4)
    window_cap = sc.occupancy.T.astype(float) @ sc.socket_limit
    k = int(rng.integers(sc.num_vehicles))
    raised = sc.load.copy()
    raised[k] = window_cap[k] * float(rng.uniform(0.9, 1.3))
    yield sc
    yield replace(sc, capacity=sc.capacity * float(rng.uniform(0.05, 0.6)))
    yield replace(sc, load=raised)
    yield replace(sc, load=sc.load * float(rng.uniform(1.0, 2.0)))


def assert_same_report(got, want):
    assert (got.feasible, got.max_flow, got.total_load) == (
        want.feasible, want.max_flow, want.total_load)
    assert np.array_equal(got.per_vehicle_slack, want.per_vehicle_slack)


class TestFeasibilityDecision:
    """Phase one decides feasibility; the max-flow report only explains a
    phase-one failure, and the two must agree."""

    @pytest.mark.parametrize("optimize", [
        optimize_nominal,
        lambda sc: optimize_robust_price(sc, PriceBall.around(sc, 0.5)),
    ], ids=["nominal", "robust-price"])
    def test_phase_one_agrees_with_max_flow(self, optimize):
        outcomes = set()
        for seed in range(12):
            for sc in variants(seed):
                report = check_feasibility(sc)
                outcomes.add(report.feasible)
                if report.feasible:
                    result = optimize(sc)
                    assert validate_schedule(result.schedule, sc).feasible
                else:
                    with pytest.raises(InfeasibleScenario) as err:
                        optimize(sc)
                    assert_same_report(err.value.report, report)
        assert outcomes == {True, False}

    def test_aggregate_shortage_is_found_by_phase_one(self):
        # every vehicle fits its own window, only the shared budget binds
        sc = make_scenario([(1, 1), (1, 1)], [5.0, 5.0], [1.0],
                           socket=7.0, capacity=8.0)
        with pytest.raises(InfeasibleScenario) as err:
            optimize_nominal(sc)
        assert_same_report(err.value.report, check_feasibility(sc))
        assert (err.value.report.per_vehicle_slack >= 0).all()

    @pytest.mark.parametrize("excess", [2e-8, 1e-7])
    def test_shortage_below_phase_one_tolerance(self, excess):
        # phase one accepts an artificial sum this small, certification then
        # fails, and max-flow still classifies the day as infeasible
        sc = make_scenario([(1, 2), (1, 3)], [14.0 + excess, 3.0], [1.0, 2.0, 1.0],
                           socket=7.0)
        for optimize in (optimize_nominal,
                         lambda s: optimize_robust_price(s, PriceBall.around(s, 0.5))):
            with pytest.raises(InfeasibleScenario) as err:
                optimize(sc)
            assert_same_report(err.value.report, check_feasibility(sc))

    def test_feasible_day_runs_no_max_flow(self, monkeypatch):
        def refuse(scenario, tol=None):
            raise AssertionError("max-flow ran on a feasible day")

        monkeypatch.setattr(nominal_module, "check_feasibility", refuse)
        sc = random_scenario(np.random.default_rng(5), horizon_steps=6, max_vehicles=4)
        optimize_nominal(sc)
        optimize_robust_price(sc, PriceBall.around(sc, 0.5))

    def test_solver_failure_on_feasible_day_stays_a_failure(self, monkeypatch):
        def failing(lp):
            raise NumericalFailure("certification failed: injected")

        monkeypatch.setattr(nominal_module, "solve_lp", failing)
        sc = make_scenario([(1, 2)], [5.0], [1.0, 2.0])
        with pytest.raises(NumericalFailure, match="max-flow finds it feasible"):
            optimize_nominal(sc)


class TestLpBuild:
    """The vectorized build must equal the entry-by-entry one bit for bit."""

    @staticmethod
    def loop_build(sc):
        pairs = [(t, i) for i in range(sc.num_vehicles)
                 for t in np.flatnonzero(sc.occupancy[:, i])]
        T, n = sc.horizon_steps, sc.num_vehicles
        unit_cost = sc.prices * (1.0 + sc.waste) * sc.step_hours
        c, up = np.empty(len(pairs)), np.empty(len(pairs))
        G = np.zeros((n + T, len(pairs)))
        M = np.zeros((T, len(pairs)))
        for k, (t, i) in enumerate(pairs):
            c[k] = unit_cost[t]
            up[k] = sc.socket_limit[t]
            G[i, k] = -1.0
            G[n + t, k] = 1.0
            M[t, k] = (1.0 + sc.waste[t]) * sc.step_hours
        h = np.concatenate([-sc.load, sc.capacity])
        return pairs, c, G, h, up, M

    def days(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            yield random_scenario(rng, horizon_steps=int(rng.integers(1, 12)),
                                  max_vehicles=8,
                                  step_hours=float(rng.choice([0.25, 1.0, 2.0])),
                                  waste=float(rng.uniform(0.0, 0.1)))
        yield make_scenario([None, (2, 3), None, (1, 1)], [0.0, 4.0, 0.0, 2.0],
                            [0.3, 0.1, 0.2], waste=0.05, step_hours=0.5)

    def test_matches_loop_build(self):
        for sc in self.days():
            pairs, c, G, h, up, M = self.loop_build(sc)
            lp, var_index = scheduling_lp(sc)
            assert list(zip(*var_index)) == pairs
            for got, want in ((lp.c, c), (lp.G, G), (lp.h, h), (lp.up, up),
                              (totals_map(sc, var_index), M)):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            x = np.random.default_rng(0).uniform(-1.0, 9.0, len(pairs))
            y = schedule_from_x(sc, x, var_index, Method.NOMINAL).allocation
            want = np.zeros_like(y)
            for k, (t, i) in enumerate(pairs):
                want[t, i] = min(max(x[k], 0.0), sc.socket_limit[t])
            assert np.array_equal(y, want)


def test_criterion_9_day_pivot_count_pinned():
    # the N=100 day of acceptance criterion 9; a change here means the
    # pivot sequence changed (688 since frozen artificials stopped entering)
    big = random_scenario(np.random.default_rng(1009), horizon_steps=24,
                          num_vehicles=100, capacity=300.0, scenario_id="big-day")
    result = optimize_nominal(big)
    assert result.lp_solution.iterations == 688
    assert result.lp_solution.objective_value == 300.7872625388697
    assert result.cost.total_cost == 300.78726253886964
