"""Nominal solve tests: hand instances, the min-cost-flow oracle, and
dominance over FCFS."""

from dataclasses import replace

import numpy as np
import pytest

import evsched.nominal as nominal_module
import evsched.robust as robust_module
import evsched.solver.lp as lp_module
from evsched import (
    InfeasibleScenario,
    Method,
    ViolationKind,
    check_feasibility,
    evaluate_cost,
    fcfs_with_report,
    solve,
    validate_schedule,
)
from evsched.model import FEAS_TOL
from evsched.nominal import schedule_from_x, scheduling_lp
from evsched.robust import totals_map
from evsched.solver import NumericalFailure, SolveStats
from evsched.synth import random_batch, random_scenario

from conftest import make_scenario
from flow_oracle import FlowStatus, max_flow_value, scheduling_network, solve_min_cost_flow

pytestmark = pytest.mark.usefixtures("certified_solves")


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
        result = solve(two_step_vehicle)
        # all power in the cheap second step
        assert result.schedule.allocation[:, 0] == pytest.approx([0.0, 5.0], abs=1e-9)
        assert result.cost.total_cost == pytest.approx(5.05, abs=1e-9)
        assert result.objective == pytest.approx(result.cost.total_cost, abs=1e-9)

    def test_infeasible_scenario_raises(self):
        sc = make_scenario([(1, 2)], [15.0], [1.0, 1.0], socket=7.0)
        with pytest.raises(InfeasibleScenario) as err:
            solve(sc)
        assert not err.value.report.feasible

    def test_empty_scenario(self):
        sc = make_scenario([], [], [1.0, 1.0])
        result = solve(sc)
        assert result.cost.total_cost == 0.0
        assert result.schedule.allocation.shape == (2, 0)

    def test_zero_demand_vehicle(self):
        sc = make_scenario([(1, 2), None], [4.0, 0.0], [0.5, 0.2])
        result = solve(sc)
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
            result = solve(sc)
            expected = p * (1.0 + g) * sc.step_hours * sc.load.sum()
            assert result.cost.total_cost == pytest.approx(expected, rel=1e-8)

    def test_demand_tight_at_positive_prices(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            sc = random_scenario(rng, horizon_steps=6, max_vehicles=4)
            result = solve(sc)
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
            result = solve(sc)
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
            opt_cost = solve(sc).cost.total_cost
            assert opt_cost <= fcfs_cost + 1e-9
            checked += 1
        assert checked >= 40

    def test_schedule_validates(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            sc = random_scenario(rng, horizon_steps=6, max_vehicles=5)
            result = solve(sc)
            assert validate_schedule(result.schedule, sc).feasible

    def test_permutation_leaves_cost_unchanged(self):
        rng = np.random.default_rng(16)
        sc = random_scenario(rng, horizon_steps=6, num_vehicles=5)
        base = solve(sc).cost.total_cost
        perm = rng.permutation(5)
        permuted = make_scenario(
            [sc.window(i) for i in perm],
            sc.load[perm],
            sc.prices,
            capacity=sc.capacity[0],
            socket=sc.socket_limit[0],
            waste=sc.waste[0],
        )
        assert solve(permuted).cost.total_cost == pytest.approx(
            base, abs=1e-9, rel=1e-9
        )

    def test_negative_prices_stay_bounded(self):
        # negative-price steps attract over-delivery, capped by the socket
        sc = make_scenario([(1, 2)], [3.0], [-0.5, 1.0], socket=7.0)
        result = solve(sc)
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
        solve,
        lambda sc: solve(sc, Method.ROBUST_PRICE, radius=0.5),
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
            solve(sc)
        assert_same_report(err.value.report, check_feasibility(sc))
        assert (err.value.report.per_vehicle_slack >= 0).all()

    @pytest.mark.parametrize("excess", [2e-8, 1e-7])
    def test_shortage_below_phase_one_tolerance(self, excess):
        # a shortage just above the certificate's tolerance: phase one finds
        # no feasible point, and max-flow agrees that the day is infeasible
        sc = make_scenario([(1, 2), (1, 3)], [14.0 + excess, 3.0], [1.0, 2.0, 1.0],
                           socket=7.0)
        for optimize in (solve, lambda s: solve(s, Method.ROBUST_PRICE, radius=0.5)):
            with pytest.raises(InfeasibleScenario) as err:
                optimize(sc)
            assert_same_report(err.value.report, check_feasibility(sc))

    def test_solver_failure_on_feasible_day_stays_a_failure(self, monkeypatch):
        def failing(simplex, start):
            raise NumericalFailure("certification failed: injected")

        monkeypatch.setattr(lp_module._Simplex, "solve", failing)
        # vehicle 1 finds 2 of its 5 kW left at its one step, so the start
        # leaves it short and the simplex runs, though the day is feasible
        sc = make_scenario([(1, 2), (1, 1)], [5.0, 5.0], [1.0, 2.0], socket=7.0, capacity=7.0)
        assert check_feasibility(sc).feasible
        with pytest.raises(NumericalFailure, match="injected"):
            solve(sc)

    @pytest.mark.parametrize("optimize", [
        solve,
        lambda sc: solve(sc, Method.ROBUST_PRICE, radius=0.5),
    ], ids=["nominal", "robust-price"])
    def test_one_simplex_per_solve(self, monkeypatch, optimize):
        # an infeasible day's report comes from the solve's own phase one,
        # its one simplex, and a feasible day builds no report at all; on
        # this one the start's multipliers certify it, so it builds no simplex
        built = []
        init = lp_module._Simplex.__init__

        def counting(simplex, lp):
            built.append(lp)
            init(simplex, lp)

        def refuse(*args):
            raise AssertionError("feasibility report built on a feasible day")

        monkeypatch.setattr(lp_module._Simplex, "__init__", counting)
        short = make_scenario([(1, 1), (1, 1)], [5.0, 5.0], [1.0],
                              socket=7.0, capacity=8.0)
        with pytest.raises(InfeasibleScenario) as err:
            optimize(short)
        assert len(built) == 1
        assert_same_report(err.value.report, check_feasibility(short))

        day = random_scenario(np.random.default_rng(5), horizon_steps=6, max_vehicles=4)
        built.clear()
        monkeypatch.setattr(robust_module, "_phase_one_report", refuse)
        monkeypatch.setattr(nominal_module, "check_feasibility", refuse)
        optimize(day)
        assert len(built) == 0  # the start's multipliers certify it


def edge_days(seed):
    """A seeded day with the edge cases together: zero-capacity steps, zero
    loads, step_hours != 1, waste > 0, single-step windows and a vehicle
    never present; demands run from slack to short."""
    rng = np.random.default_rng(seed)
    T = int(rng.integers(1, 7))
    windows = [None]
    for _ in range(int(rng.integers(1, 5))):
        a = int(rng.integers(1, T + 1))
        windows.append((a, a) if rng.random() < 0.4 else (a, int(rng.integers(a, T + 1))))
    socket = rng.uniform(1.0, 8.0, T)
    window_cap = np.array([0.0] + [socket[a - 1 : d].sum() for a, d in windows[1:]])
    load = window_cap * rng.uniform(0.0, 1.2, len(windows))
    load[1] = 0.0
    capacity = rng.uniform(0.0, 2.0, T) * socket
    capacity[rng.random(T) < 0.3] = 0.0
    return make_scenario(windows, load, rng.uniform(-0.1, 0.4, T), capacity=capacity,
                         socket=socket, waste=float(rng.uniform(0.0, 0.1)),
                         step_hours=float(rng.choice([0.25, 0.5, 2.0])))


class TestMaxFlowOracle:
    """Phase one's verdict and max-flow figure against Edmonds-Karp on the
    transportation network."""

    @staticmethod
    def days():
        for seed in range(40):
            yield edge_days(seed)
        for seed in range(12):
            yield from variants(seed)

    def test_phase_one_matches_edmonds_karp(self):
        outcomes = set()
        for sc in self.days():
            report = check_feasibility(sc)
            flow = max_flow_value(scheduling_network(sc))
            total = float(sc.load.sum())
            assert report.feasible == (flow >= total - FEAS_TOL)
            assert report.max_flow == pytest.approx(flow, rel=0.0,
                                                    abs=FEAS_TOL * max(1.0, total))
            outcomes.add(report.feasible)
        assert outcomes == {True, False}


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
    # pivot sequence changed (688 until solves started from the least-cost
    # greedy basis, which is optimal on this day).  The start's multipliers
    # certify it, so no simplex is built
    big = random_scenario(np.random.default_rng(1009), horizon_steps=24,
                          num_vehicles=100, capacity=300.0, scenario_id="big-day")
    result = solve(big)
    assert result.stats == SolveStats()
    assert result.objective == 300.7872625388697
    assert result.cost.total_cost == 300.78726253886964


def test_random_batch_pivot_counts_pinned():
    # nominal solves of random_batch(1, 365): phase-one and total pivots,
    # 14213 and 24518 when every solve started from Y = 0
    phase_one = total = 0
    for sc in random_batch(1, 365):
        result = solve(sc)
        phase_one += result.stats.phase_one_pivots
        total += result.stats.pivots
    assert (phase_one, total) == (123, 820)
