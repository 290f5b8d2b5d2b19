"""Robust model tests: ball-radius behavior, worst-case load substitution,
and the argument checks of the one solve entry point.  Every OPTIMAL
cutting-plane result a solve here makes must pass `certify`."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from evsched import (
    InfeasibleScenario,
    Method,
    check_feasibility,
    solve,
    validate_schedule,
)
from evsched.solver import NumericalFailure
from evsched.synth import random_scenario

from conftest import make_scenario, run_on_one_blas_thread

pytestmark = pytest.mark.usefixtures("certified_solves")


def spreading_scenario():
    """T=2, flat prices, one vehicle with demand 6 present both steps."""
    return make_scenario([(1, 2)], [6.0], [1.0, 1.0], socket=7.0)


def step_totals(result, sc):
    """The per-step totals v whose norm the price ball penalizes."""
    return (1.0 + sc.waste) * sc.step_hours * result.schedule.allocation.sum(axis=1)


class TestPriceBall:
    def test_radius_zero_matches_nominal(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            sc = random_scenario(rng, horizon_steps=5, max_vehicles=4)
            nominal = solve(sc).cost.total_cost
            robust = solve(sc, Method.ROBUST_PRICE, radius=0.0)
            assert robust.objective == pytest.approx(nominal, rel=1e-6)
            assert robust.converged

    def test_spreading_instance(self):
        sc = spreading_scenario()
        result = solve(sc, Method.ROBUST_PRICE, radius=1.0)
        assert step_totals(result, sc) == pytest.approx([3.0, 3.0], abs=1e-4)
        assert result.objective == pytest.approx(6.0 + 3.0 * np.sqrt(2.0), rel=1e-6)

    def test_huge_radius_dominated_by_norm(self):
        sc = spreading_scenario()
        result = solve(sc, Method.ROBUST_PRICE, radius=1e6)
        assert step_totals(result, sc) == pytest.approx([3.0, 3.0], abs=1e-3)
        assert result.objective == pytest.approx(
            6.0 + 1e6 * 3.0 * np.sqrt(2.0), rel=1e-9
        )

    def test_objective_nondecreasing_in_radius(self):
        rng = np.random.default_rng(22)
        for _ in range(8):
            sc = random_scenario(rng, horizon_steps=5, max_vehicles=4)
            values = [
                solve(sc, Method.ROBUST_PRICE, radius=r).objective
                for r in (0.0, 0.1, 1.0, 10.0)
            ]
            assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))

    def test_schedule_feasible_for_nominal_constraints(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            sc = random_scenario(rng, horizon_steps=5, max_vehicles=4)
            result = solve(sc, Method.ROBUST_PRICE, radius=0.5)
            assert validate_schedule(result.schedule, sc).feasible

    def test_negative_radius_rejected(self):
        for radius in (-0.1, -np.inf):
            with pytest.raises(ValueError, match="radius"):
                solve(spreading_scenario(), Method.ROBUST_PRICE, radius=radius)

    def test_infeasible_scenario_raises(self):
        sc = make_scenario([(1, 1)], [15.0], [1.0], socket=7.0)
        with pytest.raises(InfeasibleScenario):
            solve(sc, Method.ROBUST_PRICE, radius=1.0)


class TestLoadInterval:
    """Demand in [load, load * load_scale]: the worst case is the upper end."""

    def test_degenerate_interval_is_identity(self):
        sc = random_scenario(np.random.default_rng(20), horizon_steps=5, max_vehicles=4)
        result = solve(sc, Method.ROBUST_LOAD, load_scale=1.0)
        assert np.array_equal(result.schedule.allocation, solve(sc).schedule.allocation)
        assert result.schedule.method is Method.ROBUST_LOAD

    def test_upper_substituted(self):
        sc = make_scenario([(1, 2)], [5.0], [1.0, 1.0])
        result = solve(sc, Method.ROBUST_LOAD, load_scale=1.6)
        assert result.schedule.allocation.sum() == pytest.approx(8.0)
        assert result.cost.total_cost == pytest.approx(8.0)

    def test_infeasible_worst_case_surfaces_in_check(self):
        sc = make_scenario([(1, 2)], [5.0], [1.0, 1.0], socket=7.0)
        assert check_feasibility(sc).feasible
        with pytest.raises(InfeasibleScenario) as err:
            solve(sc, Method.ROBUST_LOAD, load_scale=4.0)
        got, want = err.value.report, check_feasibility(replace(sc, load=[20.0]))
        assert not want.feasible
        assert (got.max_flow, got.total_load) == (want.max_flow, want.total_load)
        assert np.array_equal(got.per_vehicle_slack, want.per_vehicle_slack)

    def test_interval_validation(self):
        # a scale below 1 would put the upper end below the nominal load
        for scale in (0.5, 0.0, -1.0):
            with pytest.raises(ValueError, match="load_scale"):
                solve(spreading_scenario(), Method.ROBUST_LOAD, load_scale=scale)


class TestBoth:
    def test_double_degenerate_equals_nominal(self):
        rng = np.random.default_rng(24)
        sc = random_scenario(rng, horizon_steps=5, max_vehicles=4)
        nominal = solve(sc).cost.total_cost
        result = solve(sc, Method.ROBUST_LOAD, radius=0.0, load_scale=1.0)
        assert result.objective == pytest.approx(nominal, rel=1e-6)
        assert result.schedule.method is Method.ROBUST_LOAD

    def test_larger_load_costs_strictly_more(self):
        rng = np.random.default_rng(25)
        for _ in range(8):
            sc = random_scenario(rng, horizon_steps=5, max_vehicles=3,
                                 load_fraction=0.5, capacity=300.0)
            nominal = solve(sc).cost.total_cost
            result = solve(sc, Method.ROBUST_LOAD, radius=0.0, load_scale=1.3)
            assert result.objective > nominal + 1e-9

    def test_matches_price_model_on_worked_instance(self):
        base = make_scenario([(1, 2)], [4.0], [1.0, 1.0], socket=7.0)
        result = solve(base, Method.ROBUST_LOAD, radius=1.0, load_scale=1.5)
        assert step_totals(result, base) == pytest.approx([3.0, 3.0], abs=1e-4)
        assert result.objective == pytest.approx(6.0 + 3.0 * np.sqrt(2.0), rel=1e-6)

    def test_schedule_validates_against_worst_case(self):
        rng = np.random.default_rng(26)
        for _ in range(8):
            sc = random_scenario(rng, horizon_steps=5, max_vehicles=3,
                                 load_fraction=0.5, capacity=300.0)
            result = solve(sc, Method.ROBUST_LOAD, radius=0.3, load_scale=1.2)
            worst = replace(sc, load=sc.load * 1.2)
            assert validate_schedule(result.schedule, worst).feasible


class TestSolve:
    def test_overflowing_objective_is_a_numerical_failure(self):
        # radius * ||v|| overflows to inf, which would otherwise read as a
        # converged run with an infinite gap
        sc = random_scenario(np.random.default_rng(3), horizon_steps=6, num_vehicles=2)
        with pytest.raises(NumericalFailure, match="objective inf"):
            solve(sc, Method.ROBUST_PRICE, radius=1e308)

    @pytest.mark.parametrize("big", [1e300, 1.7e308])
    def test_huge_station_outcomes_pinned(self, big):
        # tau's box is the reach of ||M x|| over the LP's box, whose norm
        # overflows here, so tau is capped at the largest float.  The cap
        # must not move these outcomes: the robust day at r=0.5 is
        # certified, and at r=2 the certificate weighs a rounding error
        # against the huge box and fails closed
        sc = make_scenario([(1, 2), (1, 2)], [5.0, 5.0], [2.0, 1.0], socket=big,
                           capacity=big)
        assert solve(sc).objective == 10.0
        result = solve(sc, Method.ROBUST_PRICE, radius=0.5)
        assert (result.objective, result.polished) == (15.0, True)
        with pytest.raises(NumericalFailure, match="certification failed"):
            solve(sc, Method.ROBUST_PRICE, radius=2.0)

    def test_huge_radius_converges_without_a_warning(self):
        # a dual ratio past the float range is a breakpoint at infinity,
        # not an overflow warning (an error under the suite's filters)
        sc = random_scenario(np.random.default_rng(4), horizon_steps=6, num_vehicles=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = solve(sc, Method.ROBUST_PRICE, radius=1e306)
        assert result.converged
        assert result.cuts > 0  # the dual simplex ran

    @pytest.mark.parametrize("seed", range(4))
    def test_nominal_is_the_radius_zero_price_ball(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(5):
            sc = random_scenario(rng, horizon_steps=int(rng.integers(2, 12)),
                                 max_vehicles=8)
            nominal = solve(sc, Method.NOMINAL)
            ball = solve(sc, Method.ROBUST_PRICE, radius=0.0)
            assert nominal.schedule.allocation.tobytes() == ball.schedule.allocation.tobytes()
            assert nominal.cost.total_cost == ball.cost.total_cost
            assert nominal.objective == ball.objective
            assert nominal.stats == ball.stats
            assert (nominal.gap, nominal.cuts, nominal.converged) == (0.0, 0, True)

    def test_nominal_gap_is_exactly_zero(self):
        # The LP's certified objective is both bounds at once.  A master with
        # an epigraph column would sum c.x over one more entry, and on day 26
        # of this stream that moves the gap off zero by a few ulps.
        rng = np.random.default_rng(1)
        for _ in range(27):
            assert solve(random_scenario(rng)).gap == 0.0

    def test_nominal_ignores_radius_and_load_scale(self):
        sc = random_scenario(np.random.default_rng(9), horizon_steps=6, max_vehicles=4)
        plain = solve(sc)
        other = solve(sc, Method.NOMINAL, radius=2.0, load_scale=1.5)
        assert np.array_equal(plain.schedule.allocation, other.schedule.allocation)
        assert plain.objective == other.objective

    @pytest.mark.parametrize("method", [Method.NOMINAL, Method.ROBUST_PRICE,
                                        Method.ROBUST_LOAD])
    def test_empty_day(self, method):
        sc = make_scenario([None], [0.0], [1.0, 2.0])
        result = solve(sc, method, radius=0.5, load_scale=1.2)
        assert result.schedule.allocation.shape == (2, 1)
        assert not result.schedule.allocation.any()
        assert result.schedule.method is method
        assert (result.cost.total_cost, result.objective, result.stats.pivots) == (0.0, 0.0, 0)
        assert result.converged

    @pytest.mark.parametrize("radius", [np.nan, np.inf])
    def test_non_finite_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="radius"):
            solve(spreading_scenario(), Method.ROBUST_PRICE, radius=radius)

    @pytest.mark.parametrize("scale", [np.nan, np.inf])
    def test_non_finite_load_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="load_scale"):
            solve(spreading_scenario(), Method.ROBUST_LOAD, load_scale=scale)

    def test_fcfs_rejected(self):
        with pytest.raises(ValueError, match="fcfs"):
            solve(spreading_scenario(), Method.FCFS)


# Solves the full-size pool at the radius given and prints its totals:
# cuts, pivots, the days the cut limit stopped, the days the polish
# certified and the solver failures.
FULL_SIZE_TOTALS = """
import sys
from evsched import Method, solve
from evsched.solver import NumericalFailure
from evsched.synth import random_batch
results, failures = [], 0
for sc in random_batch(5, 30):
    try:
        results.append(solve(sc, Method.ROBUST_PRICE, radius=float(sys.argv[1])))
    except NumericalFailure:
        failures += 1
print(sum(r.cuts for r in results), sum(r.stats.pivots for r in results),
      sum(not r.converged for r in results), sum(r.polished for r in results), failures)
"""


def test_full_size_day_counts_pinned():
    # T=24 days of up to 20 vehicles, where a 24-dimensional norm needs far
    # more cuts than the 6-step days above; the polish certifies every day
    # at its first master.  The counts are exact, so they are taken with
    # BLAS on one thread.
    counts = tuple(map(int, run_on_one_blas_thread(FULL_SIZE_TOTALS, "0.5").split()))
    # pinned: a change here means the cut or pivot sequence changed
    assert counts == (0, 52, 0, 30, 0)


def test_full_size_day_counts_pinned_at_radius_2():
    # the same days at radius 2, where the cuts alone stop at the cut
    # limit on 16 of the 30 days (4967 cuts, 49020 pivots)
    counts = tuple(map(int, run_on_one_blas_thread(FULL_SIZE_TOTALS, "2").split()))
    # pinned: cuts, pivots, cut-limit days, polished days, NumericalFailures
    assert counts == (0, 52, 0, 30, 0)


# Solves random_batch(seed, 100) by the method, radius and load scale given
# and prints the traffic the cutting-plane loop serves: the days that took
# a cut, cuts, pivots, the days the cut limit stopped, the days the polish
# certified, the solver failures and the infeasible days.
CUT_TRAFFIC = """
import sys
from evsched import InfeasibleScenario, solve
from evsched.solver import NumericalFailure
from evsched.synth import random_batch
seed, days, steps, step_hours = int(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3]), float(sys.argv[4])
method, radius, scale = sys.argv[5], float(sys.argv[6]), float(sys.argv[7])
results, failures, infeasible = [], 0, 0
for sc in random_batch(seed, days, horizon_steps=steps, step_hours=step_hours):
    try:
        results.append(solve(sc, method, radius=radius, load_scale=scale))
    except NumericalFailure:
        failures += 1
    except InfeasibleScenario:
        infeasible += 1
print(sum(r.cuts > 0 for r in results), sum(r.cuts for r in results),
      sum(r.stats.pivots for r in results), sum(not r.converged for r in results),
      sum(r.polished for r in results), failures, infeasible)
"""


@pytest.mark.parametrize("args, counts", [
    # one day in each robust-price batch converges on Kelley's cuts alone,
    # where the polish declines every face it meets: after 20 cuts in the
    # first, after 13 in the half-hour batch
    (("2", "100", "24", "1", "robust-price", "0.1", "1"), (4, 23, 787, 0, 99, 0, 0)),
    (("1", "100", "24", "1", "robust-load", "0.5", "1.2"), (2, 4, 270, 0, 84, 0, 16)),
    (("3", "20", "48", "0.5", "robust-price", "0.1", "1"), (2, 15, 1065, 0, 19, 0, 0)),
])
def test_cut_traffic_pinned(args, counts):
    # the few days the polish does not certify at the first master are the
    # cutting-plane loop's whole traffic; exact counts, so BLAS on one thread
    assert tuple(map(int, run_on_one_blas_thread(CUT_TRAFFIC, *args).split())) == counts
