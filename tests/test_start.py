"""The least-cost greedy starting basis of the allocation LP."""

import numpy as np
import pytest

from evsched import InfeasibleScenario, Method, solve
from evsched.model import COST_REL_TOL
from evsched.nominal import least_cost_start, schedule_from_x, scheduling_lp
from evsched.robust import totals_map
from evsched.solver import (FEASIBILITY_TOL, BasisStart, LinearProgram, SolveStats, certify,
                            solve_lp, solve_norm_augmented)
from evsched.solver.lp import _Simplex
from evsched.synth import random_batch, random_scenario

from conftest import make_scenario
from flow_oracle import surplus_cost


def start_day(seed):
    """A seeded day with the start's edge cases together: a station budget
    that binds, zero-capacity steps, zero loads, step_hours != 1,
    waste > 0, single-step windows, and prices that tie and go negative;
    demands run from slack to short, so some days are infeasible."""
    rng = np.random.default_rng(seed)
    T = int(rng.integers(1, 8))
    windows = []
    for _ in range(int(rng.integers(1, 11))):
        a = int(rng.integers(1, T + 1))
        windows.append((a, a) if rng.random() < 0.3 else (a, int(rng.integers(a, T + 1))))
    socket = rng.choice([0.0, 3.0, 7.0], T, p=[0.1, 0.3, 0.6])
    window_cap = np.array([socket[a - 1 : d].sum() for a, d in windows])
    load = window_cap * rng.uniform(0.0, 0.8, len(windows))
    load[rng.random(len(windows)) < 0.2] = 0.0
    capacity = rng.uniform(0.3, 1.5, T) * socket * len(windows) / 3.0
    capacity[rng.random(T) < 0.1] = 0.0
    return make_scenario(windows, load, rng.choice([-0.1, 0.0, 0.1, 0.25], T),
                         capacity=capacity, socket=socket,
                         waste=float(rng.uniform(0.0, 0.1)),
                         step_hours=float(rng.choice([0.25, 1.0, 2.0])))


def started(sc):
    """The start of `sc` and the simplex set up on it."""
    lp, var_index = scheduling_lp(sc)
    start = least_cost_start(sc, var_index)
    simplex = _Simplex(lp)
    simplex.build_initial_basis(start)
    return start, simplex


class TestStartingBasis:
    DAYS = 300

    def test_edge_days(self):
        seen = {"budget binds": 0, "greedy short, feasible": 0, "infeasible": 0,
                "negative prices": 0, "tied prices": 0}
        for seed in range(self.DAYS):
            sc = start_day(seed)
            start, simplex = started(sc)
            n = sc.num_vehicles
            B = simplex.A[:, simplex.basis]
            assert np.linalg.matrix_rank(B) == simplex.m, seed
            # one named column per row at most, within its bounds
            named = start.basic[start.basic >= 0]
            assert np.unique(named).size == named.size
            real = simplex.basis < simplex.art_start
            cols, xb = simplex.basis[real], simplex.xB[real]
            assert (xb >= simplex.lo[cols] - FEASIBILITY_TOL).all(), seed
            assert (xb <= simplex.up[cols] + FEASIBILITY_TOL).all(), seed
            # artificials only where the greedy leaves a demand short
            art_rows = np.flatnonzero(~real)
            assert (art_rows < n).all()

            expected = surplus_cost(sc)
            if expected is None:
                with pytest.raises(InfeasibleScenario):
                    solve(sc)
                seen["infeasible"] += 1
            else:
                result = solve(sc)
                assert result.objective == pytest.approx(
                    expected, rel=COST_REL_TOL, abs=COST_REL_TOL), seed
                seen["greedy short, feasible"] += art_rows.size > 0
            seen["budget binds"] += bool((start.basic[n:] >= 0).any())
            seen["negative prices"] += bool((sc.prices < 0).any())
            seen["tied prices"] += np.unique(sc.prices).size < sc.horizon_steps
        assert min(seen.values()) >= 10, seen

    def test_ties_go_to_the_earlier_step(self):
        sc = make_scenario([(1, 3)], [10.0], [1.0, 1.0, 1.0], socket=7.0)
        start, _ = started(sc)
        assert start.x.tolist() == [7.0, 3.0, 0.0]
        assert start.basic.tolist() == [1, -1, -1, -1]

    def test_budget_cut_is_basic_in_the_capacity_row(self):
        # vehicle 0 leaves 2 kW of step 1 to vehicle 1, whose fill the
        # budget cuts short; vehicle 1 then tops up at step 2
        sc = make_scenario([(1, 2), (1, 2)], [4.0, 5.0], [1.0, 2.0],
                           socket=7.0, capacity=6.0)
        start, simplex = started(sc)
        assert start.x.tolist() == [4.0, 0.0, 2.0, 3.0]
        assert start.basic.tolist() == [0, 3, 2, -1]
        assert simplex.n_art == 0

    def test_optimal_start_needs_no_pivots(self):
        # the budget never binds and prices are positive: the greedy is optimal
        sc = make_scenario([(1, 3), (2, 4), (1, 4)], [9.0, 4.0, 12.5],
                           [0.3, 0.1, 0.2, 0.4], socket=7.0)
        result = solve(sc)
        assert result.stats == SolveStats()


def test_nonbasic_start_off_its_bounds_is_rejected():
    lp = LinearProgram(c=[1.0, 1.0], G=[[-1.0, -1.0]], h=[-3.0], up=[5.0, 5.0])
    with pytest.raises(ValueError, match="off its bounds"):
        _Simplex(lp).solve(BasisStart(np.array([1.0, 0.0]), np.array([-1])))
    # the same point is a start once column 0 is basic in the row
    sol = _Simplex(lp).solve(BasisStart(np.array([3.0, 0.0]), np.array([0])))
    assert (sol.objective_value, sol.stats.pivots) == (3.0, 0)


class TestPotentials:
    """The start's row multipliers, the u-v potentials of the transportation
    simplex, certify it without a simplex wherever it is optimal."""

    @staticmethod
    def simplex_path(sc):
        """The LP, its start and the simplex's solve from that start, which
        the potentials stand in for where they certify it."""
        lp, var_index = scheduling_lp(sc)
        start = least_cost_start(sc, var_index)
        return lp, start, _Simplex(lp).solve(start), var_index

    def test_potentials_are_the_simplex_duals(self):
        zero_pivot = 0
        for sc in random_batch(1, 365):
            _, start, sol, var_index = self.simplex_path(sc)
            if sol.stats.pivots:
                continue
            zero_pivot += 1
            scale = np.maximum(1.0, np.abs(sol.dual_ineq))
            assert (np.abs(start.duals - sol.dual_ineq) <= 1e-12 * scale).all(), sc.scenario_id
            want = schedule_from_x(sc, sol.x, var_index, Method.NOMINAL).allocation
            assert solve(sc).schedule.allocation.tobytes() == want.tobytes(), sc.scenario_id
        assert zero_pivot == 292

    @pytest.mark.parametrize("seed, kwargs, certified", [
        (1, {}, 292),
        (2, {"capacity": 60.0}, 343),
    ])
    def test_certified_days_pinned(self, seed, kwargs, certified):
        # a certified start builds no simplex, so its stats stay empty;
        # these are exactly the days whose simplex solve makes no pivot
        days = random_batch(seed, 365, **kwargs)
        assert sum(solve(sc).stats == SolveStats() for sc in days) == certified

    @pytest.mark.parametrize("sc", [
        random_batch(1, 8)[7],  # the budget binds: 14 pivots from the start
        make_scenario([(1, 2)], [5.0], [1.0, -2.0]),  # over-delivery pays
    ], ids=["non-optimal-start", "negative-price"])
    def test_failed_potentials_run_the_simplex(self, sc):
        lp, start, sol, var_index = self.simplex_path(sc)
        assert start.duals is not None and sol.stats.pivots > 0
        upper, lower, _ = certify(lp, np.zeros((0, lp.num_vars)), 0.0, start.x,
                                  start.duals, np.zeros(0), np.zeros(0))
        assert upper - lower > 1e-6
        result = solve(sc)
        assert result.stats == sol.stats
        assert result.objective == sol.objective_value
        want = schedule_from_x(sc, sol.x, var_index, Method.NOMINAL).allocation
        assert result.schedule.allocation.tobytes() == want.tobytes()

    @pytest.mark.usefixtures("no_polish")
    @pytest.mark.parametrize("seed", [2, 8])
    def test_lazy_master_cuts_as_an_eager_one(self, seed):
        # with the polish declined the day takes cuts: a certified start,
        # which builds no first master, makes the cuts, x and bounds of the
        # same start without its multipliers, whose first master is solved
        sc = random_scenario(np.random.default_rng(seed), horizon_steps=6, max_vehicles=3)
        lp, var_index = scheduling_lp(sc)
        M = totals_map(sc, var_index)
        start = least_cost_start(sc, var_index)
        assert solve_lp(lp, start).stats == SolveStats()  # certified, no simplex
        lazy = solve_norm_augmented(lp, 0.5, M, start=start)
        eager = solve_norm_augmented(lp, 0.5, M, start=start._replace(duals=None))
        assert lazy.cuts == eager.cuts >= 5
        # the eager start pays one refactorization, its first master's basis,
        # and no pivot
        assert eager.stats == lazy.stats + SolveStats(refactorizations=1)
        assert lazy.x.tobytes() == eager.x.tobytes()
        assert (lazy.objective, lazy.lower_bound) == (eager.objective, eager.lower_bound)
