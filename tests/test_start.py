"""The least-cost greedy starting basis of the allocation LP."""

import numpy as np
import pytest

from evsched import InfeasibleScenario, solve
from evsched.model import COST_REL_TOL
from evsched.nominal import least_cost_start, scheduling_lp
from evsched.solver import FEASIBILITY_TOL, BasisStart, LinearProgram, SolveStats
from evsched.solver.lp import _Simplex

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
        assert result.stats == SolveStats(refactorizations=1)


def test_nonbasic_start_off_its_bounds_is_rejected():
    lp = LinearProgram(c=[1.0, 1.0], G=[[-1.0, -1.0]], h=[-3.0], up=[5.0, 5.0])
    with pytest.raises(ValueError, match="off its bounds"):
        _Simplex(lp).solve(BasisStart(np.array([1.0, 0.0]), np.array([-1])))
    # the same point is a start once column 0 is basic in the row
    sol = _Simplex(lp).solve(BasisStart(np.array([3.0, 0.0]), np.array([0])))
    assert (sol.objective_value, sol.stats.pivots) == (3.0, 0)
