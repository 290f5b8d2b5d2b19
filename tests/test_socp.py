"""Cutting-plane tests for the norm-augmented objective.

The worked instances have 1-D feasible segments, so a dense scan over the
segment is an independent oracle for both the minimizer and the value.
"""

import numpy as np
import pytest

from evsched.nominal import check_feasibility, least_cost_start, scheduling_lp
from evsched.robust import totals_map
from evsched.solver import (
    FEASIBILITY_TOL,
    Infeasible,
    LinearProgram,
    NormAugmentedStatus,
    NumericalFailure,
    SolveStats,
    solve_lp,
    solve_norm_augmented,
)
from evsched.solver import lp as lp_module
from evsched.solver import socp as socp_module
from evsched.solver.socp import GAP_ABS_TOL, GAP_REL_TOL, _augmented
from evsched.synth import random_scenario

from conftest import make_scenario


def segment_scan_oracle(weight, total=6.0, steps=60001):
    """min w1 + w2 + weight * ||w||_2 on the segment w1 + w2 = total, w >= 0."""
    best, best_w = np.inf, None
    for w1 in np.linspace(0.0, total, steps):
        w = np.array([w1, total - w1])
        val = total + weight * float(np.linalg.norm(w))
        if val < best:
            best, best_w = val, w
    return best, best_w


def segment_lp():
    return LinearProgram(c=[1.0, 1.0], E=[[1.0, 1.0]], b=[6.0], lo=[0.0, 0.0])


class TestWorkedInstances:
    def test_unit_weight_spreads_evenly(self):
        oracle_val, oracle_w = segment_scan_oracle(1.0)
        assert oracle_val == pytest.approx(6.0 + 3.0 * np.sqrt(2.0), abs=1e-8)
        assert oracle_w == pytest.approx([3.0, 3.0], abs=1e-4)
        res = solve_norm_augmented(segment_lp(), 1.0, np.eye(2))
        assert res.status is NormAugmentedStatus.OPTIMAL
        assert res.objective == pytest.approx(6.0 + 3.0 * np.sqrt(2.0), rel=1e-9)
        assert res.x == pytest.approx([3.0, 3.0], abs=1e-4)

    def test_large_weight_same_minimizer(self):
        oracle_val, _ = segment_scan_oracle(100.0)
        res = solve_norm_augmented(segment_lp(), 100.0, np.eye(2))
        assert res.status is NormAugmentedStatus.OPTIMAL
        assert res.objective == pytest.approx(6.0 + 300.0 * np.sqrt(2.0), rel=1e-9)
        assert res.objective == pytest.approx(oracle_val, rel=1e-6)
        assert res.x == pytest.approx([3.0, 3.0], abs=1e-3)

    def test_zero_weight_reduces_to_lp(self):
        lp = segment_lp()
        plain = solve_lp(lp)
        res = solve_norm_augmented(lp, 0.0, np.eye(2))
        assert res.status is NormAugmentedStatus.OPTIMAL
        assert res.cuts == 0
        assert res.gap == 0.0
        assert res.stats == plain.stats
        assert res.objective == plain.objective_value
        assert np.array_equal(res.x, plain.x)

    def test_infeasible_propagates(self):
        # a day 2 kW short at its one step: the first master's phase one
        # raises with the shortfall the feasibility report is made from
        sc = make_scenario([(1, 1), (1, 1)], [5.0, 5.0], [1.0], socket=7.0, capacity=8.0)
        lp, var_index = scheduling_lp(sc)
        with pytest.raises(Infeasible) as err:
            solve_norm_augmented(lp, 1.0, totals_map(sc, var_index),
                                 start=least_cost_start(sc, var_index))
        report = check_feasibility(sc)
        assert err.value.shortfall == report.total_load - report.max_flow == 2.0

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            solve_norm_augmented(segment_lp(), -1.0, np.eye(2))


class TestCertificates:
    def test_lower_bound_below_objective(self):
        for weight in (0.1, 1.0, 10.0):
            res = solve_norm_augmented(segment_lp(), weight, np.eye(2))
            assert res.lower_bound <= res.objective + 1e-12
            assert res.gap >= -1e-12
            assert res.gap <= max(1e-9, 1e-10 * abs(res.objective)) + 1e-12

    def test_objective_nondecreasing_in_weight(self):
        values = [
            solve_norm_augmented(segment_lp(), w, np.eye(2)).objective
            for w in (0.0, 0.1, 1.0, 10.0)
        ]
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))

    def test_degenerate_norm_point(self):
        # minimizer has M x = 0: the norm term vanishes, and the first
        # master's optimum meets both bounds, so the loop stops there
        lp = LinearProgram(c=[1.0], G=[[-1.0]], h=[0.0], lo=[0.0], up=[5.0])
        res = solve_norm_augmented(lp, 2.0, np.eye(1))
        assert res.status is NormAugmentedStatus.OPTIMAL
        assert res.cuts == 0
        assert res.objective == pytest.approx(0.0, abs=1e-12)
        assert res.norm_value == pytest.approx(0.0, abs=1e-12)

    def test_zero_norm_at_the_master_optimum_stops_the_loop(self, monkeypatch):
        # no supporting hyperplane separates M x = 0, so even with the
        # bounds kept apart the loop stops there without a cut
        monkeypatch.setattr(socp_module, "_converged", lambda upper, lower: False)
        lp = LinearProgram(c=[1.0], G=[[-1.0]], h=[0.0], lo=[0.0], up=[5.0])
        res = solve_norm_augmented(lp, 2.0, np.eye(1))
        assert (res.status, res.cuts) == (NormAugmentedStatus.CUT_LIMIT, 0)

    @pytest.mark.parametrize("upper", [np.inf, np.nan])
    def test_non_finite_upper_bound_never_converges(self, upper):
        # inf - lower <= GAP_REL_TOL * inf would read as converged
        assert not socp_module._converged(upper, 0.0)

    def test_cut_limit_reports_gap(self, monkeypatch):
        # starved of cuts, the solver must return its best iterate honestly
        monkeypatch.setattr(socp_module, "MAX_CUTS", 1)
        res = solve_norm_augmented(segment_lp(), 1.0, np.eye(2))
        assert res.status is NormAugmentedStatus.CUT_LIMIT
        assert res.gap > 0
        assert res.objective >= 6.0 + 3.0 * np.sqrt(2.0) - 1e-9

    def test_rectangular_norm_map(self):
        # penalize only the first coordinate: optimum pushes mass to w2
        res = solve_norm_augmented(segment_lp(), 1.0, np.array([[1.0, 0.0]]))
        assert res.status is NormAugmentedStatus.OPTIMAL
        assert res.objective == pytest.approx(6.0, abs=1e-8)
        assert res.x == pytest.approx([0.0, 6.0], abs=1e-6)


def robust_day(seed):
    """A seeded small day and its robust-price master data (radius 0.5)."""
    sc = random_scenario(np.random.default_rng(seed), horizon_steps=6,
                         max_vehicles=3, scenario_id=f"day{seed}")
    lp, var_index = scheduling_lp(sc)
    return lp, totals_map(sc, var_index)


def cold_master(lp, weight, cut_rows):
    """The master with the cuts u_k . (M x) <= tau stacked as rows
    [cut_rows | -1] <= 0, built from scratch."""
    master = _augmented(lp, weight)
    cuts = np.hstack([cut_rows, -np.ones((cut_rows.shape[0], 1))])
    return LinearProgram(c=master.c, G=np.vstack([master.G, cuts]),
                         h=np.append(master.h, np.zeros(cut_rows.shape[0])),
                         E=master.E, b=master.b, lo=master.lo, up=master.up)


def assert_master_certified(sol):
    assert sol.max_residual <= FEASIBILITY_TOL
    assert abs(sol.duality_gap) <= lp_module.DUALITY_GAP_TOL * max(1.0, abs(sol.objective_value))


def assert_warm_master_matches_cold(lp, M, radius, monkeypatch):
    """Solve with every cut recorded, then re-solve the final master from
    scratch: both must be certified at the same optimum.  Returns the
    solve's result."""
    added = []
    add = lp_module._Simplex.add_inequality

    def record(self, g, h):
        sol = add(self, g, h)
        added.append((np.array(g[:-1]), sol))
        return sol

    monkeypatch.setattr(lp_module._Simplex, "add_inequality", record)
    res = solve_norm_augmented(lp, radius, M)
    monkeypatch.undo()
    assert len(added) == res.cuts
    if added:
        warm = added[-1][1]
        cold = solve_lp(cold_master(lp, radius, np.array([g for g, _ in added])))
        assert_master_certified(warm)
        assert_master_certified(cold)
        scale = max(1.0, abs(cold.objective_value))
        assert abs(warm.objective_value - cold.objective_value) <= GAP_REL_TOL * scale
    return res


class TestWarmMaster:
    @pytest.mark.parametrize("seed", [2, 3, 8])
    def test_final_master_matches_cold_solve(self, seed, monkeypatch):
        # every cut is added to one live simplex; re-solving the final
        # master from scratch must give the same certified optimum
        added = []
        add = lp_module._Simplex.add_inequality

        def record(self, g, h):
            sol = add(self, g, h)
            added.append((np.array(g), sol))
            return sol

        monkeypatch.setattr(lp_module._Simplex, "add_inequality", record)
        lp, M = robust_day(seed)
        res = solve_norm_augmented(lp, 0.5, M)
        assert res.status is NormAugmentedStatus.OPTIMAL
        assert len(added) == res.cuts >= 5
        cut_rows = np.array([g[:-1] for g, _ in added])
        assert np.all(np.array([g[-1] for g, _ in added]) == -1.0)
        warm = added[-1][1]
        cold = solve_lp(cold_master(lp, 0.5, cut_rows))
        assert_master_certified(warm)
        assert_master_certified(cold)
        scale = max(1.0, abs(cold.objective_value))
        assert abs(warm.objective_value - cold.objective_value) <= GAP_REL_TOL * scale

    @pytest.mark.parametrize("radius", [0.5, 2.0])
    def test_seeded_days_match_cold_solves(self, radius, monkeypatch):
        # the dual simplex re-optimizes every cut: over a seeded sweep of
        # small days the final warm master is the cold one
        rng = np.random.default_rng(20241018)
        cuts = 0
        for k in range(10):
            sc = random_scenario(rng, horizon_steps=6, max_vehicles=3, scenario_id=f"d{k}")
            lp, var_index = scheduling_lp(sc)
            res = assert_warm_master_matches_cold(lp, totals_map(sc, var_index), radius,
                                                  monkeypatch)
            assert res.status is NormAugmentedStatus.OPTIMAL
            cuts += res.cuts
        assert cuts >= 100

    def test_counts_repeat_exactly(self):
        lp, M = robust_day(8)
        first = solve_norm_augmented(lp, 0.5, M)
        second = solve_norm_augmented(lp, 0.5, M)
        assert (first.cuts, first.stats) == (second.cuts, second.stats)
        assert np.array_equal(first.x, second.x)
        # pinned: a change here means the pivot sequence changed
        assert (first.cuts, first.stats.pivots) == (25, 37)

    def test_counters_pinned(self, monkeypatch):
        # a cut refactors only when the pivot count since the last
        # refactorization reaches _REFACTOR_EVERY, counted across cuts, or
        # when its certificate fails; the first master makes three (its
        # starting basis, after phase one and after phase two, which pivots
        # on this day: a phase two without pivots keeps the fresh inverse).
        # This day's cuts make 32 dual pivots in all, so none refactors.
        per_cut = []
        add = lp_module._Simplex.add_inequality

        def record(self, g, h):
            before = (self.stats.refactorizations, self.stats.dual_pivots)
            sol = add(self, g, h)
            per_cut.append((self.stats.refactorizations - before[0],
                            self.stats.dual_pivots - before[1]))
            return sol

        monkeypatch.setattr(lp_module._Simplex, "add_inequality", record)
        lp, M = robust_day(8)
        res = solve_norm_augmented(lp, 0.5, M)
        assert len(per_cut) == res.cuts
        assert res.stats.dual_pivots == sum(dual for _, dual in per_cut) < lp_module._REFACTOR_EVERY
        assert all(refactors == 0 for refactors, _ in per_cut)
        # every pivot of this day moves its entering column and takes a
        # nonzero dual step, so no run of degenerate pivots switches the
        # simplex to Bland's rule
        assert res.cuts == 25
        assert res.stats == SolveStats(pivots=37, phase_one_pivots=4, dual_pivots=32,
                                       zero_dual_steps=0, degenerate_pivots=0,
                                       bland_switches=0, refactorizations=3)

    def test_cuts_refactor_on_the_pivot_schedule(self, monkeypatch):
        # one master grown by 61 cuts: the refactorization count holds still
        # until _REFACTOR_EVERY pivots have passed since the last one, across
        # cuts, and every master is certified at the optimum of a cold solve
        # of the same rows
        masters = []
        add = lp_module._Simplex.add_inequality

        def record(self, g, h):
            if not masters:
                masters.append((self.stats.pivots, self.stats.refactorizations))
            sol = add(self, g, h)
            masters.append((np.array(g[:-1]), sol, self.stats.pivots,
                            self.stats.refactorizations))
            return sol

        monkeypatch.setattr(lp_module._Simplex, "add_inequality", record)
        lp, M = robust_day(39)
        res = solve_norm_augmented(lp, 2.0, M)
        monkeypatch.undo()
        (first_pivots, first_refactors), *cuts = masters
        assert len(cuts) == res.cuts
        every = lp_module._REFACTOR_EVERY
        for k, (_, warm, pivots, refactors) in enumerate(cuts):
            assert refactors == first_refactors + (pivots - first_pivots) // every
            cold = solve_lp(cold_master(lp, 2.0, np.array([g for g, *_ in cuts[: k + 1]])))
            assert_master_certified(warm)
            assert_master_certified(cold)
            scale = max(1.0, abs(cold.objective_value))
            assert abs(warm.objective_value - cold.objective_value) <= GAP_REL_TOL * scale
        assert res.status is NormAugmentedStatus.OPTIMAL
        # pinned: two refactorizations over 130 dual pivots, 13 of which take
        # a zero dual step though every entering column moves
        assert res.cuts == 61
        assert res.stats == SolveStats(pivots=142, phase_one_pivots=6, dual_pivots=130,
                                       zero_dual_steps=13, degenerate_pivots=0,
                                       bland_switches=0, refactorizations=5)

    def test_pivots_count_every_master(self):
        # each violated cut needs at least one dual pivot to bring its slack
        # back to its bound, and the cold first master needs some too
        lp, M = robust_day(8)
        res = solve_norm_augmented(lp, 0.5, M)
        assert res.stats.pivots > res.cuts
        plain = solve_norm_augmented(lp, 0.0, M)
        assert plain.stats.pivots == solve_lp(lp).stats.pivots > 0

    def test_master_failing_after_a_cut_is_a_numerical_failure(self, monkeypatch):
        # tau can rise to meet any cut, so a grown master that raises
        # Infeasible is a solver failure, not an infeasible day
        def infeasible(self, g, h):
            raise Infeasible(None)

        monkeypatch.setattr(lp_module._Simplex, "add_inequality", infeasible)
        lp, M = robust_day(8)
        with pytest.raises(NumericalFailure, match="infeasible after 1 cuts"):
            solve_norm_augmented(lp, 0.5, M)


def lp_violation(lp, x):
    """The largest violation of the LP's rows and bounds at x."""
    return max(np.max(lp.G @ x - lp.h, initial=0.0),
               np.max(np.abs(lp.E @ x - lp.b), initial=0.0),
               np.max(lp.lo - x, initial=0.0),
               np.max(x - lp.up, initial=0.0))


class TestOptimality:
    """The returned x may be an in-out separation point rather than a master
    vertex, so it is checked against the LP and a local optimizer alone."""

    @pytest.mark.parametrize("radius", [0.5, 2.0])
    def test_seeded_days_are_optimal(self, radius):
        minimize = pytest.importorskip("scipy.optimize").minimize
        rng = np.random.default_rng(7)
        separation_points = 0
        for k in range(12):
            sc = random_scenario(rng, horizon_steps=6, max_vehicles=3, scenario_id=f"d{k}")
            lp, var_index = scheduling_lp(sc)
            M = totals_map(sc, var_index)
            res = solve_norm_augmented(lp, radius, M)
            assert res.status is NormAugmentedStatus.OPTIMAL
            x = res.x
            separation_points += not np.array_equal(x, res.lp_solution.x[: lp.num_vars])

            def f(z):
                return float(lp.c @ z) + radius * float(np.linalg.norm(M @ z))

            def grad(z):
                v = M @ z
                return lp.c + radius * (M.T @ v) / np.linalg.norm(v)

            tol = max(GAP_ABS_TOL, GAP_REL_TOL * max(1.0, abs(res.objective)))
            assert lp_violation(lp, x) <= FEASIBILITY_TOL
            assert res.objective == pytest.approx(f(x), rel=1e-14, abs=1e-14)
            assert res.lower_bound <= res.objective + 1e-12
            assert res.objective <= res.lower_bound + tol
            # a local optimizer started at x finds no feasible point better
            # by more than the loop's tolerance
            constraints = [{"type": "ineq", "fun": lambda z: lp.h - lp.G @ z,
                            "jac": lambda z: -lp.G}]
            if lp.E.shape[0]:
                constraints.append({"type": "eq", "fun": lambda z: lp.E @ z - lp.b,
                                    "jac": lambda z: lp.E})
            oracle = minimize(f, x, jac=grad, method="SLSQP",
                              bounds=list(zip(lp.lo, lp.up)), constraints=constraints,
                              options={"ftol": 1e-14, "maxiter": 500})
            assert lp_violation(lp, oracle.x) <= FEASIBILITY_TOL
            assert f(oracle.x) >= res.objective - tol
        assert separation_points > 0
