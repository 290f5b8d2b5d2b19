"""Cutting-plane tests for the norm-augmented objective.

The worked instances have 1-D feasible segments, so a dense scan over the
segment is an independent oracle for both the minimizer and the value.
Every OPTIMAL result this module obtains must pass `certify` on its own
certificate (`solve_norm_augmented` below checks it); the tests that exist
for the cuts decline the polish (`no_polish`).
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
    certify,
    solve_lp,
)
from evsched.solver import lp as lp_module
from evsched.solver import socp as socp_module
from evsched.solver.socp import GAP_ABS_TOL, GAP_REL_TOL, _converged, _master
from evsched.synth import random_batch, random_scenario

from conftest import certifying, make_scenario, run_on_one_blas_thread

solve_norm_augmented = certifying(socp_module.solve_norm_augmented)


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
    return LinearProgram(c=[1.0, 1.0], E=[[1.0, 1.0]], b=[6.0], lo=[0.0, 0.0], up=[6.0, 6.0])


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
        assert np.linalg.norm(np.eye(1) @ res.x) == pytest.approx(0.0, abs=1e-12)

    def test_zero_norm_at_the_master_optimum_stops_the_loop(self, monkeypatch):
        # no supporting hyperplane separates M x = 0, so even with the
        # bounds kept apart the loop stops there without a cut.  The simplex
        # accepts the master by `lp._converged`, which the patch leaves alone
        monkeypatch.setattr(socp_module, "_converged", lambda upper, lower: False)
        lp = LinearProgram(c=[1.0], G=[[-1.0]], h=[0.0], lo=[0.0], up=[5.0])
        res = solve_norm_augmented(lp, 2.0, np.eye(1))
        assert (res.status, res.cuts) == (NormAugmentedStatus.CUT_LIMIT, 0)

    @pytest.mark.parametrize("upper", [np.inf, np.nan])
    def test_non_finite_upper_bound_never_converges(self, upper):
        # inf - lower <= GAP_REL_TOL * inf would read as converged
        assert not socp_module._converged(upper, 0.0)

    def test_cut_limit_reports_gap(self, monkeypatch, no_polish):
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
    """A seeded small day's LP, norm map and least-cost start."""
    sc = random_scenario(np.random.default_rng(seed), horizon_steps=6,
                         max_vehicles=3, scenario_id=f"day{seed}")
    lp, var_index = scheduling_lp(sc)
    return lp, totals_map(sc, var_index), least_cost_start(sc, var_index)


def cold_master(lp, M, weight, cut_rows):
    """The master with the cuts u_k . (M x) <= tau stacked as rows
    [cut_rows | -1] <= 0, built from scratch."""
    master = _master(lp, weight, M, np.empty((0, M.shape[0])), None)[0]
    cuts = np.hstack([cut_rows, -np.ones((cut_rows.shape[0], 1))])
    return LinearProgram(c=master.c, G=np.vstack([master.G, cuts]),
                         h=np.append(master.h, np.zeros(cut_rows.shape[0])),
                         E=master.E, b=master.b, lo=master.lo, up=master.up)


@pytest.mark.parametrize("big, cap", [(1e300, 2.8284271247461903e300),
                                      (1.7e308, np.finfo(float).max)])
def test_tau_is_capped_at_the_reach(big, cap):
    # the reach || |M| max(|lo|, |up|) || is 2 sqrt(2) big: a float at 1e300,
    # though squaring its entries overflows, and past the float range at
    # 1.7e308, where the cap is the largest float
    sc = make_scenario([(1, 2), (1, 2)], [5.0, 5.0], [2.0, 1.0], socket=big, capacity=big)
    lp, var_index = scheduling_lp(sc)
    M = totals_map(sc, var_index)
    master, _ = _master(lp, 0.5, M, np.empty((0, M.shape[0])), None)
    assert master.up[-1] == cap


def assert_master_certified(master, sol):
    """`certify` at the master solution's multipliers, with no norm term:
    its point meets `master`, and the bound meets its objective at the
    loop's tolerances."""
    upper, lower, residual = certify(master, np.zeros((0, master.num_vars)), 0.0, sol.x,
                                     sol.dual_ineq, sol.dual_eq, np.zeros(0))
    assert residual <= FEASIBILITY_TOL
    assert _converged(upper, lower)


def record_masters(patch):
    """Patch `_Simplex.solve` to record every master solved, as (program,
    solution), in the list returned."""
    masters = []
    solve = lp_module._Simplex.solve

    def record(self, start=None):
        sol = solve(self, start)
        masters.append((self.lp, sol))
        return sol

    patch.setattr(lp_module._Simplex, "solve", record)
    return masters


def assert_masters_match_cold(lp, M, radius, monkeypatch, start=None, every=True):
    """Solve with every master recorded.  Each grown master (only the final
    one unless `every`) must be the program `cold_master` builds from the
    cuts so far, certified at the optimum of a solve of that program from
    scratch, and the result's stats must sum every master's.  Returns the
    solve's result."""
    with monkeypatch.context() as patch:
        masters = record_masters(patch)
        res = solve_norm_augmented(lp, radius, M, start=start)
    assert res.stats == sum((sol.stats for _, sol in masters), SolveStats())
    grown = masters[len(masters) - res.cuts:]
    assert len(grown) == res.cuts and len(masters) <= res.cuts + 1
    if grown:
        cut_rows = grown[-1][0].G[lp.G.shape[0]:, :-1]
        for k, (program, warm) in enumerate(grown, 1):
            if not (every or k == res.cuts):
                continue
            master = cold_master(lp, M, radius, cut_rows[:k])
            assert np.array_equal(program.G, master.G) and np.array_equal(program.h, master.h)
            cold = solve_lp(master)
            assert_master_certified(master, warm)
            assert_master_certified(master, cold)
            scale = max(1.0, abs(cold.objective_value))
            assert abs(warm.objective_value - cold.objective_value) <= GAP_REL_TOL * scale
    return res


@pytest.mark.usefixtures("no_polish")
class TestWarmMaster:
    """The masters the cuts grow.  Each is solved anew, with every cut so
    far stacked under the LP's rows, from the loop's start: warm where the
    caller passes the least-cost start, cold from the slack basis where it
    passes none."""

    @pytest.mark.parametrize("seed", [2, 3, 8])
    def test_final_master_matches_cold_solve(self, seed, monkeypatch):
        # every master, the final one too, warm-started from the least-cost
        # start, is certified at the optimum of a cold solve of its rows
        lp, M, start = robust_day(seed)
        res = assert_masters_match_cold(lp, M, 0.5, monkeypatch, start=start)
        assert res.status is NormAugmentedStatus.OPTIMAL
        assert res.cuts >= 5

    @pytest.mark.parametrize("radius", [0.5, 2.0])
    def test_seeded_days_match_cold_solves(self, radius, monkeypatch):
        # over a seeded sweep of small days, each final warm-started master
        # is the cold one
        rng = np.random.default_rng(20241018)
        cuts = 0
        for k in range(10):
            sc = random_scenario(rng, horizon_steps=6, max_vehicles=3, scenario_id=f"d{k}")
            lp, var_index = scheduling_lp(sc)
            res = assert_masters_match_cold(lp, totals_map(sc, var_index), radius, monkeypatch,
                                            start=least_cost_start(sc, var_index), every=False)
            assert res.status is NormAugmentedStatus.OPTIMAL
            cuts += res.cuts
        assert cuts >= 100

    def test_counts_repeat_exactly(self):
        lp, M, _ = robust_day(8)
        first = solve_norm_augmented(lp, 0.5, M)
        second = solve_norm_augmented(lp, 0.5, M)
        assert (first.cuts, first.stats) == (second.cuts, second.stats)
        assert np.array_equal(first.x, second.x)
        # pinned: a change here means the pivot sequence changed
        assert (first.cuts, first.stats.pivots) == (39, 697)

    def test_counters_pinned(self, monkeypatch):
        # each master refactors its basis at its start, after a phase one,
        # every _REFACTOR_EVERY pivots and after a phase two that pivots.
        # Every cut row starts violated, so every grown master of this day
        # runs phase one, pivots in both phases and makes one degenerate
        # pivot, too few to switch the simplex to Bland's rule
        lp, M, _ = robust_day(8)
        with monkeypatch.context() as patch:
            masters = record_masters(patch)
            res = solve_norm_augmented(lp, 0.5, M)
        assert len(masters) == res.cuts + 1
        assert all((sol.stats.refactorizations, sol.stats.degenerate_pivots) == (3, 1)
                   and sol.stats.phase_one_pivots for _, sol in masters[1:])
        assert res.cuts == 39
        assert res.stats == SolveStats(pivots=697, phase_one_pivots=199, degenerate_pivots=39,
                                       bland_switches=0, refactorizations=120)

    def test_pivots_count_every_master(self):
        # each grown master's phase one takes at least one pivot to lift tau
        # to its violated cuts, and the cold first master needs some too
        lp, M, _ = robust_day(8)
        res = solve_norm_augmented(lp, 0.5, M)
        assert res.stats.pivots > res.cuts
        plain = solve_norm_augmented(lp, 0.0, M)
        assert plain.stats.pivots == solve_lp(lp).stats.pivots > 0

    def test_master_failing_after_a_cut_is_a_numerical_failure(self, monkeypatch):
        # tau can rise to meet any cut, so a grown master that raises
        # Infeasible is a solver failure, not an infeasible day
        lp, M, _ = robust_day(8)
        solve = lp_module._Simplex.solve

        def infeasible(self, start=None):
            if self.lp.G.shape[0] > lp.G.shape[0]:  # a grown master
                raise Infeasible(1.0)
            return solve(self, start)

        monkeypatch.setattr(lp_module._Simplex, "solve", infeasible)
        with pytest.raises(NumericalFailure, match="infeasible after 1 cuts"):
            solve_norm_augmented(lp, 0.5, M)


def lp_violation(lp, x):
    """The largest violation of the LP's rows and bounds at x."""
    return max(np.max(lp.G @ x - lp.h, initial=0.0),
               np.max(np.abs(lp.E @ x - lp.b), initial=0.0),
               np.max(lp.lo - x, initial=0.0),
               np.max(x - lp.up, initial=0.0))


class TestOptimality:
    """The returned x may be a polished point rather than a master vertex, so
    it is checked against the LP and a local optimizer alone."""

    @pytest.mark.parametrize("radius", [0.5, 2.0])
    def test_seeded_days_are_optimal(self, radius):
        self.check_seeded_days(radius, polish=True)

    @pytest.mark.parametrize("radius", [0.5, 2.0])
    def test_seeded_days_are_optimal_without_polish(self, radius, no_polish):
        self.check_seeded_days(radius, polish=False)

    @staticmethod
    def check_seeded_days(radius, polish):
        minimize = pytest.importorskip("scipy.optimize").minimize
        rng = np.random.default_rng(7)
        for k in range(12):
            sc = random_scenario(rng, horizon_steps=6, max_vehicles=3, scenario_id=f"d{k}")
            lp, var_index = scheduling_lp(sc)
            M = totals_map(sc, var_index)
            res = solve_norm_augmented(lp, radius, M)
            assert res.status is NormAugmentedStatus.OPTIMAL
            assert res.polished is polish
            x = res.x

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


class TestCertify:
    """`certify` takes a point and multipliers alone, so it can be fed
    anything; whatever it is fed, a bound it returns is valid or fails."""

    @staticmethod
    def passes(bounds):
        upper, lower, residual = bounds
        return residual <= FEASIBILITY_TOL and _converged(upper, lower)

    def test_segment_optimum_certifies(self):
        # w = (3, 3): u = w / ||w||, and the row's multiplier cancels the rest
        u = np.array([1.0, 1.0]) / np.sqrt(2.0)
        nu = np.array([-1.0 - 1.0 / np.sqrt(2.0)])
        upper, lower, residual = certify(segment_lp(), np.eye(2), 1.0, np.array([3.0, 3.0]),
                                         np.zeros(0), nu, u)
        assert residual == 0.0
        assert upper == pytest.approx(6.0 + 3.0 * np.sqrt(2.0), rel=1e-15)
        assert lower == pytest.approx(upper, rel=1e-15)

    def test_nan_point_fails_closed(self):
        lp = segment_lp()
        u = np.array([1.0, 1.0]) / np.sqrt(2.0)
        nu = np.array([-1.0 - 1.0 / np.sqrt(2.0)])
        for x in ([np.nan, 3.0], [3.0, np.nan]):
            upper, _, residual = bounds = certify(lp, np.eye(2), 1.0, np.array(x),
                                                  np.zeros(0), nu, u)
            assert np.isnan(upper) and np.isnan(residual)
            assert not self.passes(bounds)
        # a NaN multiplier or direction makes the lower bound NaN
        for nu_bad, u_bad in ((np.array([np.nan]), u), (nu, np.array([np.nan, 0.0]))):
            bounds = certify(lp, np.eye(2), 1.0, np.array([3.0, 3.0]), np.zeros(0),
                             nu_bad, u_bad)
            assert np.isnan(bounds[1]) and not self.passes(bounds)

    def test_negative_multiplier_is_clipped(self):
        # min x0 + x1 s.t. x0 + x1 >= 2 (as -x0 - x1 <= -2): lam = 1 certifies
        lp = LinearProgram(c=[1.0, 1.0], G=[[-1.0, -1.0], [1.0, 0.0]], h=[-2.0, 5.0],
                           up=[5.0, 5.0])
        x = np.array([2.0, 0.0])
        ok = certify(lp, np.eye(2), 0.0, x, np.array([1.0, 0.0]), np.zeros(0), np.zeros(2))
        clipped = certify(lp, np.eye(2), 0.0, x, np.array([1.0, -3.0]), np.zeros(0),
                          np.zeros(2))
        assert ok == clipped == (2.0, 2.0, 0.0)

    def test_long_direction_is_scaled_to_unit_length(self):
        lp = segment_lp()
        x = np.array([3.0, 3.0])
        nu = np.array([-1.0 - 1.0 / np.sqrt(2.0)])
        unit = np.array([1.0, 1.0]) / np.sqrt(2.0)
        long = certify(lp, np.eye(2), 1.0, x, np.zeros(0), nu, 3.0 * unit)
        assert long[1] == pytest.approx(certify(lp, np.eye(2), 1.0, x, np.zeros(0), nu,
                                                unit)[1], rel=1e-15)
        assert self.passes(long)

    def test_infinite_upper_bound_with_negative_reduced_cost_fails(self):
        # a negative reduced cost against an infinite upper bound would make
        # the bound -inf, so such a program is refused when it is built
        with pytest.raises(ValueError, match="up must be finite"):
            LinearProgram(c=[-1.0, 1.0], G=[[1.0, 1.0]], h=[4.0], up=[np.inf, np.inf])
        # min -x0 + x1 s.t. x0 + x1 <= 4, x in [0, 5]: lam = 1 certifies -4;
        # lam = 0 leaves d0 = -1 against up = 5, a valid bound of -5
        lp = LinearProgram(c=[-1.0, 1.0], G=[[1.0, 1.0]], h=[4.0], up=[5.0, 5.0])
        x = np.array([4.0, 0.0])
        good = certify(lp, np.zeros((1, 2)), 0.0, x, np.array([1.0]), np.zeros(0),
                       np.zeros(1))
        assert good == (-4.0, -4.0, 0.0)
        bad = certify(lp, np.zeros((1, 2)), 0.0, x, np.array([0.0]), np.zeros(0),
                      np.zeros(1))
        assert bad[1] == -5.0 and not self.passes(bad)

    def test_infeasible_point_reports_its_residual(self):
        lp = segment_lp()
        bounds = certify(lp, np.eye(2), 1.0, np.array([3.0, 4.0]), np.zeros(0),
                         np.array([-1.0 - 1.0 / np.sqrt(2.0)]),
                         np.array([1.0, 1.0]) / np.sqrt(2.0))
        assert bounds[2] == 1.0 and not self.passes(bounds)
        bounds = certify(lp, np.eye(2), 1.0, np.array([-1.0, 7.0]), np.zeros(0),
                         np.zeros(1), np.zeros(2))
        assert bounds[2] == 1.0

    def test_lp_duals_give_the_simplex_dual_objective(self):
        # at weight 0 the bound at the simplex's multipliers is the LP dual
        # objective, which meets the simplex's objective to rounding
        for k, sc in enumerate(random_batch(3, 40)):
            lp, var_index = scheduling_lp(sc)
            sol = solve_lp(lp)
            M = totals_map(sc, var_index)
            upper, lower, residual = certify(lp, M, 0.0, sol.x, sol.dual_ineq, sol.dual_eq,
                                             np.zeros(M.shape[0]))
            assert upper == sol.objective_value
            assert residual == float((lp.G @ sol.x - lp.h).max(initial=0.0))
            assert abs(lower - upper) <= 1e-15 * max(1.0, abs(upper)), k


EVERY_MASTER_POLISH = """
import numpy as np
from evsched.nominal import scheduling_lp
from evsched.robust import totals_map
from evsched.solver import socp
from evsched.synth import random_scenario
sc = random_scenario(np.random.default_rng(39), horizon_steps=6, max_vehicles=3,
                     scenario_id="day39")
lp, var_index = scheduling_lp(sc)
faces, calls = [], []
real_face = socp._face

def record(*args):
    face = real_face(*args)
    faces.append(face.tobytes())
    return face

socp._face = record
socp._polish = lambda lp, w, M, sol, face: calls.append(face.tobytes())
res = socp.solve_norm_augmented(lp, 2.0, totals_map(sc, var_index))
print(int(res.polished), res.cuts, int(calls[0] == faces[0]), len(calls))
"""


class TestPolish:
    @pytest.mark.parametrize("radius", [0.5, 2.0])
    def test_full_size_days_certify_at_the_first_master(self, radius):
        # T=24 days of up to 20 vehicles: Kelley's cuts alone stop at the
        # cut limit on some of them at radius 2
        for sc in random_batch(5, 6):
            lp, var_index = scheduling_lp(sc)
            res = solve_norm_augmented(lp, radius, totals_map(sc, var_index),
                                       start=least_cost_start(sc, var_index))
            assert (res.status, res.polished, res.cuts) == (NormAugmentedStatus.OPTIMAL,
                                                            True, 0)
            assert 0.0 <= res.gap <= max(GAP_ABS_TOL, GAP_REL_TOL * abs(res.objective))

    def test_polished_objective_is_not_above_kelley(self, monkeypatch):
        rng = np.random.default_rng(13)
        for k in range(8):
            sc = random_scenario(rng, horizon_steps=6, max_vehicles=3, scenario_id=f"d{k}")
            lp, var_index = scheduling_lp(sc)
            M = totals_map(sc, var_index)
            polished = solve_norm_augmented(lp, 2.0, M)
            with monkeypatch.context() as patch:
                patch.setattr(socp_module, "_polish", lambda *args: None)
                kelley = solve_norm_augmented(lp, 2.0, M)
            assert polished.polished and not kelley.polished
            assert kelley.cuts > polished.cuts
            tol = max(GAP_ABS_TOL, GAP_REL_TOL * abs(kelley.objective))
            assert polished.objective <= kelley.objective + tol
            assert polished.lower_bound >= kelley.lower_bound - tol

    def test_polish_runs_at_every_master(self):
        # a polish that always declines is tried at every master that has
        # not converged, the first master's face first; the cut count is
        # exact, so BLAS on one thread
        polished, cuts, first, calls = map(
            int, run_on_one_blas_thread(EVERY_MASTER_POLISH).split())
        assert (polished, cuts, calls) == (0, 122, 122)
        assert first == 1  # the first master's face

    def test_weight_zero_never_polishes(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("polished at weight 0")

        monkeypatch.setattr(socp_module, "_polish", refuse)
        monkeypatch.setattr(socp_module, "_face", refuse)
        for sc in random_batch(2, 10):
            lp, var_index = scheduling_lp(sc)
            res = solve_norm_augmented(lp, 0.0, totals_map(sc, var_index))
            assert (res.cuts, res.polished, res.gap) == (0, False, 0.0)
