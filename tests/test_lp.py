"""LP solver tests, checked against brute-force vertex enumeration."""

import itertools

import numpy as np
import pytest

from evsched import PriceBall, optimize_nominal, optimize_robust_price
from evsched.solver import LinearProgram, LpStatus, NumericalFailure, solve_lp
from evsched.solver import lp as lp_module
from evsched.synth import random_scenario


def enumerate_optimum(lp, grid=None):
    """Independent oracle for 2-variable LPs: evaluate the objective at
    every intersection of active constraint/bound pairs and keep the best
    feasible point."""
    n = lp.num_vars
    assert n == 2
    rows = [(lp.G[k], lp.h[k]) for k in range(lp.G.shape[0])]
    for k in range(lp.E.shape[0]):
        rows.append((lp.E[k], lp.b[k]))
        rows.append((-lp.E[k], -lp.b[k]))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        if np.isfinite(lp.lo[j]):
            rows.append((-e, -lp.lo[j]))
        if np.isfinite(lp.up[j]):
            rows.append((e, lp.up[j]))

    def feasible(x):
        for a, rhs in rows:
            if a @ x > rhs + 1e-9:
                return False
        return True

    best, best_x = np.inf, None
    for (a1, b1), (a2, b2) in itertools.combinations(rows, 2):
        A = np.array([a1, a2])
        if abs(np.linalg.det(A)) < 1e-12:
            continue
        x = np.linalg.solve(A, np.array([b1, b2]))
        if feasible(x) and lp.c @ x < best:
            best, best_x = float(lp.c @ x), x
    return best, best_x


def assert_certified(sol):
    assert sol.status is LpStatus.OPTIMAL
    assert sol.max_residual <= 1e-8
    scale = max(1.0, abs(sol.objective_value))
    assert abs(sol.duality_gap) <= 1e-7 * scale
    # weak duality
    assert sol.dual_objective <= sol.objective_value + 1e-7 * scale


class TestExamples:
    def test_bound_active(self):
        sol = solve_lp(LinearProgram(c=[1.0], lo=[3.0], up=[np.inf]))
        assert_certified(sol)
        assert sol.x[0] == pytest.approx(3.0, abs=1e-12)
        assert sol.objective_value == pytest.approx(3.0, abs=1e-12)

    def test_two_variable_vertex(self):
        lp = LinearProgram(c=[2.0, 1.0], G=[[-1.0, -1.0]], h=[-5.0],
                           lo=[0.0, 0.0], up=[7.0, 7.0])
        oracle_obj, oracle_x = enumerate_optimum(lp)
        assert oracle_obj == pytest.approx(5.0)
        assert oracle_x == pytest.approx([0.0, 5.0])
        sol = solve_lp(lp)
        assert_certified(sol)
        assert sol.objective_value == pytest.approx(oracle_obj, abs=1e-9)
        assert sol.x == pytest.approx([0.0, 5.0], abs=1e-9)

    def test_infeasible_bounds_vs_row(self):
        lp = LinearProgram(c=[1.0], G=[[-1.0], [1.0]], h=[-1.0, 0.0],
                           lo=[-np.inf], up=[np.inf])
        assert solve_lp(lp).status is LpStatus.INFEASIBLE

    def test_unbounded(self):
        lp = LinearProgram(c=[-1.0], G=[[-1.0]], h=[0.0])
        assert solve_lp(lp).status is LpStatus.UNBOUNDED

    def test_equality_system(self):
        lp = LinearProgram(c=[1.0, 2.0], E=[[1.0, 1.0]], b=[4.0], lo=[0, 0])
        sol = solve_lp(lp)
        assert_certified(sol)
        assert sol.x == pytest.approx([4.0, 0.0], abs=1e-9)
        assert sol.objective_value == pytest.approx(4.0)

    def test_free_variable(self):
        # min x1 with x1 + x2 = 1, x2 <= 0 free x1 -> x1 unconstrained below? no:
        # x1 = 1 - x2 >= 1, so optimum 1 at x2 = 0.
        lp = LinearProgram(c=[1.0, 0.0], E=[[1.0, 1.0]], b=[1.0],
                           lo=[-np.inf, -np.inf], up=[np.inf, 0.0])
        sol = solve_lp(lp)
        assert_certified(sol)
        assert sol.objective_value == pytest.approx(1.0, abs=1e-9)

    def test_negative_costs_bounded_by_box(self):
        lp = LinearProgram(c=[-1.0, -2.0], G=[[1.0, 1.0]], h=[3.0],
                           lo=[0, 0], up=[2.0, 2.0])
        oracle_obj, _ = enumerate_optimum(lp)
        sol = solve_lp(lp)
        assert_certified(sol)
        assert sol.objective_value == pytest.approx(oracle_obj, abs=1e-9)


class TestRandomized:
    def test_matches_enumeration_on_random_2d(self):
        rng = np.random.default_rng(2024)
        solved = 0
        for _ in range(120):
            m = int(rng.integers(1, 5))
            G = rng.normal(0, 1, (m, 2))
            x0 = rng.uniform(0, 3, 2)  # G x0 <= h by construction: feasible
            h = G @ x0 + rng.uniform(0.1, 2.0, m)
            lp = LinearProgram(
                c=rng.normal(0, 1, 2), G=G, h=h,
                lo=np.zeros(2), up=rng.uniform(3.5, 8.0, 2),
            )
            oracle_obj, _ = enumerate_optimum(lp)
            sol = solve_lp(lp)
            assert sol.status is LpStatus.OPTIMAL
            assert_certified(sol)
            assert sol.objective_value == pytest.approx(
                oracle_obj, rel=1e-7, abs=1e-8
            )
            solved += 1
        assert solved == 120

    def test_weak_duality_on_random_instances(self):
        rng = np.random.default_rng(99)
        for _ in range(60):
            n = int(rng.integers(2, 8))
            m = int(rng.integers(1, 6))
            G = rng.normal(0, 1, (m, n))
            x0 = rng.uniform(0, 2, n)
            h = G @ x0 + rng.uniform(0.05, 1.0, m)
            lp = LinearProgram(c=rng.normal(0, 1, n), G=G, h=h,
                               lo=np.zeros(n), up=np.full(n, 5.0))
            sol = solve_lp(lp)
            assert_certified(sol)

    def test_determinism(self):
        rng = np.random.default_rng(5)
        n, m = 6, 4
        G = rng.normal(0, 1, (m, n))
        h = G @ rng.uniform(0, 2, n) + 0.5
        lp = LinearProgram(c=rng.normal(0, 1, n), G=G, h=h,
                           lo=np.zeros(n), up=np.full(n, 4.0))
        a = solve_lp(lp)
        b = solve_lp(lp)
        assert np.array_equal(a.x, b.x)
        assert a.objective_value == b.objective_value
        assert a.iterations == b.iterations


class TestCrossCheck:
    def test_against_scipy_highs(self):
        """Differential check against an unrelated LP implementation."""
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(777)
        for _ in range(300):
            n = int(rng.integers(1, 10))
            mG = int(rng.integers(0, 6))
            mE = int(rng.integers(0, min(n, 3)))
            G = rng.normal(0, 1, (mG, n)) if mG else None
            E = rng.normal(0, 1, (mE, n)) if mE else None
            lo = np.where(rng.random(n) < 0.7, rng.uniform(-2, 0, n), -np.inf)
            up = np.where(rng.random(n) < 0.7, rng.uniform(0.5, 4, n), np.inf)
            if rng.random() < 0.6:
                x0 = np.clip(rng.uniform(-1, 2, n), lo, up)
                h = G @ x0 + rng.uniform(0, 1.5, mG) if mG else None
                b = E @ x0 if mE else None
            else:
                h = rng.normal(0, 2, mG) if mG else None
                b = rng.normal(0, 2, mE) if mE else None
            lp = LinearProgram(c=rng.normal(0, 1, n), G=G, h=h, E=E, b=b,
                               lo=lo, up=up)
            mine = solve_lp(lp)
            ref = linprog(lp.c, A_ub=G, b_ub=h, A_eq=E, b_eq=b,
                          bounds=list(zip(lo, up)), method="highs")
            if ref.status == 0:
                assert mine.status is LpStatus.OPTIMAL
                assert mine.objective_value == pytest.approx(
                    ref.fun, rel=1e-7, abs=1e-8
                )
            elif ref.status in (2, 3):
                # HiGHS presolve may report infeasible for unbounded
                # instances (and vice versa), so settle it with an
                # explicit feasibility probe.
                probe = linprog(np.zeros(n), A_ub=G, b_ub=h, A_eq=E, b_eq=b,
                                bounds=list(zip(lo, up)), method="highs")
                expected = (
                    LpStatus.UNBOUNDED if probe.status == 0 else LpStatus.INFEASIBLE
                )
                assert mine.status is expected


class TestDegeneracy:
    def test_redundant_rows(self):
        # same constraint stacked four times
        lp = LinearProgram(c=[1.0, 1.0],
                           G=[[-1.0, -1.0]] * 4, h=[-2.0] * 4,
                           lo=[0, 0], up=[5, 5])
        sol = solve_lp(lp)
        assert_certified(sol)
        assert sol.objective_value == pytest.approx(2.0, abs=1e-9)

    def test_redundant_equalities(self):
        lp = LinearProgram(c=[1.0, 0.0],
                           E=[[1.0, 1.0], [2.0, 2.0]], b=[3.0, 6.0],
                           lo=[0, 0], up=[5, 5])
        sol = solve_lp(lp)
        assert_certified(sol)
        assert sol.objective_value == pytest.approx(0.0, abs=1e-9)

    def test_beale_cycling_instance(self):
        # classic cycling example for naive pivoting; Bland fallback must
        # terminate with the known optimum -0.05
        c = np.array([-0.75, 150.0, -0.02, 6.0])
        G = np.array([
            [0.25, -60.0, -1.0 / 25.0, 9.0],
            [0.5, -90.0, -1.0 / 50.0, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ])
        h = np.array([0.0, 0.0, 1.0])
        sol = solve_lp(LinearProgram(c=c, G=G, h=h, lo=np.zeros(4)))
        assert_certified(sol)
        assert sol.objective_value == pytest.approx(-0.05, abs=1e-9)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_non_finite_cost_fails_certification(self, bad):
        # a NaN objective or gap must not pass as a certified optimum; the
        # constructor rejects non-finite data, so poke it in afterwards
        lp = LinearProgram(c=[0.0, 1.0], G=[[-1.0, -1.0]], h=[-2.0],
                           lo=[0, 0], up=[5, 5])
        lp.c[0] = bad
        with pytest.raises(NumericalFailure, match="certification failed"):
            solve_lp(lp)


    def finite_parts(self):
        return dict(c=[1.0, 1.0], G=[[-1.0, -1.0]], h=[-2.0], E=[[1.0, -1.0]],
                    b=[0.0], lo=[0.0, 0.0], up=[5.0, 5.0])

    @pytest.mark.parametrize("field", ["c", "G", "h", "E", "b"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_rejected(self, field, bad):
        parts = self.finite_parts()
        data = np.array(parts[field], dtype=float)
        data.flat[0] = bad
        parts[field] = data
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            LinearProgram(**parts)

    @pytest.mark.parametrize("field", ["lo", "up"])
    def test_nan_bound_rejected(self, field):
        parts = self.finite_parts()
        parts[field] = [np.nan, 1.0]
        with pytest.raises(ValueError, match="bounds must not be NaN"):
            LinearProgram(**parts)

    def test_nan_rhs_no_longer_reaches_the_ratio_test(self):
        # used to fail inside the ratio test with a bare reduction error
        with pytest.raises(ValueError, match="h must be finite"):
            LinearProgram(c=[1, 1], G=[[-1, -1]], h=[np.nan], lo=[0, 0], up=[5, 5])

    def test_infinite_bounds_allowed(self):
        sol = solve_lp(LinearProgram(c=[1.0, -1.0], G=[[1.0, 1.0]], h=[3.0],
                                     lo=[-1.0, -np.inf], up=[np.inf, 2.0]))
        assert_certified(sol)
        assert sol.objective_value == pytest.approx(-3.0, abs=1e-9)


class TestAddInequality:
    """Rows appended to a solved simplex must give the cold solve's optimum."""

    def base(self):
        # equality rows sit after the inequality rows, so the new row and its
        # slack are inserted mid-matrix rather than appended
        return LinearProgram(c=[-1.0, -2.0, 0.5], G=[[1.0, 1.0, 0.0]], h=[4.0],
                             E=[[1.0, 0.0, -1.0]], b=[1.0], lo=[0, 0, 0], up=[5, 3, 5])

    def grown(self, g, h):
        lp = self.base()
        return LinearProgram(c=lp.c, G=np.vstack([lp.G, g]), h=np.append(lp.h, h),
                             E=lp.E, b=lp.b, lo=lp.lo, up=lp.up)

    @pytest.mark.parametrize("g, h", [
        ([0.0, 1.0, 0.0], 1.5),  # violated at the first optimum
        ([1.0, 0.0, 0.0], 5.0),  # already satisfied
        ([-1.0, -1.0, 1.0], -1.0),
    ])
    def test_matches_cold_solve(self, g, h):
        simplex = lp_module._Simplex(self.base())
        assert_certified(simplex.solve())
        warm = simplex.add_inequality(np.array(g), h)
        cold = solve_lp(self.grown(g, h))
        assert_certified(warm)
        assert_certified(cold)
        assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-9)
        assert warm.dual_ineq.shape == (2,)
        assert warm.dual_eq.shape == (1,)

    def test_satisfied_row_keeps_the_optimum(self):
        simplex = lp_module._Simplex(self.base())
        first = simplex.solve()
        warm = simplex.add_inequality(np.array([1.0, 0.0, 0.0]), 5.0)
        assert warm.objective_value == pytest.approx(first.objective_value, abs=1e-12)

    def test_infeasible_row(self):
        simplex = lp_module._Simplex(self.base())
        simplex.solve()
        warm = simplex.add_inequality(np.array([-1.0, 0.0, 0.0]), -6.0)
        assert warm.status is LpStatus.INFEASIBLE

    def test_repeated_rows(self):
        simplex = lp_module._Simplex(self.base())
        simplex.solve()
        for k in range(4):
            warm = simplex.add_inequality(np.array([0.0, 1.0, 0.0]), 2.5 - 0.5 * k)
            assert_certified(warm)
        cold = solve_lp(LinearProgram(
            c=[-1.0, -2.0, 0.5], G=[[1.0, 1.0, 0.0]] + [[0.0, 1.0, 0.0]] * 4,
            h=[4.0, 2.5, 2.0, 1.5, 1.0], E=[[1.0, 0.0, -1.0]], b=[1.0],
            lo=[0, 0, 0], up=[5, 3, 5]))
        assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-9)


class TestPricing:
    """Frozen artificials (lo = up = 0 after phase one) may never enter."""

    @pytest.fixture
    def entering(self, monkeypatch):
        picks = []
        choose = lp_module._Simplex.choose_entering

        def record(self, d, bland):
            j = choose(self, d, bland)
            if j >= 0:
                picks.append(bool(self.enterable[j]))
            return j

        monkeypatch.setattr(lp_module._Simplex, "choose_entering", record)
        return picks

    @pytest.mark.parametrize("seed", range(5))
    def test_nominal_days_never_enter_a_barred_column(self, seed, entering):
        rng = np.random.default_rng(seed)
        for k in range(4):
            optimize_nominal(random_scenario(rng, horizon_steps=24, max_vehicles=30))
        assert entering and all(entering)

    @pytest.mark.parametrize("seed", range(3))
    def test_robust_days_never_enter_a_barred_column(self, seed, entering):
        sc = random_scenario(np.random.default_rng(seed), horizon_steps=6,
                             max_vehicles=3)
        res = optimize_robust_price(sc, PriceBall.around(sc, 0.5))
        assert res.cuts > 0
        assert entering and all(entering)
