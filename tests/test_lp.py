"""LP solver tests, checked against brute-force vertex enumeration."""

import dataclasses
import itertools

import numpy as np
import pytest

from evsched import Method, solve
from evsched.nominal import scheduling_lp
from evsched.solver import (FEASIBILITY_TOL, Infeasible, LinearProgram, NumericalFailure,
                            SolveStats, certify, solve_lp)
from evsched.solver import lp as lp_module
from evsched.solver.lp import GAP_ABS_TOL, GAP_REL_TOL, _converged
from evsched.synth import random_scenario

from conftest import make_scenario


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


def bounds(lp, sol):
    """`certify`'s (upper, lower, residual) for `lp` at the solution's x and
    multipliers, with no norm term."""
    return certify(lp, np.zeros((0, lp.num_vars)), 0.0, sol.x, sol.dual_ineq, sol.dual_eq,
                   np.zeros(0))


def assert_certified(lp, sol):
    upper, lower, residual = bounds(lp, sol)
    assert residual <= FEASIBILITY_TOL
    assert upper == sol.objective_value
    assert _converged(upper, lower)
    # weak duality, up to what x's residual can be worth
    assert lower <= sol.objective_value + 1e-7 * max(1.0, abs(sol.objective_value))


class TestExamples:
    def test_bound_active(self):
        lp = LinearProgram(c=[1.0], lo=[3.0], up=[10.0])
        sol = solve_lp(lp)
        assert_certified(lp, sol)
        assert sol.x[0] == pytest.approx(3.0, abs=1e-12)
        assert sol.objective_value == pytest.approx(3.0, abs=1e-12)

    def test_two_variable_vertex(self):
        lp = LinearProgram(c=[2.0, 1.0], G=[[-1.0, -1.0]], h=[-5.0],
                           lo=[0.0, 0.0], up=[7.0, 7.0])
        oracle_obj, oracle_x = enumerate_optimum(lp)
        assert oracle_obj == pytest.approx(5.0)
        assert oracle_x == pytest.approx([0.0, 5.0])
        sol = solve_lp(lp)
        assert_certified(lp, sol)
        assert sol.objective_value == pytest.approx(oracle_obj, abs=1e-9)
        assert sol.x == pytest.approx([0.0, 5.0], abs=1e-9)

    def test_infeasible_bounds_vs_row(self):
        lp = LinearProgram(c=[1.0], G=[[-1.0], [1.0]], h=[-1.0, 0.0],
                           lo=[-5.0], up=[5.0])
        with pytest.raises(Infeasible) as err:
            solve_lp(lp)
        # x <= 0 leaves x >= 1 short by 1 at best
        assert err.value.shortfall == pytest.approx(1.0)

    def test_unbounded(self):
        # a column without an upper bound could make a program unbounded;
        # every column must have a finite box, so none is built
        with pytest.raises(ValueError, match="up must be finite"):
            LinearProgram(c=[-1.0], G=[[-1.0]], h=[0.0], up=[np.inf])

    def test_equality_system(self):
        lp = LinearProgram(c=[1.0, 2.0], E=[[1.0, 1.0]], b=[4.0], lo=[0, 0], up=[6, 6])
        sol = solve_lp(lp)
        assert_certified(lp, sol)
        assert sol.x == pytest.approx([4.0, 0.0], abs=1e-9)
        assert sol.objective_value == pytest.approx(4.0)

    def test_negative_costs_bounded_by_box(self):
        lp = LinearProgram(c=[-1.0, -2.0], G=[[1.0, 1.0]], h=[3.0],
                           lo=[0, 0], up=[2.0, 2.0])
        oracle_obj, _ = enumerate_optimum(lp)
        sol = solve_lp(lp)
        assert_certified(lp, sol)
        assert sol.objective_value == pytest.approx(oracle_obj, abs=1e-9)


class TestConstraintFree:
    """A program without rows goes through the simplex like any other:
    each variable ends at the bound its cost prefers."""

    @pytest.mark.parametrize("c, lo, up, objective", [
        ([1.0, -2.0], [0.0, 0.0], [3.0, 4.0], -8.0),
        ([0.0, 1.0], [-3.0, 1.0], [2.0, 4.0], 1.0),
        ([-1.0, 0.5], [-1.0, -2.0], [1.0, 2.0], -2.0),
    ])
    def test_optimal(self, c, lo, up, objective):
        lp = LinearProgram(c=c, lo=lo, up=up)
        sol = solve_lp(lp)
        assert_certified(lp, sol)
        assert sol.objective_value == objective
        upper, lower, _ = bounds(lp, sol)
        assert lower == upper

    @pytest.mark.parametrize("c, lo, up", [
        ([-1.0], [-5.0], [np.inf]),
        ([0.0, -1.0], [0.0, 0.0], [1.0, np.inf]),
    ])
    def test_unbounded(self, c, lo, up):
        # the last column has no upper bound and a negative cost, which would
        # be a ray: the program is refused
        with pytest.raises(ValueError, match="up must be finite"):
            LinearProgram(c=c, lo=lo, up=up)


class TestNoVariables:
    """A program with no variables is valid: its only point is the empty
    vector, which satisfies every row whose right-hand side allows 0."""

    @pytest.mark.parametrize("rows", [
        {},
        {"G": np.zeros((2, 0)), "h": [0.0, 3.0]},
        {"E": np.zeros((1, 0)), "b": [0.0]},
        {"G": np.zeros((1, 0)), "h": [1.0], "E": np.zeros((2, 0)), "b": [0.0, 0.0]},
    ])
    def test_optimal_at_the_empty_point(self, rows):
        lp = LinearProgram(c=np.zeros(0), up=np.zeros(0), **rows)
        sol = solve_lp(lp)
        assert_certified(lp, sol)
        assert sol.x.shape == (0,)
        assert sol.objective_value == 0.0
        assert sol.stats.pivots == 0

    def test_violated_row_is_infeasible(self):
        lp = LinearProgram(c=[], G=np.zeros((1, 0)), h=[-1.0], up=[])
        with pytest.raises(Infeasible) as err:
            solve_lp(lp)
        assert err.value.shortfall == 1.0

    def test_two_dimensional_cost_rejected(self):
        with pytest.raises(ValueError, match="c must be a vector"):
            LinearProgram(c=[[1.0, 2.0]], up=[1.0, 1.0])


class TestPhaseOneTolerance:
    """Phase one declares infeasibility at the certificate's own residual
    tolerance, so a shortage just above it is Infeasible, not a failed
    certificate."""

    @staticmethod
    def short_day(excess):
        return scheduling_lp(make_scenario([(1, 2), (1, 3)], [14.0 + excess, 3.0],
                                           [1.0, 2.0, 1.0], socket=7.0))[0]

    @pytest.mark.parametrize("excess", [1.1e-8, 2e-8, 1e-7, 1e-6])
    def test_shortage_above_tolerance_is_infeasible(self, excess):
        with pytest.raises(Infeasible):
            solve_lp(self.short_day(excess))

    @pytest.mark.parametrize("excess", [0.0, 5e-9])
    def test_shortage_within_tolerance_is_certified(self, excess):
        lp = self.short_day(excess)
        assert_certified(lp, solve_lp(lp))


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
            assert_certified(lp, sol)
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
            assert_certified(lp, sol)

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
        assert a.stats == b.stats


def random_box_lp(rng):
    """A random program with a finite box on every column, feasible by
    construction about 60% of the time."""
    n = int(rng.integers(1, 10))
    mG = int(rng.integers(0, 6))
    mE = int(rng.integers(0, min(n, 3)))
    G = rng.normal(0, 1, (mG, n)) if mG else None
    E = rng.normal(0, 1, (mE, n)) if mE else None
    lo = np.where(rng.random(n) < 0.7, rng.uniform(-2, 0, n), -5.0)
    up = np.where(rng.random(n) < 0.7, rng.uniform(0.5, 4, n), 8.0)
    if rng.random() < 0.6:
        x0 = np.clip(rng.uniform(-1, 2, n), lo, up)
        h = G @ x0 + rng.uniform(0, 1.5, mG) if mG else None
        b = E @ x0 if mE else None
    else:
        h = rng.normal(0, 2, mG) if mG else None
        b = rng.normal(0, 2, mE) if mE else None
    return LinearProgram(c=rng.normal(0, 1, n), G=G, h=h, E=E, b=b, lo=lo, up=up)


def highs(lp, c=None):
    """scipy HiGHS on `lp`, with the costs `c` in place of its own if given."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    rows = lambda mat, rhs: (mat, rhs) if mat.shape[0] else (None, None)  # noqa: E731
    (G, h), (E, b) = rows(lp.G, lp.h), rows(lp.E, lp.b)
    return linprog(lp.c if c is None else c, A_ub=G, b_ub=h, A_eq=E, b_eq=b,
                   bounds=list(zip(lp.lo, lp.up)), method="highs")


class TestCrossCheck:
    def test_against_scipy_highs(self):
        """Differential check against an unrelated LP implementation, on
        random programs with finite boxes: HiGHS's optimum, or its
        infeasible verdict."""
        rng = np.random.default_rng(777)
        outcomes = {"optimal": 0, "infeasible": 0}
        for _ in range(300):
            lp = random_box_lp(rng)
            ref = highs(lp)
            if ref.status == 0:
                outcomes["optimal"] += 1
                mine = solve_lp(lp)
                assert mine.objective_value == pytest.approx(
                    ref.fun, rel=1e-7, abs=1e-8
                )
                continue
            assert ref.status == 2  # a box rules out an unbounded verdict
            outcomes["infeasible"] += 1
            with pytest.raises(Infeasible):
                solve_lp(lp)
        assert all(outcomes.values())

    def test_certify_is_sound_against_scipy_highs(self):
        """`certify`'s lower bound, at any multipliers (lam of either sign,
        any nu, u of any length), never lies above the least c.x + r u.M x,
        with u scaled to unit length, which HiGHS finds: a lower bound on
        c.x + r ||M x||.  At `solve_lp`'s optimum `certify` passes, and its
        bounds hold HiGHS's optimum within the gap pair."""
        rng = np.random.default_rng(778)
        checked = 0
        for _ in range(300):
            lp = random_box_lp(rng)
            n, mG, mE = lp.num_vars, lp.G.shape[0], lp.E.shape[0]
            M = rng.normal(0, 1, (int(rng.integers(1, 4)), n))
            r = float(rng.uniform(0, 2))
            u = rng.normal(0, 1, M.shape[0]) * rng.choice([0.1, 1.0, 10.0])
            lam = rng.normal(0, 1, mG)
            nu = rng.normal(0, 1, mE)
            x = rng.uniform(lp.lo, lp.up)
            lower = certify(lp, M, r, x, lam, nu, u)[1]
            unit = u / max(1.0, float(np.linalg.norm(u)))
            ref = highs(lp, lp.c + r * (unit @ M))
            if ref.status != 0:
                assert ref.status == 2
                continue
            checked += 1
            assert lower <= ref.fun + 1e-9 * max(1.0, abs(ref.fun))
            sol = solve_lp(lp)
            assert_certified(lp, sol)
            plain = highs(lp)
            upper, lower, _ = bounds(lp, sol)
            tol = max(GAP_ABS_TOL, GAP_REL_TOL * max(1.0, abs(plain.fun)))
            assert lower - tol <= plain.fun <= upper + tol
        assert checked >= 100


class TestDegeneracy:
    def test_redundant_rows(self):
        # same constraint stacked four times
        lp = LinearProgram(c=[1.0, 1.0],
                           G=[[-1.0, -1.0]] * 4, h=[-2.0] * 4,
                           lo=[0, 0], up=[5, 5])
        sol = solve_lp(lp)
        assert_certified(lp, sol)
        assert sol.objective_value == pytest.approx(2.0, abs=1e-9)

    def test_redundant_equalities(self):
        lp = LinearProgram(c=[1.0, 0.0],
                           E=[[1.0, 1.0], [2.0, 2.0]], b=[3.0, 6.0],
                           lo=[0, 0], up=[5, 5])
        sol = solve_lp(lp)
        assert_certified(lp, sol)
        assert sol.objective_value == pytest.approx(0.0, abs=1e-9)

    def test_degenerate_run_switches_to_bland(self):
        # 40 copies of one row: x0 enters and meets them all, then each
        # slack replaces an artificial at zero without moving, 39 degenerate
        # pivots in a row, which switch the simplex to Bland's rule once
        lp = LinearProgram(c=[1.0, 1.0], G=[[-1.0, -1.0]] * 40, h=[-2.0] * 40,
                           lo=[0, 0], up=[5, 5])
        simplex = lp_module._Simplex(lp)
        assert_certified(lp, simplex.solve())
        assert simplex.stats == SolveStats(pivots=40, phase_one_pivots=40, degenerate_pivots=39,
                                           bland_switches=1, refactorizations=2)

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
        lp = LinearProgram(c=c, G=G, h=h, lo=np.zeros(4), up=np.full(4, 10.0))
        sol = solve_lp(lp)
        assert_certified(lp, sol)
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
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            LinearProgram(**parts)

    def test_nan_rhs_no_longer_reaches_the_ratio_test(self):
        # used to fail inside the ratio test with a bare reduction error
        with pytest.raises(ValueError, match="h must be finite"):
            LinearProgram(c=[1, 1], G=[[-1, -1]], h=[np.nan], lo=[0, 0], up=[5, 5])

    @pytest.mark.parametrize("lo, up", [
        ([np.inf], [np.inf]),
        ([-np.inf], [-np.inf]),
        ([-np.inf], [5.0]),
    ], ids=["plus-inf", "minus-inf", "minus-inf-to-finite"])
    def test_infinite_lower_bound_rejected(self, lo, up):
        # lo = up = +inf would put the objective at inf, where the
        # certificate's gap tolerance GAP_REL_TOL * |objective| is infinite too
        with pytest.raises(ValueError, match="lo must be finite"):
            LinearProgram(c=[1.0], lo=lo, up=up)

    def test_infinite_upper_bound_rejected(self):
        # a column at its lower bound with a negative reduced cost would make
        # `certify`'s bound -inf there, so every column needs a finite box
        with pytest.raises(ValueError, match="up must be finite"):
            LinearProgram(c=[1.0, -1.0], G=[[1.0, 1.0]], h=[3.0],
                          lo=[-1.0, -5.0], up=[np.inf, 2.0])


class TestCertificate:
    """A basis whose complementary slackness holds is still not optimal
    when a multiplier has the wrong sign or a reduced cost points into the
    box: `certify` clips the one and lets the box take up the other, so its
    bound falls short of the objective by what they are worth."""

    def test_wrong_sign_row_multiplier_fails(self):
        # x = 1 starts basic in the tight row x <= 1, but the row's
        # multiplier is -1; clipped to 0, it leaves the bound at x's lower
        # bound, 0, a gap of 1: the optimum is x = 0
        lp = LinearProgram(c=[1.0], G=[[1.0]], h=[1.0], lo=[0.0], up=[5.0])
        simplex = lp_module._Simplex(lp)
        simplex.build_initial_basis(lp_module.BasisStart(np.array([1.0]), np.array([0])))
        with pytest.raises(NumericalFailure, match=r"gap=1\.000e\+00"):
            simplex._certify()
        assert solve_lp(lp).objective_value == 0.0

    def test_column_priced_below_zero_at_its_lower_bound_fails(self):
        # x in [0, 5] rests at 0 with reduced cost -1, so the box puts the
        # bound at -1 * 5, a gap of 5: the optimum is x = 1
        lp = LinearProgram(c=[-1.0], G=[[1.0]], h=[1.0], lo=[0.0], up=[5.0])
        simplex = lp_module._Simplex(lp)
        simplex.build_initial_basis()
        with pytest.raises(NumericalFailure, match=r"gap=5\.000e\+00"):
            simplex._certify()
        assert solve_lp(lp).objective_value == -1.0


class TestAddInequality:
    """A solved program grown by inequalities and solved again from its
    optimum, each added row's start entry -1 (so that the row starts with
    its slack, or with an artificial where the optimum violates it), as the
    cutting-plane loop solves each grown master: the cold solve's optimum."""

    def base(self):
        # the equality row sits between the inequality row and the rows added
        # after it, so the duals of G and E are read around it
        return LinearProgram(c=[-1.0, -2.0, 0.5], G=[[1.0, 1.0, 0.0]], h=[4.0],
                             E=[[1.0, 0.0, -1.0]], b=[1.0], lo=[0, 0, 0], up=[5, 3, 5])

    @staticmethod
    def grown(lp, g, h):
        """`lp` with the rows g . x <= h appended."""
        return dataclasses.replace(lp, G=np.vstack([lp.G, g]), h=np.append(lp.h, h))

    @staticmethod
    def resolve(lp, g, h):
        """Solve `lp`, then `grown(lp, g, h)` from its optimum; returns both
        solutions and the grown simplex."""
        simplex = lp_module._Simplex(lp)
        first = simplex.solve()
        assert_certified(lp, first)
        basic = np.where(simplex.basis < simplex.n_struct, simplex.basis, -1)
        grown = TestAddInequality.grown(lp, g, h)
        added = grown.G.shape[0] - lp.G.shape[0]
        again = lp_module._Simplex(grown)
        sol = again.solve(lp_module.BasisStart(first.x, np.append(basic, np.full(added, -1))))
        return first, sol, again

    @pytest.mark.parametrize("g, h", [
        ([0.0, 1.0, 0.0], 1.5),  # violated at the first optimum
        ([1.0, 0.0, 0.0], 5.0),  # already satisfied
        ([-1.0, -1.0, 1.0], -1.0),
    ])
    def test_matches_cold_solve(self, g, h):
        _, warm, _ = self.resolve(self.base(), g, h)
        grown = self.grown(self.base(), g, h)
        cold = solve_lp(grown)
        assert_certified(grown, warm)
        assert_certified(grown, cold)
        assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-9)
        assert warm.dual_ineq.shape == (2,)
        assert warm.dual_eq.shape == (1,)

    def test_satisfied_row_keeps_the_optimum(self):
        # the row's slack starts basic, so the optimum is the start itself
        first, warm, simplex = self.resolve(self.base(), [1.0, 0.0, 0.0], 5.0)
        assert warm.objective_value == first.objective_value
        assert simplex.stats.pivots == 0

    def test_infeasible_row(self):
        # x0 >= 6 against x0 + x1 <= 4: phase one stops two units short
        with pytest.raises(Infeasible) as err:
            self.resolve(self.base(), [-1.0, 0.0, 0.0], -6.0)
        assert err.value.shortfall == pytest.approx(2.0, abs=1e-12)

    def test_repeated_rows(self):
        h = 2.5 - 0.5 * np.arange(4)
        _, warm, _ = self.resolve(self.base(), [[0.0, 1.0, 0.0]] * 4, h)
        grown = self.grown(self.base(), [[0.0, 1.0, 0.0]] * 4, h)
        assert_certified(grown, warm)
        cold = solve_lp(LinearProgram(
            c=[-1.0, -2.0, 0.5], G=[[1.0, 1.0, 0.0]] + [[0.0, 1.0, 0.0]] * 4,
            h=[4.0, 2.5, 2.0, 1.5, 1.0], E=[[1.0, 0.0, -1.0]], b=[1.0],
            lo=[0, 0, 0], up=[5, 3, 5]))
        assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-9)

    def test_ratio_test_flips_a_boxed_column(self, monkeypatch):
        # x1 in [0, 1] is the cheapest way to meet x1 + x2 >= 3 but covers
        # only 1 of the 3: phase one's ratio test flips it to its upper bound
        # and then lets x2 enter
        lp = LinearProgram(c=[1.0, 2.0, 0.0], G=[[1.0, 1.0, 1.0]], h=[100.0],
                           lo=[0, 0, 0], up=[1, 5, 10])
        steps = []
        ratio_test = lp_module._Simplex.ratio_test

        def record(self, j, *args):
            t, row = ratio_test(self, j, *args)
            if self.lp.G.shape[0] == 2:
                steps.append((j, row))
            return t, row

        monkeypatch.setattr(lp_module._Simplex, "ratio_test", record)
        _, warm, simplex = self.resolve(lp, [-1.0, -1.0, 0.0], -3.0)
        assert steps == [(0, -1), (1, 1)]  # x1 flips, then x2 takes the new row
        assert simplex.stats.pivots == 2
        monkeypatch.undo()
        grown = self.grown(lp, [-1.0, -1.0, 0.0], -3.0)
        cold = solve_lp(grown)
        assert_certified(grown, warm)
        assert_certified(grown, cold)
        assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-9)
        assert warm.x == pytest.approx([1.0, 2.0, 0.0], abs=1e-12)

    def test_artificial_basic_at_zero_stays_there(self):
        # the redundant equalities of TestDegeneracy end phase one with an
        # artificial basic at zero in the redundant row; fixed at zero, it
        # stays there through phase two of the grown program too
        E, b = [[1.0, 1.0], [2.0, 2.0]], [3.0, 6.0]
        lp = LinearProgram(c=[1.0, 0.0], E=E, b=b, lo=[0, 0], up=[5, 5])
        _, warm, simplex = self.resolve(lp, [0.0, 1.0], 1.0)
        grown = self.grown(lp, [0.0, 1.0], 1.0)
        cold = solve_lp(grown)
        assert_certified(grown, warm)
        assert_certified(grown, cold)
        assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-12)
        assert warm.x == pytest.approx(cold.x, abs=1e-12)
        artificials = np.arange(simplex.art_start, simplex.art_start + simplex.n_art)
        assert np.isin(simplex.basis, artificials).any()
        assert np.all(simplex.values[artificials] == 0.0)

    @pytest.mark.parametrize("g, h", [
        ([np.nan, 0.0, 0.0], 1.0),
        ([np.inf, 0.0, 0.0], 1.0),
        ([0.0, 1.0, 0.0], np.nan),
        ([0.0, 1.0, 0.0], -np.inf),
    ])
    def test_non_finite_row_rejected(self, g, h):
        # an added row is validated with the program it grows
        with pytest.raises(ValueError, match="finite"):
            self.grown(self.base(), g, h)


class TestPricing:
    """A column with equal bounds never enters or flips: neither the
    artificials fixed at zero after phase one nor a structural column at a
    step whose socket limit is zero."""

    @pytest.fixture
    def entering(self, monkeypatch):
        picks = []
        choose = lp_module._Simplex.choose_entering

        def record(self, d, bland):
            j = choose(self, d, bland)
            if j >= 0:
                picks.append(bool(self.lo[j] < self.up[j]))
            return j

        monkeypatch.setattr(lp_module._Simplex, "choose_entering", record)
        return picks

    @pytest.mark.parametrize("seed", range(5))
    def test_nominal_days_never_enter_a_barred_column(self, seed, entering):
        # a 25 kW budget binds, so the greedy start leaves demands short:
        # phase one runs and phase two prices around the artificials it froze
        rng = np.random.default_rng(seed)
        phase_one = 0
        for k in range(4):
            sc = random_scenario(rng, horizon_steps=24, max_vehicles=30, capacity=25.0)
            phase_one += solve(sc).stats.phase_one_pivots
        assert phase_one and entering and all(entering)

    def test_zero_socket_step_never_enters(self, entering):
        # a zero socket limit at the day's cheapest step fixes its columns at
        # 0, where their reduced costs are negative: they price out but must
        # neither enter nor flip
        sc = random_scenario(np.random.default_rng(0), horizon_steps=24,
                             max_vehicles=30, capacity=25.0)
        socket = sc.socket_limit.copy()
        socket[np.argmin(sc.prices)] = 0.0
        res = solve(dataclasses.replace(sc, socket_limit=socket))
        assert res.stats.phase_one_pivots and entering and all(entering)

    @pytest.mark.parametrize("day", range(3))
    def test_robust_days_never_enter_a_barred_column(self, day, entering, monkeypatch,
                                                      no_polish):
        # an 8 kW budget leaves the greedy start short on these days (fleet
        # cap, seed), and every cut row starts violated, so each master's
        # phase one freezes artificials; no master's ratio test may then
        # move one, as an entering column or a flip
        max_vehicles, seed = [(3, 1), (5, 0), (5, 2)][day]
        moved = []
        ratio_test = lp_module._Simplex.ratio_test

        def record(self, j, *args):
            moved.append(bool(self.lo[j] < self.up[j]))
            return ratio_test(self, j, *args)

        monkeypatch.setattr(lp_module._Simplex, "ratio_test", record)
        sc = random_scenario(np.random.default_rng(seed), horizon_steps=6,
                             max_vehicles=max_vehicles, capacity=8.0)
        res = solve(sc, Method.ROBUST_PRICE, radius=0.5)
        assert res.cuts > 0 and res.stats.phase_one_pivots > res.cuts
        # the feasibility check's phase one pivots too, outside res.stats
        assert len(moved) >= res.stats.pivots > 0
        assert all(moved) and all(entering)
