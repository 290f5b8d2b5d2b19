"""Cutting-plane tests for the norm-augmented objective.

The worked instances have 1-D feasible segments, so a dense scan over the
segment is an independent oracle for both the minimizer and the value.
"""

import numpy as np
import pytest

from evsched.nominal import scheduling_lp
from evsched.robust import totals_map
from evsched.solver import (
    FEASIBILITY_TOL,
    LinearProgram,
    LpStatus,
    NormAugmentedStatus,
    solve_lp,
    solve_norm_augmented,
)
from evsched.solver import lp as lp_module
from evsched.solver.socp import GAP_REL_TOL, _augmented
from evsched.synth import random_scenario


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
        assert res.objective == plain.objective_value
        assert np.array_equal(res.x, plain.x)

    def test_infeasible_propagates(self):
        lp = LinearProgram(c=[1.0], G=[[-1.0], [1.0]], h=[-2.0, 1.0],
                           lo=[-np.inf], up=[np.inf])
        res = solve_norm_augmented(lp, 1.0, np.eye(1))
        assert res.status is NormAugmentedStatus.INFEASIBLE

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
        # minimizer has M x = 0: norm term vanishes, first-axis cut is used
        lp = LinearProgram(c=[1.0], G=[[-1.0]], h=[0.0], lo=[0.0], up=[5.0])
        res = solve_norm_augmented(lp, 2.0, np.eye(1))
        assert res.status is NormAugmentedStatus.OPTIMAL
        assert res.objective == pytest.approx(0.0, abs=1e-12)
        assert res.norm_value == pytest.approx(0.0, abs=1e-12)

    def test_cut_limit_reports_gap(self):
        # starved of cuts, the solver must return its best iterate honestly
        res = solve_norm_augmented(segment_lp(), 1.0, np.eye(2), max_cuts=1)
        assert res.status is NormAugmentedStatus.CUT_LIMIT
        assert res.gap is not None and res.gap > 0
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


def assert_master_certified(sol):
    assert sol.status is LpStatus.OPTIMAL
    assert sol.max_residual <= FEASIBILITY_TOL
    assert abs(sol.duality_gap) <= lp_module.GAP_REL_TOL * max(1.0, abs(sol.objective_value))


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
        cold = solve_lp(_augmented(lp, 0.5, cut_rows))
        assert_master_certified(warm)
        assert_master_certified(cold)
        scale = max(1.0, abs(cold.objective_value))
        assert abs(warm.objective_value - cold.objective_value) <= GAP_REL_TOL * scale

    def test_counts_repeat_exactly(self):
        lp, M = robust_day(8)
        first = solve_norm_augmented(lp, 0.5, M)
        second = solve_norm_augmented(lp, 0.5, M)
        assert (first.cuts, first.pivots) == (second.cuts, second.pivots)
        assert np.array_equal(first.x, second.x)
        # pinned: a change here means the pivot sequence changed
        assert (first.cuts, first.pivots) == (39, 86)

    def test_pivots_count_every_master(self):
        # each violated cut needs at least one pivot to expel its artificial,
        # and the cold first master needs some too
        lp, M = robust_day(8)
        res = solve_norm_augmented(lp, 0.5, M)
        assert res.pivots > res.cuts
        plain = solve_norm_augmented(lp, 0.0, M)
        assert plain.pivots == solve_lp(lp).iterations > 0
