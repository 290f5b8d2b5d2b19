"""Batch comparison, aggregation, Spearman, and report-file tests."""

import csv
import json

import numpy as np
import pytest

import evsched.sim
from evsched import Method, Schedule, fcfs_with_report, solve
from evsched.cli import main
from evsched.sim import (
    ComparisonRow,
    RunConfig,
    aggregate,
    compare_scenario,
    day_power_profile,
    emit_plot_data,
    run_comparison,
    spearman_rho,
    write_comparison_csv,
    write_summary_csv,
    write_summary_json,
)
from evsched.synth import random_batch, random_scenario

from conftest import make_scenario

pytestmark = pytest.mark.usefixtures("certified_solves")


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as stream:
        return list(csv.reader(stream))


class TestCompareScenario:
    def test_hand_instance_saves_half(self, two_step_vehicle):
        row = compare_scenario(two_step_vehicle, RunConfig())
        assert row.trivial_cost == pytest.approx(10.10, abs=1e-9)
        assert row.optimized_cost == pytest.approx(5.05, abs=1e-9)
        assert row.saving_pct == pytest.approx(50.0, abs=1e-9)
        assert row.comparable

    def test_single_step_window_saves_nothing(self):
        sc = make_scenario([(1, 1)], [5.0], [2.0, 1.0], waste=0.01)
        row = compare_scenario(sc, RunConfig())
        assert row.saving_pct == pytest.approx(0.0, abs=1e-9)

    def test_infeasible_flagged_not_raised(self):
        sc = make_scenario([(1, 1)], [15.0], [1.0], socket=7.0)
        row = compare_scenario(sc, RunConfig())
        assert row.infeasible
        assert row.optimized_cost is None
        assert row.fcfs_shortfall  # FCFS cannot finish either
        assert not row.comparable

    def test_aggregate_shortage_flagged_infeasible(self):
        sc = make_scenario([(1, 1), (1, 1)], [5.0, 5.0], [1.0],
                           socket=7.0, capacity=8.0)
        row = compare_scenario(sc, RunConfig())
        assert row.infeasible
        assert row.optimized_cost is None

    def test_shortfall_flagged(self):
        sc = make_scenario([(1, 1), (1, 1)], [5.0, 5.0], [1.0],
                           socket=7.0, capacity=8.0)
        row = compare_scenario(sc, RunConfig())
        assert row.fcfs_shortfall

    def test_robust_method(self):
        rng = np.random.default_rng(50)
        sc = random_scenario(rng, horizon_steps=4, max_vehicles=3)
        row = compare_scenario(
            sc, RunConfig(method=Method.ROBUST_PRICE, robust_radius=0.1)
        )
        assert row.comparable
        # the robust schedule is feasible for the nominal model, so its
        # actual cost cannot beat the nominal optimum
        nominal = solve(sc).cost.total_cost
        assert row.optimized_cost >= nominal - 1e-9


class TestRunComparison:
    def test_empty_list(self):
        assert run_comparison([], RunConfig()) == []

    def test_rows_in_scenario_order(self):
        scenarios = random_batch(51, 6, horizon_steps=5, max_vehicles=4)
        rows = run_comparison(scenarios, RunConfig())
        assert [r.scenario_id for r in rows] == [sc.scenario_id for sc in scenarios]

    def test_parallel_equals_serial(self):
        scenarios = random_batch(52, 8, horizon_steps=5, max_vehicles=4)
        serial = run_comparison(scenarios, RunConfig(workers=1))
        parallel = run_comparison(scenarios, RunConfig(workers=3))
        assert [r.__dict__ for r in serial] == [r.__dict__ for r in parallel]

    def test_fcfs_not_allowed_as_optimizer(self):
        with pytest.raises(ValueError):
            RunConfig(method=Method.FCFS)


def rows_fixture():
    return [
        ComparisonRow("d1", 3, 100.0, 90.0, 10.0),
        ComparisonRow("d2", 12, 200.0, 140.0, 30.0),
        ComparisonRow("d3", 40, 100.0, 50.0, 50.0, fcfs_shortfall=True),
        ComparisonRow("d4", 15, None, None, None, infeasible=True),
    ]


def test_simulate_reaches_the_hooks_through_the_module(tmp_path, monkeypatch):
    """The benchmark's corpus gate replaces `evsched.sim.optimized_schedule`
    and `evsched.sim.compare_scenario` and expects `simulate` to call each
    through the module, once per day, to capture and time every day's
    schedule; a direct call that bypasses either name leaves it blind."""
    optimize, compare = evsched.sim.optimized_schedule, evsched.sim.compare_scenario
    optimized, compared = [], []

    def optimize_hook(scenario, config):
        schedule = optimize(scenario, config)
        optimized.append(schedule)
        return schedule

    def compare_hook(scenario, config):
        compared.append(scenario.scenario_id)
        return compare(scenario, config)

    monkeypatch.setattr(evsched.sim, "optimized_schedule", optimize_hook)
    monkeypatch.setattr(evsched.sim, "compare_scenario", compare_hook)
    code = main(["simulate", "--synthetic", "3", "--seed", "1", "--out", str(tmp_path)])
    assert code == 0
    assert len(compared) == len(set(compared)) == 3
    assert len(optimized) == 3
    assert all(isinstance(schedule, Schedule) for schedule in optimized)


class TestAggregate:
    def test_singleton(self):
        (row,) = aggregate([ComparisonRow("d", 2, 10.0, 5.0, 50.0)], (1,))
        assert row.mean_of_daily_pct == pytest.approx(50.0)
        assert row.trivial_cost_sum == pytest.approx(10.0)
        assert row.optimized_cost_sum == pytest.approx(5.0)

    def test_mean_of_percentages(self):
        rows = [
            ComparisonRow("a", 1, 100.0, 90.0, 10.0),
            ComparisonRow("b", 1, 10.0, 7.0, 30.0),
        ]
        (row,) = aggregate(rows, (1,))
        assert row.mean_of_daily_pct == pytest.approx(20.0)
        # ratio of sums is a different statistic
        assert row.pct_of_summed_costs == pytest.approx(
            100.0 * (110.0 - 97.0) / 110.0
        )

    def test_filters_and_exclusions(self):
        by_label = {r.filter_label: r for r in aggregate(rows_fixture(), (1, 10, 30))}
        assert by_label["N > 0"].scenario_count == 4
        assert by_label["N > 0"].included_count == 2  # shortfall+infeasible out
        assert by_label["N > 0"].trivial_cost_sum == pytest.approx(300.0)
        assert by_label["N >= 10"].scenario_count == 3
        assert by_label["N >= 10"].included_count == 1
        assert by_label["N >= 30"].included_count == 0
        assert by_label["N >= 30"].mean_of_daily_pct is None

    def test_sums_equal_included_rows(self):
        (row,) = aggregate(rows_fixture(), (1,))
        assert row.trivial_cost_sum == pytest.approx(100.0 + 200.0, rel=1e-9)
        assert row.optimized_cost_sum == pytest.approx(90.0 + 140.0, rel=1e-9)

    def test_aggregate_dominance_on_random_batch(self):
        scenarios = random_batch(55, 12, horizon_steps=6, max_vehicles=5)
        rows = run_comparison(scenarios, RunConfig())
        for r in rows:
            if r.comparable:
                assert r.saving_pct >= -1e-9
        (row,) = aggregate(rows, (1,))
        assert row.optimized_cost_sum <= row.trivial_cost_sum + 1e-9


class TestSpearman:
    def test_perfect_monotone(self):
        assert spearman_rho([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
        assert spearman_rho([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_value_with_ties(self):
        # ranks x: 1, 2.5, 2.5, 4 ; ranks y: 2, 1, 3, 4
        rho = spearman_rho([1, 2, 2, 3], [5, 1, 7, 9])
        rx = np.array([1.0, 2.5, 2.5, 4.0])
        ry = np.array([2.0, 1.0, 3.0, 4.0])
        expected = float(
            ((rx - rx.mean()) * (ry - ry.mean())).sum()
            / np.sqrt(((rx - rx.mean()) ** 2).sum() * ((ry - ry.mean()) ** 2).sum())
        )
        assert rho == pytest.approx(expected)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(53)
        x = rng.normal(0, 1, 50)
        y = np.exp(x) + 0.0
        assert spearman_rho(x, y) == pytest.approx(1.0)


class TestReports:
    def test_fig2_shape(self, tmp_path, two_step_vehicle):
        sc = two_step_vehicle
        schedules = {
            "fcfs": fcfs_with_report(sc).schedule,
            "nominal": solve(sc).schedule,
        }
        header, rows = day_power_profile(sc, schedules)
        assert header == ["hour", "fcfs_kw", "nominal_kw"]
        assert len(rows) == sc.horizon_steps
        assert rows[0][0] == 1
        paths = emit_plot_data([], sc, schedules, tmp_path)
        data = read_csv(paths["fig2"])
        assert data[0] == header
        assert len(data) == 1 + sc.horizon_steps

    def test_fig4_prefix_sums(self, tmp_path):
        rows = [
            ComparisonRow("a", 1, 10.0, 8.0, 20.0),
            ComparisonRow("b", 1, 5.0, 4.0, 20.0),
        ]
        paths = emit_plot_data(rows, None, None, tmp_path)
        data = read_csv(paths["fig4"])
        assert data[0] == ["scenario_id", "trivial_cost_cumulative",
                          "optimized_cost_cumulative"]
        assert [float(x) for x in data[1][1:]] == pytest.approx([10.0, 8.0])
        assert [float(x) for x in data[2][1:]] == pytest.approx([15.0, 12.0])

    def test_empty_inputs_write_headers(self, tmp_path):
        paths = emit_plot_data([], None, None, tmp_path)
        for key in ("fig2", "fig3", "fig4"):
            data = read_csv(paths[key])
            assert len(data) == 1  # header only

    def test_comparison_and_summary_files(self, tmp_path):
        rows = rows_fixture()
        summary = aggregate(rows, (1, 10))
        write_comparison_csv(rows, tmp_path / "comparison.csv")
        write_summary_csv(summary, tmp_path / "summary.csv")
        write_summary_json(summary, rows, tmp_path / "summary.json", {"note": "t"})
        comp = read_csv(tmp_path / "comparison.csv")
        assert len(comp) == 1 + len(rows)
        assert comp[0][0] == "scenario_id"
        assert (comp[3][5], comp[3][6]) == ("0", "1")  # d3: shortfall flag
        assert (comp[4][5], comp[4][6]) == ("1", "0")  # d4: infeasible flag
        summary = read_csv(tmp_path / "summary.csv")
        assert len(summary) == 3
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["tool"] == "evsched"
        assert doc["scenarios_total"] == 4
        assert doc["scenarios_included"] == 2
        assert len(doc["summary"]) == 2

    def test_reports_byte_identical_across_workers(self, tmp_path):
        scenarios = random_batch(54, 6, horizon_steps=5, max_vehicles=4)
        blobs = {}
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            out.mkdir()
            rows = run_comparison(scenarios, RunConfig(workers=workers))
            summary = aggregate(rows, (1,))
            write_comparison_csv(rows, out / "comparison.csv")
            write_summary_csv(summary, out / "summary.csv")
            write_summary_json(summary, rows, out / "summary.json", {"seed": 54})
            emit_plot_data(rows, None, None, out)
            blobs[workers] = {
                p.name: p.read_bytes() for p in sorted(out.iterdir())
            }
        assert blobs[1] == blobs[2]
