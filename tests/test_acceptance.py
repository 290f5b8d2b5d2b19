"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Tolerances are pinned here and must not be loosened: 1e-6 relative for
oracle/cost agreement, 1e-8 relative for the flat-price identity, 1e-9
absolute for the golden hand instance and dominance, 1e-8 feasibility.
"""

import time

import numpy as np
import pytest

from evsched import Method, evaluate_cost, fcfs_with_report, solve, validate_schedule
from evsched.model import ViolationKind
from evsched.sim import (
    RunConfig,
    aggregate,
    emit_plot_data,
    run_comparison,
    spearman_rho,
    write_comparison_csv,
    write_summary_csv,
    write_summary_json,
)
from evsched.synth import random_batch, random_scenario, write_synthetic_corpus
from evsched.ingest import IngestConfig, build_scenarios, parse_prices, parse_sessions

from conftest import make_scenario
from flow_oracle import FlowStatus, scheduling_network, solve_min_cost_flow

pytestmark = pytest.mark.usefixtures("certified_solves")


def report(criterion: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for k in range(100):
        sc = random_scenario(
            rng,
            horizon_steps=int(rng.integers(2, 7)),
            max_vehicles=4,
            capacity=float(rng.uniform(8.0, 28.0)),
            scenario_id=f"oracle-{k}",
        )
        lp_cost = solve(sc).cost.total_cost
        flow = solve_min_cost_flow(scheduling_network(sc), float(sc.load.sum()))
        assert flow.status is FlowStatus.OPTIMAL
        rel = abs(lp_cost - flow.cost) / max(1e-12, abs(flow.cost))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-6 and elapsed < 10.0,
        f"100 instances, worst LP-vs-flow gap {worst:.2e} (tol 1e-6), "
        f"{elapsed:.2f}s (limit 10s)",
    )


def test_criterion_2_golden_hand_instance():
    sc = make_scenario([(1, 2)], [5.0], [2.0, 1.0], waste=0.01)
    nominal = solve(sc).cost.total_cost
    fcfs = evaluate_cost(fcfs_with_report(sc).schedule, sc).total_cost
    saving = 100.0 * (fcfs - nominal) / fcfs
    ok = (
        abs(nominal - 5.05) <= 1e-9
        and abs(fcfs - 10.10) <= 1e-9
        and abs(saving - 50.0) <= 1e-9
    )
    report(2, ok, f"nominal {nominal!r}, fcfs {fcfs!r}, saving {saving!r}%")


def test_criterion_3_flat_price_identity():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for k in range(50):
        p = float(rng.uniform(0.05, 0.5))
        g = float(rng.uniform(0.0, 0.05))
        delta = float(rng.choice([0.5, 1.0, 2.0]))
        sc = random_scenario(
            rng,
            horizon_steps=int(rng.integers(2, 9)),
            max_vehicles=6,
            waste=g,
            price_low=p,
            price_high=p,
            step_hours=delta,
            scenario_id=f"flat-{k}",
        )
        cost = solve(sc).cost.total_cost
        expected = p * (1.0 + g) * delta * float(sc.load.sum())
        worst = max(worst, abs(cost - expected) / max(1e-12, abs(expected)))
    report(3, worst <= 1e-8, f"50 scenarios, worst relative error {worst:.2e} (tol 1e-8)")


def test_criterion_4_dominance():
    rng = np.random.default_rng(1004)
    checked = 0
    worst_excess = -np.inf
    attempts = 0
    while checked < 200 and attempts < 2000:
        attempts += 1
        sc = random_scenario(
            rng,
            horizon_steps=int(rng.integers(2, 12)),
            max_vehicles=8,
            scenario_id=f"dom-{attempts}",
        )
        fcfs = fcfs_with_report(sc)
        if (fcfs.shortfall > 1e-9).any():
            continue
        fcfs_cost = evaluate_cost(fcfs.schedule, sc).total_cost
        opt_cost = solve(sc).cost.total_cost
        worst_excess = max(worst_excess, opt_cost - fcfs_cost)
        checked += 1
    report(
        4,
        checked == 200 and worst_excess <= 1e-9,
        f"{checked} shortfall-free scenarios, worst optimized-minus-FCFS "
        f"{worst_excess:.2e} (tol 1e-9)",
    )


def test_criterion_5_constraint_satisfaction():
    rng = np.random.default_rng(1005)
    bad = 0
    shortfall_mismatch = 0
    for k in range(25):
        sc = random_scenario(
            rng,
            horizon_steps=int(rng.integers(2, 8)),
            max_vehicles=5,
            scenario_id=f"feas-{k}",
        )
        fcfs = fcfs_with_report(sc)
        fcfs_report = validate_schedule(fcfs.schedule, sc)
        hard = [
            v for v in fcfs_report.violations
            if v.kind is not ViolationKind.DEMAND_SHORTFALL
        ]
        bad += bool(hard)
        reported = {v.vehicle_index: v.magnitude
                    for v in fcfs_report.of_kind(ViolationKind.DEMAND_SHORTFALL)}
        for i, short in enumerate(fcfs.shortfall):
            if short > 1e-8:
                if abs(reported.get(i, 0.0) - short) > 1e-8:
                    shortfall_mismatch += 1

        schedules = [
            solve(sc).schedule,
            solve(sc, Method.ROBUST_PRICE, radius=0.3).schedule,
            solve(sc, Method.ROBUST_LOAD, radius=0.3, load_scale=1.0).schedule,
        ]
        for schedule in schedules:
            if not validate_schedule(schedule, sc, tol=1e-8).feasible:
                bad += 1
    report(
        5,
        bad == 0 and shortfall_mismatch == 0,
        f"25 scenarios x 4 methods validated at 1e-8; "
        f"{bad} hard violations, {shortfall_mismatch} shortfall mismatches",
    )


def test_criterion_6_robust_consistency():
    rng = np.random.default_rng(1006)
    worst_zero_gap = 0.0
    monotone_ok = True
    for k in range(50):
        sc = random_scenario(
            rng,
            horizon_steps=int(rng.integers(2, 7)),
            max_vehicles=4,
            scenario_id=f"rob-{k}",
        )
        nominal = solve(sc).cost.total_cost
        values = []
        for r in (0.0, 0.1, 1.0, 10.0):
            values.append(solve(sc, Method.ROBUST_PRICE, radius=r).objective)
        rel = abs(values[0] - nominal) / max(1e-12, abs(nominal))
        worst_zero_gap = max(worst_zero_gap, rel)
        monotone_ok &= all(a <= b + 1e-9 for a, b in zip(values, values[1:]))

    sc = make_scenario([(1, 2)], [6.0], [1.0, 1.0], socket=7.0)
    spread = solve(sc, Method.ROBUST_PRICE, radius=1.0)
    totals = (1.0 + sc.waste) * sc.step_hours * spread.schedule.allocation.sum(axis=1)
    totals_err = float(np.abs(totals - 3.0).max())
    target = 6.0 + 3.0 * np.sqrt(2.0)
    obj_err = abs(spread.objective - target) / target
    ok = (
        worst_zero_gap <= 1e-6
        and monotone_ok
        and totals_err <= 1e-4
        and obj_err <= 1e-6
    )
    report(
        6,
        ok,
        f"r=0 vs nominal worst {worst_zero_gap:.2e} (tol 1e-6); monotone "
        f"{monotone_ok}; spread totals err {totals_err:.2e} (tol 1e-4), "
        f"objective err {obj_err:.2e} (tol 1e-6)",
    )


def test_criterion_7_fcfs_traces():
    sc1 = make_scenario([(1, 3)], [10.0], [1.0, 1.0, 1.0], socket=7.0)
    col = fcfs_with_report(sc1).schedule.allocation[:, 0]
    sc2 = make_scenario([(1, 1), (1, 1)], [5.0, 5.0], [1.0],
                        socket=7.0, capacity=8.0)
    res2 = fcfs_with_report(sc2)
    ok = (
        np.array_equal(col, [7.0, 3.0, 0.0])
        and np.array_equal(res2.schedule.allocation[0], [5.0, 3.0])
        and np.array_equal(res2.shortfall, [0.0, 2.0])
    )
    report(
        7,
        ok,
        f"trace1 {col.tolist()}, trace2 {res2.schedule.allocation[0].tolist()} "
        f"shortfall {res2.shortfall.tolist()}",
    )


def test_criterion_8_corpus_properties(tmp_path):
    sessions = tmp_path / "sessions.csv"
    prices = tmp_path / "prices.csv"
    write_synthetic_corpus(sessions, prices, days=120, seed=1008, max_vehicles=40)
    with open(sessions, encoding="utf-8") as stream:
        recs = parse_sessions(stream)
    with open(prices, encoding="utf-8") as stream:
        series = parse_prices(stream)
    built = build_scenarios(recs, series, IngestConfig())
    assert len(built.scenarios) >= 100

    rows = run_comparison(built.scenarios, RunConfig())
    comparable = [r for r in rows if r.comparable]
    neg_savings = [r for r in comparable if r.saving_pct < -1e-9]
    pairs = [(r.num_vehicles, r.money_saved) for r in comparable]
    rho = spearman_rho(*zip(*pairs))

    out = tmp_path / "reports"
    out.mkdir()
    summary = aggregate(rows, (1, 10, 30))
    write_comparison_csv(rows, out / "comparison.csv")
    write_summary_csv(summary, out / "summary.csv")
    write_summary_json(summary, rows, out / "summary.json", {"days": 120})
    chosen = built.scenarios[0]
    schedules = {
        "fcfs": fcfs_with_report(chosen).schedule,
        "nominal": solve(chosen).schedule,
    }
    paths = emit_plot_data(rows, chosen, schedules, out)

    import csv as csv_mod

    with open(out / "comparison.csv", newline="", encoding="utf-8") as stream:
        comp = list(csv_mod.reader(stream))
    with open(out / "summary.csv", newline="", encoding="utf-8") as stream:
        summ = list(csv_mod.reader(stream))
    with open(paths["fig2"], newline="", encoding="utf-8") as stream:
        fig2 = list(csv_mod.reader(stream))
    with open(paths["fig3"], newline="", encoding="utf-8") as stream:
        fig3 = list(csv_mod.reader(stream))
    with open(paths["fig4"], newline="", encoding="utf-8") as stream:
        fig4 = list(csv_mod.reader(stream))

    structure_ok = (
        comp[0][:5] == ["scenario_id", "num_vehicles", "trivial_cost",
                        "optimized_cost", "saving_pct"]
        and len(comp) == 1 + len(rows)
        and len(summ) == 4  # header + three filters, Table-2 style
        and fig2[0] == ["hour", "fcfs_kw", "nominal_kw"]
        and len(fig2) == 25
        and fig3[0] == ["scenario_id", "num_vehicles", "money_saved"]
        and fig4[0][0] == "scenario_id"
        and len(fig4) == 1 + len(comparable)
    )
    ok = not neg_savings and rho > 0.4 and structure_ok
    report(
        8,
        ok,
        f"{len(built.scenarios)} days ({len(comparable)} comparable): "
        f"{len(neg_savings)} negative savings, spearman(N, saved) {rho:.3f} "
        f"(need > 0.4), report structure ok {structure_ok}",
    )


def test_criterion_9_performance(tmp_path):
    rng = np.random.default_rng(1009)
    big = random_scenario(rng, horizon_steps=24, num_vehicles=100,
                          capacity=300.0, scenario_id="big-day")
    start = time.perf_counter()
    result = solve(big)
    single = time.perf_counter() - start
    assert validate_schedule(result.schedule, big).feasible

    scenarios = random_batch(1010, 365, horizon_steps=24, max_vehicles=40)
    start = time.perf_counter()
    rows = run_comparison(scenarios, RunConfig())
    aggregate(rows, (1, 10, 30))
    batch = time.perf_counter() - start
    ok = single < 5.0 and batch < 300.0
    report(
        9,
        ok,
        f"N=100 day solved in {single:.2f}s (limit 5s); 365-day batch in "
        f"{batch:.1f}s (limit 300s)",
    )
