"""The calls the benchmark harness in perfbench/ makes into the package.

The harness imports evsched from the checkout it measures; its correctness
gate, workloads and tracer call the functions below with these arguments
and read these attributes.  ROADMAP aim 2 asks that oracle-only code live
where only tests use it, and `validate_schedule` looks like such code, but
the gate calls it: moving it out of src/, or renaming any name below,
would fail the benchmark.  This test fails first.
"""

import numpy as np

import evsched.sim
import evsched.solver.lp
import evsched.solver.socp
from evsched import Method, Scenario, Schedule, occupancy_from_windows, validate_schedule
from evsched.ingest import save_scenario
from evsched.nominal import check_feasibility, scheduling_lp
from evsched.robust import totals_map
from evsched.solver import solve_norm_augmented
from evsched.solver.socp import GAP_ABS_TOL, GAP_REL_TOL


def test_benchmark_harness_calls(tmp_path, monkeypatch):
    # a day as perfbench/workloads.py builds it: scalar station values
    T = 6
    sc = Scenario(horizon_steps=T, step_hours=4.0,
                  occupancy=occupancy_from_windows(T, [(2, 5)]), load=[20.0],
                  capacity=15.0, socket_limit=7.0, waste=0.01,
                  prices=np.linspace(0.1, 0.3, T), scenario_id="bench-day")
    assert check_feasibility(sc).feasible
    save_scenario(sc, tmp_path / "day.json")

    # perfbench/check.py: positional arguments, then kind.value and magnitude
    y = np.zeros((T, 1))
    y[1, 0] = 8.0  # above the socket limit
    report = validate_schedule(Schedule(y, Method.NOMINAL, sc.scenario_id), sc, 1e-8)
    assert ("socket-exceeded", 1.0) in [(v.kind.value, v.magnitude)
                                        for v in report.violations]

    # perfbench/spans.py reads cuts and status.value of the cutting-plane
    # run; check.py holds its gap to the loop's own tolerances.  The polish
    # certifies this day at the first master, before any cut.
    lp, var_index = scheduling_lp(sc)
    result = solve_norm_augmented(lp, 0.5, totals_map(sc, var_index))
    assert result.status.value == "optimal" and result.cuts == 0
    assert result.gap <= max(GAP_ABS_TOL, GAP_REL_TOL * max(1.0, abs(result.objective)))
    # with the polish declined the cuts run, and spans.py counts a run
    # stopped by the cut limit by this value
    monkeypatch.setattr(evsched.solver.socp, "_polish", lambda *args: None)
    result = solve_norm_augmented(lp, 0.5, totals_map(sc, var_index))
    assert result.status.value == "optimal" and result.cuts > 0
    monkeypatch.setattr(evsched.solver.socp, "MAX_CUTS", 0)
    result = solve_norm_augmented(lp, 0.5, totals_map(sc, var_index))
    assert result.status.value == "cut-limit"

    # check.py reads the gap pair from socp, which must be the LP's own, so
    # that the gate and the solver's acceptance test share one tolerance
    assert evsched.solver.socp.GAP_ABS_TOL is evsched.solver.lp.GAP_ABS_TOL
    assert evsched.solver.socp.GAP_REL_TOL is evsched.solver.lp.GAP_REL_TOL

    # perfbench/spans.py wraps solve_lp where socp looks it up, and counts
    # every master's LP solve there, the first master's too
    assert evsched.solver.socp.solve_lp is evsched.solver.lp.solve_lp

    # perfbench/workloads.py wraps these two to capture and time each day
    assert callable(evsched.sim.optimized_schedule)
    assert callable(evsched.sim.compare_scenario)
