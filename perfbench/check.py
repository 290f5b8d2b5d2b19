"""Correctness gate, run after the timed region.

Every nominal cost is compared with an LP built here from the scenario
data and solved by scipy's HiGHS (a benchmark-only dependency), every
schedule must pass `validate_schedule`, robust objectives are recomputed
from the written allocation, and repeated runs must write identical bytes.
"""

from __future__ import annotations

import numpy as np

COST_REL_TOL = 1e-6  # against the HiGHS reference
RECOMPUTE_REL_TOL = 1e-7  # robust objective recomputed from the allocation
SCHEDULE_TOL_KW = 1e-8


def reference_cost(scenario) -> float:
    """Optimal nominal cost from HiGHS, with demand as `sum_t y >= load`
    like the program's model."""
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix, vstack

    T, n = scenario.occupancy.shape
    steps, vehicles = np.nonzero(scenario.occupancy)
    if steps.size == 0:
        return 0.0
    cols = np.arange(steps.size)
    unit = scenario.prices * (1.0 + scenario.waste) * scenario.step_hours
    demand = csr_matrix((-np.ones(steps.size), (vehicles, cols)), shape=(n, steps.size))
    budget = csr_matrix((np.ones(steps.size), (steps, cols)), shape=(T, steps.size))
    res = linprog(
        unit[steps],
        A_ub=vstack([demand, budget]),
        b_ub=np.concatenate([-scenario.load, scenario.capacity]),
        bounds=np.column_stack([np.zeros(steps.size), scenario.socket_limit[steps]]),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"reference LP for {scenario.scenario_id}: {res.message}")
    return float(res.fun)


def close(value: float, reference: float, rel: float) -> bool:
    return abs(value - reference) <= rel * max(1.0, abs(reference))


def schedule_problems(scenario, allocation) -> list[str]:
    from evsched import Method, Schedule, validate_schedule

    y = np.asarray(allocation, dtype=float)
    if y.shape != scenario.occupancy.shape:
        return [f"{scenario.scenario_id}: allocation shape {y.shape}"]
    report = validate_schedule(Schedule(y, Method.NOMINAL, scenario.scenario_id),
                               scenario, SCHEDULE_TOL_KW)
    return [f"{scenario.scenario_id}: {v.kind.value} {v.magnitude:.3e}"
            for v in report.violations]


def step_totals(scenario, allocation) -> np.ndarray:
    """Per-step energy drawn, (1 + waste) * dt * sum_i y[t, i]."""
    y = np.asarray(allocation, dtype=float) * scenario.occupancy
    return (1.0 + scenario.waste) * scenario.step_hours * y.sum(axis=1)


def robust_problems(scenario, doc: dict, radius: float, nominal_ref: float) -> list[str]:
    v = step_totals(scenario, doc["allocation"])
    recomputed = float(scenario.prices @ v + radius * np.linalg.norm(v))
    sid = scenario.scenario_id
    out = []
    if not close(doc["robust_objective"], recomputed, RECOMPUTE_REL_TOL):
        out.append(f"{sid}: robust objective {doc['robust_objective']!r} != "
                   f"center.v + r|v| = {recomputed!r}")
    if doc["robust_objective"] < nominal_ref - COST_REL_TOL * max(1.0, abs(nominal_ref)):
        out.append(f"{sid}: robust objective below the nominal optimum {nominal_ref!r}")
    return out


def cut_limit_hit(doc: dict) -> bool:
    """True when the reported gap is above the cutting-plane tolerance: the
    loop stopped at its cut limit, or on a repeated cut direction."""
    from evsched.solver.socp import GAP_ABS_TOL, GAP_REL_TOL

    gap = doc["cutting_plane_gap"]
    return gap > max(GAP_ABS_TOL, GAP_REL_TOL * max(1.0, abs(doc["robust_objective"])))
