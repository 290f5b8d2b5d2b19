"""The robust census: 2005 robust solves over seeded synthetic days.

The days are `random_batch(5, 30)`, `(1, 100)`, `(2, 100)`,
`(7, 100, horizon_steps=6, max_vehicles=3)`,
`(3, 20, horizon_steps=48, step_hours=0.5)`, `(4, 50, capacity=40.0)` and
one T=96 day.  Each runs at robust-price r in {0.1, 0.5, 2} and at
robust-load r in {0.5, 2} with the load scaled by 1.2.  The script prints
one line of counts: solved, infeasible, NumericalFailure, cut-limit days,
cut days, cuts, pivots and unpolished days.  The counts are exact only with
BLAS on one thread; run it from the repository root with

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/census.py

pytest does not collect it: its name does not start with `test_`.
"""

from __future__ import annotations

import numpy as np

from evsched import InfeasibleScenario, Method, solve
from evsched.solver import NumericalFailure
from evsched.synth import random_batch, random_scenario

RUNS = [(Method.ROBUST_PRICE, r, 1.0) for r in (0.1, 0.5, 2.0)] + [
    (Method.ROBUST_LOAD, r, 1.2) for r in (0.5, 2.0)]


def census():
    """Each census solve as (scenario, method, radius, load scale, outcome);
    the outcome is a SolveResult, or the InfeasibleScenario or
    NumericalFailure the solve raised."""
    days = [
        *random_batch(5, 30),
        *random_batch(1, 100),
        *random_batch(2, 100),
        *random_batch(7, 100, horizon_steps=6, max_vehicles=3),
        *random_batch(3, 20, horizon_steps=48, step_hours=0.5),
        *random_batch(4, 50, capacity=40.0),
        random_scenario(np.random.default_rng(5), horizon_steps=96, step_hours=0.25,
                        num_vehicles=15),
    ]
    for method, radius, scale in RUNS:
        for sc in days:
            try:
                outcome = solve(sc, method, radius=radius, load_scale=scale)
            except (InfeasibleScenario, NumericalFailure) as exc:
                outcome = exc
            yield sc, method, radius, scale, outcome


def main() -> None:
    results, infeasible, failures = [], 0, 0
    for *_, outcome in census():
        if isinstance(outcome, InfeasibleScenario):
            infeasible += 1
        elif isinstance(outcome, NumericalFailure):
            failures += 1
        else:
            results.append(outcome)
    print(f"solved {len(results)} infeasible {infeasible} failures {failures}"
          f" cut_limit {sum(not r.converged for r in results)}"
          f" cut_days {sum(r.cuts > 0 for r in results)}"
          f" cuts {sum(r.cuts for r in results)}"
          f" pivots {sum(r.stats.pivots for r in results)}"
          f" unpolished {sum(not r.polished for r in results)}")


if __name__ == "__main__":
    main()
