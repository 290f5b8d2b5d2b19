import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import evsched
import evsched.robust
import evsched.solver.socp as socp_module
from evsched import Scenario, occupancy_from_windows
from evsched.solver import FEASIBILITY_TOL, NormAugmentedStatus, certify


def make_scenario(
    windows,
    load,
    prices,
    *,
    horizon=None,
    capacity=300.0,
    socket=7.0,
    waste=0.0,
    step_hours=1.0,
    scenario_id="test",
):
    """Small-scenario shorthand used across the suite."""
    prices = np.atleast_1d(np.asarray(prices, dtype=float))
    T = horizon if horizon is not None else prices.size
    return Scenario(
        horizon_steps=T,
        step_hours=step_hours,
        occupancy=occupancy_from_windows(T, windows),
        load=load,
        capacity=capacity,
        socket_limit=socket,
        waste=waste,
        prices=prices,
        scenario_id=scenario_id,
    )


def run_on_one_blas_thread(source: str, *args: str) -> str:
    """Run the python `source` with command-line `args` in a child process
    whose BLAS uses one thread, and return what it printed.  Exact pins
    (pivot counts, report digests) are taken this way: threaded BLAS sums
    in another order, which can change a pivot choice."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(Path(evsched.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", source, *args], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    return run.stdout


@pytest.fixture
def two_step_vehicle():
    """The hand instance: T=2, prices [2, 1], waste 0.01, one vehicle
    present both steps with demand 5, socket 7, capacity 300."""
    return make_scenario([(1, 2)], [5.0], [2.0, 1.0], waste=0.01)


@pytest.fixture
def no_polish(monkeypatch):
    """Decline every polish, so that the cutting-plane loop runs its cuts as
    it would without one; for the tests that exist to exercise the cuts."""
    monkeypatch.setattr(socp_module, "_polish", lambda *args: None)


def assert_certified(lp, M, weight, result):
    """`certify` on the result's own certificate passes at the loop's
    tolerances, and its upper bound is the result's objective."""
    upper, lower, residual = certify(lp, M, weight, result.x, *result.certificate)
    assert residual <= FEASIBILITY_TOL
    assert socp_module._converged(upper, lower), (upper, lower)
    assert upper == pytest.approx(result.objective, rel=1e-15, abs=1e-15)


def certifying(solve_norm_augmented):
    """`solve_norm_augmented` checking every OPTIMAL result it returns with
    `assert_certified`."""

    def solve(lp, weight, norm_map, **kwargs):
        result = solve_norm_augmented(lp, weight, norm_map, **kwargs)
        if result.status is NormAugmentedStatus.OPTIMAL:
            assert_certified(lp, np.atleast_2d(norm_map), weight, result)
        return result

    return solve


@pytest.fixture
def certified_solves(monkeypatch):
    """Every `solve` checks each OPTIMAL result of its cutting-plane kernel
    with `assert_certified`, nominal (radius 0) and robust alike; a module
    applies it with `pytestmark`."""
    monkeypatch.setattr(evsched.robust, "solve_norm_augmented",
                        certifying(evsched.robust.solve_norm_augmented))
