"""Epigraph cutting planes for LPs with an added Euclidean-norm term.

Minimizes  c.x + weight * ||M x||_2  over an LP feasible set by lifting
the norm into an epigraph variable tau and approximating  tau >= ||M x||
with supporting hyperplanes  u_k . (M x) <= tau,  u_k = M x_k / ||M x_k||.
Each master LP is a relaxation, so its optimum is a valid lower bound;
evaluating the true objective at the iterate gives an upper bound, and the
loop stops once the best upper bound meets the lower bound at tolerance.

Cuts are placed by in-out separation (Ben-Ameur & Neto 2007): once the best
iterate x_b is not the master optimum x_k, the loop separates at
x_s = x_b + IN_OUT_ALPHA (x_k - x_b) instead of at x_k, which damps the
zig-zag of Kelley's cuts on a curved norm.  x_s is a convex combination of
two LP-feasible points, so its true objective is one more upper bound, and
the returned x may be such a point rather than a master vertex.  The cut at
x_s is kept only if it cuts off the master optimum and its direction is
new; otherwise the loop takes Kelley's cut at x_k, which always cuts it
off, so the loop converges as Kelley's does.

One simplex serves the whole loop (Kelley 1960): the first master is
solved from the caller's starting basis, if any, with tau resting at 0,
and each cut is appended to it as one more row with its slack.  The
previous optimal basis stays dual feasible for the grown master, so the
dual simplex re-optimizes it (Lemke 1954).  Every master is still certified
against its full constraint set, on the basis inverse the cut's pivots
updated: the basis is refactored every _REFACTOR_EVERY pivots, counted
across cuts, and after a cut only when its certificate fails.  On the
seed-1 pool of the robust-price benchmark that is 100 refactorizations
over 3025 cuts, where one per cut made 3125.  The result's `stats` is that
simplex's SolveStats, so its counters cover every master.

An infeasible LP raises Infeasible from the first master.  Tau can rise to
meet any cut, so Infeasible from a grown master is a NumericalFailure.

At weight 0 the master is the LP itself, without tau: its optimum is both
bounds at once, so the loop stops at its first iterate with a zero gap.
Short of the tolerance, the loop stops where Kelley's cut repeats an earlier
direction, and where M x = 0 at the master optimum, which no cut separates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .lp import (BasisStart, Infeasible, LinearProgram, LpSolution, NumericalFailure,
                 SolveStats, _Simplex)

# Convergence is checked as best_upper - lower <= max(abs, rel * |best_upper|).
# Tight defaults keep the returned iterate close to the true minimizer, not
# just its objective value.
GAP_ABS_TOL = 1e-9
GAP_REL_TOL = 1e-10
MAX_CUTS = 200
# Where the in-out separation point sits on the segment from the best
# iterate (0) to the master optimum (1).
IN_OUT_ALPHA = 0.3


class NormAugmentedStatus(Enum):
    OPTIMAL = "optimal"
    CUT_LIMIT = "cut-limit"


@dataclass
class NormAugmentedResult:
    """One cutting-plane run; `stats` is the SolveStats of the simplex that
    solved every master."""

    status: NormAugmentedStatus
    x: np.ndarray
    objective: float  # linear part + weight * norm at x
    norm_value: float
    lower_bound: float
    gap: float
    cuts: int
    stats: SolveStats
    lp_solution: LpSolution  # the master x came from, maybe short of its optimum


def _augmented(lp: LinearProgram, weight: float) -> LinearProgram:
    """The LP with the epigraph column tau appended at cost `weight`."""
    return LinearProgram(
        c=np.append(lp.c, weight),
        G=np.hstack([lp.G, np.zeros((lp.G.shape[0], 1))]),
        h=lp.h,
        E=np.hstack([lp.E, np.zeros((lp.E.shape[0], 1))]),
        b=lp.b,
        lo=np.concatenate([lp.lo, [0.0]]),
        up=np.concatenate([lp.up, [np.inf]]),
    )


def solve_norm_augmented(
    lp: LinearProgram,
    weight: float,
    norm_map: np.ndarray,
    *,
    start: BasisStart | None = None,
) -> NormAugmentedResult:
    if weight < 0:
        raise ValueError("weight must be nonnegative")
    M = np.atleast_2d(np.asarray(norm_map, dtype=float))
    if M.shape[1] != lp.num_vars:
        raise ValueError(
            f"norm_map has {M.shape[1]} columns, expected {lp.num_vars}"
        )

    # One simplex lives for the whole loop: the first master is solved from
    # `start` and every cut is appended to it and re-optimized from the last
    # basis.  At weight 0 tau would cost nothing, so the master is the LP
    # itself; otherwise tau starts nonbasic at 0.
    master = _Simplex(_augmented(lp, weight) if weight else lp)
    if weight and start is not None:
        start = BasisStart(np.append(start.x, 0.0), start.basic)
    sol = master.solve(start)
    dirs = np.empty((MAX_CUTS, M.shape[0]))
    best_obj = math.inf  # best_*: the least upper bound, its point, norm and master
    lower = -math.inf

    for k in range(MAX_CUTS + 1):
        x = sol.x[: lp.num_vars]
        lower = max(lower, float(sol.objective_value))
        obj, nv, v = _evaluate(lp, weight, M, x)
        at_master = obj < best_obj
        if at_master:
            best_obj, best_x, best_nv, best_sol = obj, x, nv, sol
        converged = _converged(best_obj, lower)
        if converged or k == MAX_CUTS:
            break
        u = None
        if not at_master:
            # in-out separation: the point between the best iterate and the
            # master optimum is LP-feasible, so it bounds from above too
            xs = best_x + IN_OUT_ALPHA * (x - best_x)
            obj_s, nv_s, v_s = _evaluate(lp, weight, M, xs)
            if obj_s < best_obj:
                best_obj, best_x, best_nv, best_sol = obj_s, xs, nv_s, sol
                converged = _converged(best_obj, lower)
                if converged:
                    break
            if nv_s > 0.0:
                u = v_s / nv_s
                if u @ v <= sol.x[lp.num_vars] or _repeats(dirs[:k], u):
                    u = None  # it keeps the master optimum, or is no new cut
        if u is None:  # Kelley's cut at the master optimum
            if nv == 0.0:
                break  # M x = 0: no supporting hyperplane cuts the optimum off
            u = v / nv
            if _repeats(dirs[:k], u):
                break  # duplicate support direction: the master cannot improve
        dirs[k] = u
        try:
            sol = master.add_inequality(np.append(u @ M, -1.0), 0.0)
        except Infeasible as exc:  # tau can rise to meet any cut
            raise NumericalFailure(f"master infeasible after {k + 1} cuts") from exc

    return NormAugmentedResult(
        status=NormAugmentedStatus.OPTIMAL if converged else NormAugmentedStatus.CUT_LIMIT,
        x=best_x, objective=best_obj, norm_value=best_nv, lower_bound=lower,
        gap=float(best_obj - lower), cuts=k, stats=master.stats, lp_solution=best_sol)


def _evaluate(lp: LinearProgram, weight: float, M: np.ndarray,
              x: np.ndarray) -> tuple[float, float, np.ndarray]:
    """The true objective at an LP-feasible point, an upper bound, with the
    norm and the M x it is made of.  Raises NumericalFailure when the
    objective is not finite."""
    v = M @ x
    nv = float(np.linalg.norm(v))
    objective = float(lp.c @ x) + weight * nv
    if not math.isfinite(objective):
        raise NumericalFailure(f"objective {objective} at an LP-feasible point")
    return objective, nv, v


def _converged(best_upper: float, lower: float) -> bool:
    # written so that a NaN or infinite bound never converges
    tol = max(GAP_ABS_TOL, GAP_REL_TOL * max(1.0, abs(best_upper)))
    return best_upper - lower <= tol < math.inf


def _repeats(dirs: np.ndarray, u: np.ndarray) -> bool:
    return bool(dirs.size) and np.abs(dirs - u).max(axis=1).min() < 1e-14
