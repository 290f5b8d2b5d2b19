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

At weight 0 the master is the LP itself, without tau: its optimum is both
bounds at once, so the loop stops at its first iterate with a zero gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .lp import (BasisStart, LinearProgram, LpSolution, LpStatus, NumericalFailure, SolveStats,
                 _Simplex)

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
    INFEASIBLE = "infeasible"


@dataclass
class NormAugmentedResult:
    """One cutting-plane run; `stats` is the SolveStats of the simplex that
    solved every master, set once the loop ends."""

    status: NormAugmentedStatus
    x: np.ndarray | None = None
    objective: float | None = None  # linear part + weight * norm at x
    norm_value: float | None = None
    lower_bound: float | None = None
    gap: float | None = None
    cuts: int = 0
    stats: SolveStats | None = None
    lp_solution: LpSolution | None = None  # the master x came from, maybe short of its optimum


def _augmented(lp: LinearProgram, weight: float) -> LinearProgram:
    """The LP with the epigraph column tau appended at cost `weight`."""
    E = np.hstack([lp.E, np.zeros((lp.E.shape[0], 1))]) if lp.E.shape[0] else None
    return LinearProgram(
        c=np.append(lp.c, weight),
        G=np.hstack([lp.G, np.zeros((lp.G.shape[0], 1))]),
        h=lp.h,
        E=E,
        b=lp.b if lp.E.shape[0] else None,
        lo=np.concatenate([lp.lo, [0.0]]),
        up=np.concatenate([lp.up, [np.inf]]),
    )


def solve_norm_augmented(
    lp: LinearProgram,
    weight: float,
    norm_map: np.ndarray,
    *,
    start: BasisStart | None = None,
    max_cuts: int = MAX_CUTS,
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
    dirs = np.empty((max_cuts, M.shape[0]))
    best: NormAugmentedResult | None = None
    lower = -np.inf

    for k in range(max_cuts + 1):
        if sol.status is not LpStatus.OPTIMAL:
            if k:  # tau can rise to meet any cut, so only numerics end here
                raise NumericalFailure(f"master {sol.status.value} after {k} cuts")
            return NormAugmentedResult(status=NormAugmentedStatus(sol.status.value),
                                       lp_solution=sol, stats=master.stats)
        x = sol.x[: lp.num_vars]
        lower = max(lower, float(sol.objective_value))
        point = _evaluate(lp, weight, M, x, sol)
        if best is None or point.objective < best.objective:
            best = point
        converged = _converged(best.objective, lower)
        if converged or k == max_cuts:
            break
        v = M @ x
        u = None
        if best is not point:
            # in-out separation: the point between the best iterate and the
            # master optimum is LP-feasible, so it bounds from above too
            inner = _evaluate(lp, weight, M, best.x + IN_OUT_ALPHA * (x - best.x), sol)
            if inner.objective < best.objective:
                best = inner
                converged = _converged(best.objective, lower)
                if converged:
                    break
            if inner.norm_value > 0.0:
                u = M @ inner.x / inner.norm_value
                tau = sol.x[lp.num_vars]
                if u @ v <= tau or _repeats(dirs[:k], u):
                    u = None  # it keeps the master optimum, or is no new cut
        if u is None:  # Kelley's cut at the master optimum
            u = v / point.norm_value if point.norm_value > 0.0 else _unit_axis(M.shape[0])
            if _repeats(dirs[:k], u):
                break  # duplicate support direction: the master cannot improve
        dirs[k] = u
        sol = master.add_inequality(np.append(u @ M, -1.0), 0.0)

    if not converged:
        best.status = NormAugmentedStatus.CUT_LIMIT
    best.lower_bound = lower
    best.gap = float(best.objective - lower)
    best.cuts = k
    best.stats = master.stats
    return best


def _evaluate(lp: LinearProgram, weight: float, M: np.ndarray, x: np.ndarray,
              sol: LpSolution) -> NormAugmentedResult:
    """The true objective at an LP-feasible point, an upper bound."""
    nv = float(np.linalg.norm(M @ x))
    return NormAugmentedResult(status=NormAugmentedStatus.OPTIMAL, x=x,
                               objective=float(lp.c @ x) + weight * nv,
                               norm_value=nv, lp_solution=sol)


def _converged(best_upper: float, lower: float) -> bool:
    return best_upper - lower <= max(GAP_ABS_TOL, GAP_REL_TOL * max(1.0, abs(best_upper)))


def _repeats(dirs: np.ndarray, u: np.ndarray) -> bool:
    return bool(dirs.size) and np.abs(dirs - u).max(axis=1).min() < 1e-14


def _unit_axis(dim: int) -> np.ndarray:
    u = np.zeros(dim)
    if dim:
        u[0] = 1.0
    return u
