"""Epigraph cutting planes for LPs with an added Euclidean-norm term.

Minimizes  c.x + weight * ||M x||_2  over an LP feasible set by lifting
the norm into an epigraph variable tau and approximating  tau >= ||M x||
with supporting hyperplanes  u_k . (M x) <= tau,  u_k = M x_k / ||M x_k||.
Each master LP is a relaxation, so its optimum is a valid lower bound;
evaluating the true objective at the iterate gives an upper bound, and the
loop stops once the best upper bound meets the lower bound at tolerance.

One simplex serves the whole loop (Kelley 1960): the first master is
solved cold, and each cut is appended to it as one more row and
re-optimized from the previous optimal basis, which is near-optimal for
the grown master.  Every master is still certified against its full
constraint set, and `pivots` counts the simplex pivots over all masters.

With weight 0 the problem is the plain LP and we short-circuit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .lp import LinearProgram, LpSolution, LpStatus, _Simplex, solve_lp

# Convergence is checked as best_upper - lower <= max(abs, rel * |best_upper|).
# Tight defaults keep the returned iterate close to the true minimizer, not
# just its objective value.
GAP_ABS_TOL = 1e-9
GAP_REL_TOL = 1e-10
MAX_CUTS = 200


class NormAugmentedStatus(Enum):
    OPTIMAL = "optimal"
    CUT_LIMIT = "cut-limit"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class NormAugmentedResult:
    status: NormAugmentedStatus
    x: np.ndarray | None = None
    objective: float | None = None  # linear part + weight * norm at x
    linear_part: float | None = None
    norm_value: float | None = None
    lower_bound: float | None = None
    gap: float | None = None
    cuts: int = 0
    pivots: int = 0  # simplex pivots over every master LP
    lp_solution: LpSolution | None = None


def _augmented(lp: LinearProgram, weight: float, cut_rows: np.ndarray) -> LinearProgram:
    n = lp.num_vars
    c = np.concatenate([lp.c, [weight]])
    G_base = np.hstack([lp.G, np.zeros((lp.G.shape[0], 1))])
    blocks = [G_base]
    h = [lp.h]
    if cut_rows.size:
        blocks.append(np.hstack([cut_rows, -np.ones((cut_rows.shape[0], 1))]))
        h.append(np.zeros(cut_rows.shape[0]))
    E = np.hstack([lp.E, np.zeros((lp.E.shape[0], 1))]) if lp.E.shape[0] else None
    return LinearProgram(
        c=c,
        G=np.vstack(blocks),
        h=np.concatenate(h),
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
    gap_abs_tol: float = GAP_ABS_TOL,
    gap_rel_tol: float = GAP_REL_TOL,
    max_cuts: int = MAX_CUTS,
) -> NormAugmentedResult:
    if weight < 0:
        raise ValueError("weight must be nonnegative")
    M = np.atleast_2d(np.asarray(norm_map, dtype=float))
    if M.shape[1] != lp.num_vars:
        raise ValueError(
            f"norm_map has {M.shape[1]} columns, expected {lp.num_vars}"
        )

    if weight == 0.0:
        sol = solve_lp(lp)
        if sol.status is not LpStatus.OPTIMAL:
            return NormAugmentedResult(
                status=NormAugmentedStatus(sol.status.value),
                pivots=sol.iterations,
                lp_solution=sol,
            )
        nv = float(np.linalg.norm(M @ sol.x))
        return NormAugmentedResult(
            status=NormAugmentedStatus.OPTIMAL,
            x=sol.x,
            objective=sol.objective_value,
            linear_part=sol.objective_value,
            norm_value=nv,
            lower_bound=sol.objective_value,
            gap=0.0,
            cuts=0,
            pivots=sol.iterations,
            lp_solution=sol,
        )

    # One simplex lives for the whole loop: the first master is solved cold
    # and every cut is appended to it and re-optimized from the last basis.
    master = _Simplex(_augmented(lp, weight, np.zeros((0, lp.num_vars))))
    sol = master.solve()
    dirs = np.empty((max_cuts, M.shape[0]))
    best: NormAugmentedResult | None = None
    best_upper = np.inf
    lower = -np.inf

    for k in range(max_cuts + 1):
        if sol.status is not LpStatus.OPTIMAL:
            return NormAugmentedResult(
                status=NormAugmentedStatus(sol.status.value),
                pivots=master.iterations,
                lp_solution=sol,
            )
        x = sol.x[:-1]
        lower = max(lower, float(sol.objective_value))
        v = M @ x
        nv = float(np.linalg.norm(v))
        linear = float(lp.c @ x)
        upper = linear + weight * nv
        if upper < best_upper:
            best_upper = upper
            best = NormAugmentedResult(
                status=NormAugmentedStatus.OPTIMAL,
                x=x,
                objective=upper,
                linear_part=linear,
                norm_value=nv,
                lp_solution=sol,
            )
        gap = best_upper - lower
        if gap <= max(gap_abs_tol, gap_rel_tol * max(1.0, abs(best_upper))):
            best.lower_bound = lower
            best.gap = float(gap)
            best.cuts = k
            best.pivots = master.iterations
            return best
        if k == max_cuts:
            break
        u = v / nv if nv > 0.0 else _unit_axis(M.shape[0])
        if k and np.abs(dirs[:k] - u).max(axis=1).min() < 1e-14:
            break  # duplicate support direction: the master cannot improve
        dirs[k] = u
        sol = master.add_inequality(np.append(u @ M, -1.0), 0.0)

    best.status = NormAugmentedStatus.CUT_LIMIT
    best.lower_bound = lower
    best.gap = float(best_upper - lower)
    best.cuts = k
    best.pivots = master.iterations
    return best


def _unit_axis(dim: int) -> np.ndarray:
    u = np.zeros(dim)
    if dim:
        u[0] = 1.0
    return u
