"""Epigraph cutting planes for LPs with an added Euclidean-norm term,
stopped early by a certified polish of the master's face.

Minimizes  c.x + weight * ||M x||_2  over an LP feasible set by lifting
the norm into an epigraph variable tau and approximating  tau >= ||M x||
with supporting hyperplanes  u_k . (M x) <= tau,  u_k = M x_k / ||M x_k||,
each Kelley's cut at the master optimum x_k (Kelley 1960).  Each master LP
is a relaxation, so its optimum is a valid lower bound, and so is
`certify`'s bound at its multipliers, which the loop takes after a cut;
evaluating the true objective at the master optimum gives an upper bound,
and the loop stops once the best upper bound meets the lower bound at
tolerance.  The returned x is the best master optimum or a polished point.

`certify` (`lp.py`, the LP's own acceptance test) bounds the program from
a point x and multipliers alone.

Before cutting, the loop polishes the master's face, as OSQP polishes a QP
(Stellato et al. 2020): it guesses the active set from the master, solves
the equality-constrained problem on it, and keeps the result only if it
checks.  The face is the LP rows whose multiplier is above _FACE_TOL and
the columns at a bound whose reduced cost is beyond it.  Newton's method
minimizes the objective with those rows as equalities and those columns at
their bounds; a step that meets a free column's bound or another row stops
there and adds it to the face, and where Newton has converged the rows and
bounds whose multiplier has the wrong sign leave it (`_polish`).  When
`certify`, at the Newton multipliers and u = M x / ||M x||, passes at
FEASIBILITY_TOL and the loop's gap tolerances, the loop returns the
polished point with `polished` set and the cuts made so far; otherwise it
takes Kelley's cut, and tries again at every master.  At weight 0 the loop
stops at its first master, before any polish.  On the seed-1 pool of the
robust-price benchmark, and on every day of `synth.random_batch(5, 30)` at
radius 0.5 and 2, the polish certifies the first master, before any cut.

The first master is the LP itself, solved by `solve_lp` from the caller's
start, as nominal is: it drops the norm term, so its optimum is a lower
bound, and at weight 0 it is both bounds at once, so the loop stops there
with a zero gap.  Each cut makes a new master (`_master`): the LP with the
epigraph column tau appended at cost `weight` in [0, reach], reach =
|| |M| max(|lo|, |up|) || (the most ||M x|| can be over the LP's box, or
the largest float where that is infinite), and one row u_k . (M x) - tau <= 0
per cut so far.  `solve_lp` solves it from the same start, tau resting at 0
and each cut row starting with its slack or an artificial.  Tau at a master
optimum is the largest cut value u_k . M x, at most ||M x||, so the cap
keeps every optimum; it gives every master a finite box, which `certify`
needs to accept it.  The result's `stats` sums the SolveStats of every
master (all 0 where none is built).

An infeasible LP raises Infeasible from the first master.  Tau can rise to
meet any cut, so Infeasible from a grown master is a NumericalFailure.

Short of the tolerance, the loop stops where Kelley's cut repeats an earlier
direction, and where M x = 0 at the master optimum, which no cut separates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .lp import (FEASIBILITY_TOL, GAP_ABS_TOL, GAP_REL_TOL, BasisStart, Infeasible,
                 LinearProgram, LpSolution, NumericalFailure, SolveStats, _converged, certify,
                 solve_lp)

MAX_CUTS = 200
# The face of a master optimum: its LP rows whose multiplier is above this,
# and its columns at a bound whose reduced cost is beyond it.
_FACE_TOL = 1e-12
_NEWTON_STEPS = 200  # KKT solves one polish may make, over all its faces
_KKT_REG = 1e-7  # proximal regularization of the polish's KKT systems
_FLAT = 1e-14  # a Newton slope below this, relative to the objective, is converged
_LEAST_STEP = 2.0 ** -10  # backtracking below this step is converged too


class NormAugmentedStatus(Enum):
    OPTIMAL = "optimal"
    CUT_LIMIT = "cut-limit"


@dataclass
class NormAugmentedResult:
    """One cutting-plane run; `stats` sums the SolveStats of every master's
    simplex, all 0 where the start needed none."""

    status: NormAugmentedStatus
    x: np.ndarray
    objective: float  # linear part + weight * norm at x
    lower_bound: float
    gap: float
    cuts: int
    stats: SolveStats
    polished: bool  # x is the certified polish of a master's face, not a vertex
    # (lam, nu, u) for `certify`: the polish's multipliers, or those of the
    # master that gave lower_bound, u from its cut multipliers
    certificate: tuple[np.ndarray, np.ndarray, np.ndarray]


def _master(lp: LinearProgram, weight: float, M: np.ndarray, dirs: np.ndarray,
            start: BasisStart | None) -> tuple[LinearProgram, BasisStart | None]:
    """The master after the cuts `dirs`: the LP with tau appended at cost
    `weight` in [0, reach], and one row [u_k . M, -1] x <= 0 per cut, with
    its start: `start` with tau at rest 0 and each cut row on its slack or
    an artificial."""
    with np.errstate(over="ignore"):  # a reach past the float range is infinite
        reach = math.hypot(*np.abs(M) @ np.maximum(np.abs(lp.lo), np.abs(lp.up)))
    k = dirs.shape[0]
    master = LinearProgram(
        c=np.append(lp.c, weight),
        G=np.block([[lp.G, np.zeros((lp.G.shape[0], 1))], [dirs @ M, np.full((k, 1), -1.0)]]),
        h=np.append(lp.h, np.zeros(k)),
        E=np.hstack([lp.E, np.zeros((lp.E.shape[0], 1))]),
        b=lp.b,
        lo=np.append(lp.lo, 0.0),
        up=np.append(lp.up, min(reach, np.finfo(float).max)),
    )
    if start is not None:
        start = BasisStart(np.append(start.x, 0.0), np.append(start.basic, np.full(k, -1)))
    return master, start


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

    sol = solve_lp(lp, start)  # the first master, the LP itself
    stats = sol.stats
    dirs = np.empty((MAX_CUTS, M.shape[0]))
    best_obj = math.inf  # the least upper bound, at the master vertex best_x
    # the first master's objective bounds the minimum from below; a grown
    # master's bound is `certify`'s at its multipliers, and the loop keeps the
    # greatest with the certificate that gave it (None: the current master's)
    lower, certificate = float(sol.objective_value), None

    for k in range(MAX_CUTS + 1):
        x = sol.x[: lp.num_vars]
        obj, nv, v = _evaluate(lp, weight, M, x)
        if k:
            master_cert = _master_certificate(lp, weight, sol, dirs[:k])
            bound = certify(lp, M, weight, x, *master_cert)[1]
            if bound > lower:
                lower, certificate = bound, master_cert
        if obj < best_obj:
            best_obj, best_x = obj, x
        converged = _converged(best_obj, lower)
        if converged:
            break
        with np.errstate(all="ignore"):  # a value that overflows fails `certify`
            polish = _polish(lp, weight, M, sol, _face(lp, M, sol, dirs[:k]))
        if polish is not None:
            x, upper, bound, certificate = polish
            return NormAugmentedResult(
                status=NormAugmentedStatus.OPTIMAL, x=x, objective=upper,
                lower_bound=bound, gap=upper - bound, cuts=k, stats=stats,
                polished=True, certificate=certificate)
        if k == MAX_CUTS:
            break
        if nv == 0.0:
            break  # M x = 0: no supporting hyperplane cuts the optimum off
        u = v / nv  # Kelley's cut at the master optimum
        if _repeats(dirs[:k], u):
            break  # duplicate support direction: the master cannot improve
        dirs[k] = u
        try:
            sol = solve_lp(*_master(lp, weight, M, dirs[: k + 1], start))
        except Infeasible as exc:  # tau can rise to meet any cut
            raise NumericalFailure(f"master infeasible after {k + 1} cuts") from exc
        stats += sol.stats

    return NormAugmentedResult(
        status=NormAugmentedStatus.OPTIMAL if converged else NormAugmentedStatus.CUT_LIMIT,
        x=best_x, objective=best_obj, lower_bound=lower,
        gap=float(best_obj - lower), cuts=k, stats=stats, polished=False,
        certificate=certificate or _master_certificate(lp, weight, sol, dirs[:k]))


def _master_certificate(lp: LinearProgram, weight: float, sol: LpSolution,
                        dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`certify`'s multipliers from a master: those of its LP rows, and
    u = sum_k pi_k u_k / weight from its cut multipliers pi, which tau's
    reduced cost weight - sum_k pi_k >= 0 keeps within the unit ball."""
    m = lp.G.shape[0]
    cut_duals = sol.dual_ineq[m:]
    u = cut_duals @ dirs / weight if weight else np.zeros(dirs.shape[1])
    return sol.dual_ineq[:m], sol.dual_eq, u


def _face(lp: LinearProgram, M: np.ndarray, sol: LpSolution, dirs: np.ndarray) -> np.ndarray:
    """The face of a master optimum as one mask over [LP rows | columns at
    their lower bound | columns at their upper bound]: the rows whose
    multiplier is above _FACE_TOL and the columns whose reduced cost is
    beyond it.  Each cut row u_k . (M x) <= tau adds its multiplier times
    M^T u_k to the reduced costs."""
    m = lp.G.shape[0]
    x = sol.x[: lp.num_vars]
    lam, cut_duals = sol.dual_ineq[:m], sol.dual_ineq[m:]
    d = lp.c + lam @ lp.G + sol.dual_eq @ lp.E + (cut_duals @ dirs) @ M
    return np.concatenate([lam > _FACE_TOL, (x == lp.lo) & (d > _FACE_TOL),
                           (x == lp.up) & (d < -_FACE_TOL)])


def _polish(lp: LinearProgram, weight: float, M: np.ndarray, sol: LpSolution,
            face: np.ndarray) -> tuple[np.ndarray, float, float, tuple] | None:
    """Minimize c.x + weight ||M x|| on the `face` of the master optimum
    `sol`, and return (x, upper, lower, (lam, nu, u)) once `certify` passes
    on them at the loop's tolerances; None when it has not after
    _NEWTON_STEPS KKT solves.

    The face's rows are equalities and its columns stay at their bounds;
    Newton's method moves the others.  A step that would take a free
    column out of its box, or break a row outside the face, stops where it
    first would, and that column or row joins the face.  Once Newton has
    converged on a face, the rows and bounds whose multiplier has the wrong
    sign leave it; the polish gives up when there are none.  _NEWTON_STEPS
    bounds the whole polish, however many faces it visits.  Each KKT system
    carries a proximal regularization of _KKT_REG, which keeps it
    nonsingular (the face's rows may be dependent, and its Hessian
    weight / ||M x|| M^T (I - u u^T) M has rank below that of M) and leaves
    its fixed points exact.  `face` is updated in place."""
    c, G, h, E, b, lo, up = lp.c, lp.G, lp.h, lp.E, lp.b, lp.lo, lp.up
    n, m, m_eq = lp.num_vars, G.shape[0], E.shape[0]
    rows, fix_lo, fix_up = np.split(face, [m, m + n])  # views into `face`
    x = sol.x[:n]
    lam = np.where(rows, sol.dual_ineq[:m], 0.0)
    nu = sol.dual_eq
    new_face = True
    for _ in range(_NEWTON_STEPS):
        if new_face:
            # on a face only the free columns z = x[free] move, so every
            # product is taken over them, with the fixed columns' share
            # computed once
            free = ~(fix_lo | fix_up)
            x = np.where(fix_lo, lo, np.where(fix_up, up, x))
            fixed = np.where(free, 0.0, x)
            z = x[free]
            A = np.vstack([E, G[rows]])
            A_free, G_free, M_free = A[:, free], G[:, free], M[:, free]
            a = np.concatenate([b, h[rows]]) - A @ fixed
            slack_fixed = h - G @ fixed
            v_fixed = M @ fixed
            f_fixed = float(c @ fixed)
            c_free, lo_free, up_free = c[free], lo[free], up[free]
            nk, nf = A_free.shape
            kkt = np.zeros((nf + nk, nf + nk))
            kkt[:nf, nf:] = A_free.T
            kkt[nf:, :nf] = A_free
            kkt[nf:, nf:] = -_KKT_REG * np.eye(nk)
            reg = _KKT_REG * np.eye(nf)
            new_face = False
        v = v_fixed + M_free @ z
        nv = float(np.linalg.norm(v))
        if not nv > 0.0:
            return None  # the norm has no gradient at M x = 0
        f = f_fixed + float(c_free @ z) + weight * nv
        u = v / nv
        q = u @ M_free
        kkt[:nf, :nf] = weight / nv * (M_free.T @ M_free - np.outer(q, q)) + reg
        grad = c_free + weight * q
        prox = _KKT_REG * np.concatenate([nu, lam[rows]])
        try:
            step = np.linalg.solve(kkt, np.concatenate([-grad, a - A_free @ z - prox]))
        except np.linalg.LinAlgError:
            return None
        dz, nu = step[:nf], step[nf: nf + m_eq]
        lam = np.zeros(m)
        lam[rows] = step[nf + m_eq:]
        slope = float(grad @ dz)
        # certify where Newton's predicted decrease, about -slope / 2, does
        # not already exceed the gap tolerance many times over
        if -slope <= 100.0 * max(GAP_ABS_TOL, GAP_REL_TOL * abs(f)):
            x[free] = z
            upper, lower, residual = certify(lp, M, weight, x, lam, nu, u)
            if residual <= FEASIBILITY_TOL and _converged(upper, lower):
                return x, upper, lower, (lam, nu, u)
        if abs(slope) > _FLAT * max(1.0, abs(f)):
            # the longest step that keeps the free columns in their box and
            # the rows outside the face met; a descent step backtracks from
            # there, one that restores the face's rows does not
            rise = G_free @ dz
            room = np.concatenate([np.where(dz < 0.0, z - lo_free, up_free - z),
                                   np.where(rows, np.inf,
                                            np.maximum(slack_fixed - G_free @ z, 0.0))])
            rate = np.abs(np.concatenate([dz, np.where(rise > 0.0, rise, 0.0)]))
            limits = np.divide(room, rate, out=np.full(rate.size, np.inf), where=rate > 0.0)
            t_max = float(limits.min(initial=np.inf))
            t = min(1.0, t_max)
            c_dz, M_dz = float(c_free @ dz), M_free @ dz
            while (slope < 0.0 and t >= _LEAST_STEP
                   and not (f_fixed + float(c_free @ z) + t * c_dz
                            + weight * float(np.linalg.norm(v + t * M_dz))
                            <= f + 1e-4 * t * slope)):
                t *= 0.5
            if t == t_max:  # blocked: what blocks joins the face
                x[free] = z + t * dz
                hit = limits <= t_max
                fix_lo[free] |= hit[:nf] & (dz < 0.0)
                fix_up[free] |= hit[:nf] & (dz > 0.0)
                rows |= hit[nf:]
                new_face = True
                continue
            if t >= _LEAST_STEP:
                z = z + t * dz
                continue
        # converged on this face: the rows and bounds whose multiplier has
        # the wrong sign leave it
        x[free] = z
        d = c + weight * (u @ M) + lam @ G + nu @ E
        leave = np.concatenate([rows & (lam < -_FACE_TOL), fix_lo & (d < -_FACE_TOL),
                                fix_up & (d > _FACE_TOL)])
        face &= ~leave
        if not leave.any():
            return None
        new_face = True
    return None


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


def _repeats(dirs: np.ndarray, u: np.ndarray) -> bool:
    return bool(dirs.size) and np.abs(dirs - u).max(axis=1).min() < 1e-14
