"""Dense revised simplex for linear programs with variable bounds.

Solves

    min  c . x
    s.t. G x <= h,  E x = b,  lo <= x <= up   (bounds may be infinite)

with a two-phase bounded-variable simplex.  Inequalities get slack
columns, infeasible starting rows get artificial columns, and phase one
minimizes the artificial sum.  Pricing is Dantzig (most negative reduced
cost, ties to the lowest column index); after a run of degenerate pivots
the solver switches to Bland's smallest-index rule until the objective
moves again, which prevents cycling.  The pivot sequence is a pure
function of the instance, so results are bit-reproducible.

Optimal solutions always carry a dual certificate (multipliers for G, E
and the active bounds) and the solver re-checks primal residuals and the
duality gap before reporting Optimal; if certification fails at tolerance
it raises NumericalFailure instead of mislabeling the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Certification thresholds (see LpSolution): absolute on residuals,
# relative on the duality gap.
FEASIBILITY_TOL = 1e-8
GAP_REL_TOL = 1e-7

_DUAL_TOL = 1e-9  # reduced-cost optimality threshold
_PIVOT_TOL = 1e-9  # smallest acceptable pivot magnitude
_RATIO_TIE = 1e-10  # ratio-test tie window
_REFACTOR_EVERY = 64
_BLAND_AFTER = 30  # degenerate pivots before switching to Bland


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class NumericalFailure(RuntimeError):
    """The solver could not certify a result at tolerance."""


@dataclass(frozen=True)
class LinearProgram:
    """Standard-form LP; G/h and E/b may be omitted, bounds default to
    [0, +inf)."""

    c: np.ndarray
    G: np.ndarray | None = None
    h: np.ndarray | None = None
    E: np.ndarray | None = None
    b: np.ndarray | None = None
    lo: np.ndarray | None = None
    up: np.ndarray | None = None

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("c must be a nonempty vector")
        n = c.size
        object.__setattr__(self, "c", c)

        def norm_system(mat, rhs, mat_name):
            if mat is None and rhs is None:
                return np.zeros((0, n)), np.zeros(0)
            mat = np.atleast_2d(np.asarray(mat, dtype=float))
            rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
            if mat.shape != (rhs.size, n):
                raise ValueError(
                    f"{mat_name} shape {mat.shape} inconsistent with "
                    f"n={n}, rhs={rhs.size}"
                )
            return mat, rhs

        G, h = norm_system(self.G, self.h, "G")
        E, b = norm_system(self.E, self.b, "E")
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "b", b)

        lo = (
            np.zeros(n)
            if self.lo is None
            else np.atleast_1d(np.asarray(self.lo, dtype=float))
        )
        up = (
            np.full(n, np.inf)
            if self.up is None
            else np.atleast_1d(np.asarray(self.up, dtype=float))
        )
        if lo.shape != (n,) or up.shape != (n,):
            raise ValueError("bounds must have length n")
        for name, arr in (("c", c), ("G", G), ("h", h), ("E", E), ("b", b)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
        if np.isnan(lo).any() or np.isnan(up).any():
            raise ValueError("bounds must not be NaN")
        if (lo > up).any():
            raise ValueError("lo must be <= up elementwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "up", up)

    @property
    def num_vars(self) -> int:
        return self.c.size


@dataclass
class LpSolution:
    """Solver result.  For Optimal status the certificate fields hold:

    dual_ineq  multipliers for G x <= h (nonnegative up to tolerance)
    dual_eq    multipliers for E x = b
    dual_lo    multipliers for active lower bounds
    dual_up    multipliers for active upper bounds

    with dual_objective <= objective_value (weak duality) and
    duality_gap = objective_value - dual_objective certified at
    <= GAP_REL_TOL relative; max_residual is the worst primal
    constraint violation (<= FEASIBILITY_TOL).
    """

    status: LpStatus
    x: np.ndarray | None = None
    objective_value: float | None = None
    dual_ineq: np.ndarray | None = None
    dual_eq: np.ndarray | None = None
    dual_lo: np.ndarray | None = None
    dual_up: np.ndarray | None = None
    dual_objective: float | None = None
    duality_gap: float | None = None
    max_residual: float | None = None
    iterations: int = 0


# Nonbasic rest states.
_AT_LO = 1
_AT_UP = 2
_FREE = 3
_BASIC = 0
# Sign that turns a nonbasic column's reduced cost into its pricing
# violation, by rest state (free columns use |d| instead).
_PRICE_SIGN = np.array([0.0, -1.0, 1.0, 0.0])


class _Simplex:
    """Working state for one solve, which `add_inequality` can extend row by
    row; columns are [structural | slack | artificial]."""

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        n = lp.num_vars
        m_ineq = lp.G.shape[0]
        m_eq = lp.E.shape[0]
        m = m_ineq + m_eq
        self.n_struct = n
        self.m_ineq = m_ineq
        self.m = m

        rows = []
        if m_ineq:
            rows.append(np.hstack([lp.G, np.eye(m_ineq)]))
        if m_eq:
            rows.append(np.hstack([lp.E, np.zeros((m_eq, m_ineq))]))
        self.A = (
            np.vstack(rows) if rows else np.zeros((0, n + m_ineq))
        )
        self.rhs = np.concatenate([lp.h, lp.b])
        self.lo = np.concatenate([lp.lo, np.zeros(m_ineq)])
        self.up = np.concatenate([lp.up, np.full(m_ineq, np.inf)])
        self.cost = np.concatenate([lp.c, np.zeros(m_ineq)])
        self.n_total = n + m_ineq
        self.iterations = 0

    # -- setup -----------------------------------------------------------

    def build_initial_basis(self):
        """Every column rests at a finite bound (lower first) or at zero
        when free; each row starts with its slack basic if that is
        nonnegative, otherwise with a signed artificial."""
        m = self.m
        fin_lo = np.isfinite(self.lo)
        fin_up = np.isfinite(self.up)
        self.state = np.where(fin_lo, _AT_LO, np.where(fin_up, _AT_UP, _FREE))
        self.state = self.state.astype(np.int8)
        self.values = np.where(fin_lo, self.lo, np.where(fin_up, self.up, 0.0))

        residual = self.rhs - self.A @ self.values
        rows = np.arange(m)
        slack_ok = (rows < self.m_ineq) & (residual >= 0.0)
        art_rows = np.flatnonzero(~slack_ok)
        self.n_art = art_rows.size
        self.basis = np.where(slack_ok, self.n_struct + rows, 0)
        self.basis[art_rows] = self.n_total + np.arange(self.n_art)
        if self.n_art:
            art_block = np.zeros((m, self.n_art))
            art_block[art_rows, np.arange(self.n_art)] = np.where(
                residual[art_rows] >= 0.0, 1.0, -1.0
            )
            self.A = np.hstack([self.A, art_block])
            self.lo = np.concatenate([self.lo, np.zeros(self.n_art)])
            self.up = np.concatenate([self.up, np.full(self.n_art, np.inf)])
            self.cost = np.concatenate([self.cost, np.zeros(self.n_art)])
            self.state = np.concatenate(
                [self.state, np.full(self.n_art, _AT_LO, dtype=np.int8)]
            )
            self.values = np.concatenate([self.values, np.zeros(self.n_art)])
            self.n_total += self.n_art
        self.art_start = self.n_total - self.n_art
        self.state[self.basis] = _BASIC
        self.refactorize()

    def refactorize(self):
        """Rebuild the basis inverse and basic values from scratch."""
        m = self.m
        if m == 0:
            self.B_inv = np.zeros((0, 0))
            self.xB = np.zeros(0)
            return
        B = self.A[:, self.basis]
        try:
            self.B_inv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure("singular basis during refactorization") from exc
        v = self.values.copy()
        v[self.basis] = 0.0
        self.xB = self.B_inv @ (self.rhs - self.A @ v)
        self.values[self.basis] = self.xB

    # -- core iteration ---------------------------------------------------

    def reduced_costs(self, c_work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self.m == 0:
            return np.zeros(0), c_work.copy()
        y = c_work[self.basis] @ self.B_inv
        return y, c_work - y @ self.A

    def choose_entering(self, d: np.ndarray, bland: bool) -> int:
        state = self.state
        viol = np.where(state == _FREE, np.abs(d), _PRICE_SIGN[state] * d)
        eligible = (viol > _DUAL_TOL) & self.enterable
        # Bland takes the first eligible column, Dantzig the first largest
        # violation among them; -1 when none is eligible
        j = int(np.argmax(eligible if bland else np.where(eligible, viol, 0.0)))
        return j if eligible[j] else -1

    def ratio_test(self, j: int, direction: float, w: np.ndarray, bland: bool):
        """Largest step t moving x_j by `direction * t`; returns
        (t, leaving_row) where leaving_row is -1 for a bound flip."""
        t_flip = np.inf
        if math.isfinite(self.lo[j]) and math.isfinite(self.up[j]):
            t_flip = self.up[j] - self.lo[j]
        if self.m == 0:
            return t_flip, -1
        delta = direction * w
        lo_b = self.lo[self.basis]
        up_b = self.up[self.basis]
        pos = delta > _PIVOT_TOL
        neg = (delta < -_PIVOT_TOL) & np.isfinite(up_b)
        room = np.maximum(np.where(pos, self.xB - lo_b, up_b - self.xB), 0.0)
        ratios = np.divide(room, np.abs(delta), out=np.full(self.m, np.inf),
                           where=pos | neg)
        rows_min = float(ratios.min(initial=np.inf))
        if rows_min >= t_flip - _RATIO_TIE:
            return t_flip, -1  # bound flip wins ties
        tied = np.flatnonzero(ratios <= rows_min + _RATIO_TIE)
        if bland:
            row = int(tied[np.argmin(self.basis[tied])])
        else:
            # prefer the largest pivot for stability, then the lowest index
            mags = np.abs(w[tied])
            best = mags >= mags.max() - 1e-12
            cand = tied[best]
            row = int(cand[np.argmin(self.basis[cand])])
        return rows_min, row

    def pivot(self, j: int, direction: float, t: float, row: int):
        w = self._w
        if row == -1:
            # bound flip: j jumps to its opposite bound, basis unchanged
            self.xB -= direction * t * w
            if self.state[j] == _AT_LO:
                self.values[j] = self.up[j]
                self.state[j] = _AT_UP
            else:
                self.values[j] = self.lo[j]
                self.state[j] = _AT_LO
            return
        leaving = self.basis[row]
        self.xB -= direction * t * w
        new_val = self.values[j] + direction * t
        # pin the leaving variable exactly on the bound it reached
        if direction * w[row] > 0:
            self.values[leaving] = self.lo[leaving]
            self.state[leaving] = _AT_LO
        else:
            self.values[leaving] = self.up[leaving]
            self.state[leaving] = _AT_UP
        self.basis[row] = j
        self.state[j] = _BASIC
        self.xB[row] = new_val
        self.values[j] = new_val
        # product-form update of the basis inverse; the basic entries of
        # `values` stay stale until the phase ends or the basis is refactored
        pivot_row = self.B_inv[row] / w[row]
        self.B_inv -= w[:, None] * pivot_row
        self.B_inv[row] = pivot_row

    def run_phase(self, c_work: np.ndarray, max_iter: int) -> LpStatus:
        bland = False
        stall = 0
        since_refactor = 0
        while True:
            if self.iterations >= max_iter:
                raise NumericalFailure(
                    f"iteration limit {max_iter} exceeded (m={self.m}, "
                    f"n={self.n_total})"
                )
            _, d = self.reduced_costs(c_work)
            j = self.choose_entering(d, bland)
            if j < 0:
                status = LpStatus.OPTIMAL
                break
            if self.state[j] == _AT_LO:
                direction = 1.0
            elif self.state[j] == _AT_UP:
                direction = -1.0
            else:
                direction = 1.0 if d[j] < 0 else -1.0
            self._w = self.B_inv @ self.A[:, j] if self.m else np.zeros(0)
            t, row = self.ratio_test(j, direction, self._w, bland)
            if not np.isfinite(t):
                status = LpStatus.UNBOUNDED
                break
            self.pivot(j, direction, t, row)
            self.iterations += 1
            since_refactor += 1
            if t <= _RATIO_TIE:
                stall += 1
                if stall >= _BLAND_AFTER:
                    bland = True
            else:
                stall = 0
                bland = False
            if since_refactor >= _REFACTOR_EVERY:
                self.refactorize()
                since_refactor = 0
        self.values[self.basis] = self.xB
        return status

    # -- phases ------------------------------------------------------------

    def solve(self) -> LpSolution:
        self.build_initial_basis()
        self.enterable = np.ones(self.n_total, dtype=bool)
        return self._optimize()

    def add_inequality(self, g: np.ndarray, h: float) -> LpSolution:
        """Append the row g . x <= h to the solved program and re-optimize
        from the current basis.

        The new slack rests at zero and a new artificial, signed so that it
        starts nonnegative, becomes basic in the new row; phase one drives
        it out from the warm basis, then phase two and certification run
        against the grown program exactly as in a cold solve.  Returns
        INFEASIBLE when no point satisfies the grown program.
        """
        g = np.asarray(g, dtype=float)
        lp = self.lp
        self.lp = LinearProgram(c=lp.c, G=np.vstack([lp.G, g]), h=np.append(lp.h, h),
                                E=lp.E, b=lp.b, lo=lp.lo, up=lp.up)
        # The new row goes after the last inequality row and its slack after
        # the last slack column, so slacks stay contiguous before the
        # artificials; the new artificial is the last column.
        m, n_total = self.m, self.n_total
        r = self.m_ineq
        s = self.n_struct + r
        old_rows = np.arange(m + 1) != r
        old_cols = np.ones(n_total + 2, dtype=bool)
        old_cols[[s, -1]] = False
        resid = h - float(g @ self.values[: self.n_struct])
        sign = 1.0 if resid >= 0.0 else -1.0

        def grown(vec, slack, art):
            out = np.empty(n_total + 2, dtype=vec.dtype)
            out[old_cols] = vec
            out[s] = slack
            out[-1] = art
            return out

        A = np.zeros((m + 1, n_total + 2))
        A[np.ix_(old_rows, old_cols)] = self.A
        A[r, : self.n_struct] = g
        A[r, s] = 1.0
        A[r, -1] = sign
        self.A = A
        self.lo = grown(self.lo, 0.0, 0.0)
        self.up = grown(self.up, np.inf, np.inf)
        self.cost = grown(self.cost, 0.0, 0.0)
        self.values = grown(self.values, 0.0, abs(resid))
        self.state = grown(self.state, _AT_LO, _BASIC)
        self.enterable = grown(self.enterable, True, True)
        basis = np.empty(m + 1, dtype=self.basis.dtype)
        basis[old_rows] = np.where(self.basis >= s, self.basis + 1, self.basis)
        basis[r] = n_total + 1
        rhs = np.empty(m + 1)
        rhs[old_rows] = self.rhs
        rhs[r] = h
        xB = np.empty(m + 1)
        xB[old_rows] = self.xB
        xB[r] = abs(resid)
        # Bordered inverse: with the new row and basic column moved last the
        # basis is [[B, 0], [rho, sign]], whose inverse is
        # [[B^-1, 0], [-sign * rho B^-1, sign]].
        B_inv = np.zeros((m + 1, m + 1))
        B_inv[np.ix_(old_rows, old_rows)] = self.B_inv
        B_inv[r, old_rows] = -sign * (A[r, basis[old_rows]] @ self.B_inv)
        B_inv[r, r] = sign
        self.basis, self.rhs, self.xB, self.B_inv = basis, rhs, xB, B_inv
        self.m += 1
        self.m_ineq += 1
        self.n_total += 2
        self.n_art += 1
        self.art_start += 1
        return self._optimize()

    def _optimize(self) -> LpSolution:
        """Phase one when artificials exist, then phase two and the
        certificate; the iteration budget counts from the current total."""
        max_iter = self.iterations + max(2000, 60 * (self.m + self.n_total))

        if self.n_art:
            c1 = np.zeros(self.n_total)
            c1[self.art_start :] = 1.0
            status = self.run_phase(c1, max_iter)
            if status is LpStatus.UNBOUNDED:  # cannot happen: phase 1 >= 0
                raise NumericalFailure("phase one reported unbounded")
            self.refactorize()
            phase1 = float(c1 @ self.values)
            if phase1 > 1e-9 * max(1.0, float(np.abs(self.rhs).max(initial=0.0))):
                return LpSolution(status=LpStatus.INFEASIBLE, iterations=self.iterations)
            self._expel_artificials()
            # freeze artificials at zero and bar them from re-entering
            self.lo[self.art_start :] = 0.0
            self.up[self.art_start :] = 0.0
            self.enterable[self.art_start :] = False

        status = self.run_phase(self.cost, max_iter)
        if status is LpStatus.UNBOUNDED:
            return LpSolution(status=LpStatus.UNBOUNDED, iterations=self.iterations)
        self.refactorize()
        return self._certify()

    def _expel_artificials(self):
        """Pivot basic artificials out where possible; rows that cannot be
        cleared are redundant and keep a zero-fixed artificial."""
        for r in range(self.m):
            j = self.basis[r]
            if j < self.art_start:
                continue
            row = self.B_inv[r, :] @ self.A[:, : self.art_start]
            candidates = np.flatnonzero(
                (np.abs(row) > 1e-7) & (self.state[: self.art_start] != _BASIC)
            )
            if candidates.size == 0:
                continue
            enter = int(candidates[np.argmax(np.abs(row[candidates]))])
            # zero-length pivot: swap basis membership, then rebuild
            self.state[j] = _AT_LO
            self.values[j] = 0.0
            self.basis[r] = enter
            self.state[enter] = _BASIC
            self.refactorize()

    # -- certification ------------------------------------------------------

    def _certify(self) -> LpSolution:
        lp = self.lp
        n = self.n_struct
        x = self.values[:n].copy()
        x = np.clip(x, lp.lo, lp.up)
        resid = 0.0
        if lp.G.shape[0]:
            resid = max(resid, float(np.max(lp.G @ x - lp.h, initial=0.0)))
        if lp.E.shape[0]:
            resid = max(resid, float(np.max(np.abs(lp.E @ x - lp.b), initial=0.0)))

        y, d = self.reduced_costs(self.cost)
        lam = -y[: self.m_ineq]
        nu = -y[self.m_ineq :]
        d_struct = d[:n]
        mu_lo = np.where(np.isfinite(lp.lo), np.maximum(d_struct, 0.0), 0.0)
        mu_up = np.where(np.isfinite(lp.up), np.maximum(-d_struct, 0.0), 0.0)

        primal = float(lp.c @ x)
        dual = 0.0
        if lam.size:
            dual -= float(lam @ lp.h)
        if nu.size:
            dual -= float(nu @ lp.b)
        fin_lo = np.isfinite(lp.lo)
        fin_up = np.isfinite(lp.up)
        dual += float(mu_lo[fin_lo] @ lp.lo[fin_lo])
        dual -= float(mu_up[fin_up] @ lp.up[fin_up])
        gap = primal - dual

        scale = max(1.0, abs(primal))
        # written so that a NaN residual or gap fails certification
        if not (resid <= FEASIBILITY_TOL and abs(gap) <= GAP_REL_TOL * scale):
            raise NumericalFailure(
                f"certification failed: residual={resid:.3e}, gap={gap:.3e}"
            )
        return LpSolution(
            status=LpStatus.OPTIMAL,
            x=x,
            objective_value=primal,
            dual_ineq=lam,
            dual_eq=nu,
            dual_lo=mu_lo,
            dual_up=mu_up,
            dual_objective=dual,
            duality_gap=gap,
            max_residual=resid,
            iterations=self.iterations,
        )


def _solve_boxed(lp: LinearProgram) -> LpSolution:
    """No-constraint case: each variable sits at whichever bound its cost
    prefers."""
    x = np.zeros(lp.num_vars)
    for j, cj in enumerate(lp.c):
        if cj > 0:
            if not np.isfinite(lp.lo[j]):
                return LpSolution(status=LpStatus.UNBOUNDED)
            x[j] = lp.lo[j]
        elif cj < 0:
            if not np.isfinite(lp.up[j]):
                return LpSolution(status=LpStatus.UNBOUNDED)
            x[j] = lp.up[j]
        else:
            x[j] = lp.lo[j] if np.isfinite(lp.lo[j]) else min(lp.up[j], 0.0)
    mu_lo = np.where(np.isfinite(lp.lo), np.maximum(lp.c, 0.0), 0.0)
    mu_up = np.where(np.isfinite(lp.up), np.maximum(-lp.c, 0.0), 0.0)
    primal = float(lp.c @ x)
    fin_lo = np.isfinite(lp.lo)
    fin_up = np.isfinite(lp.up)
    dual = float(mu_lo[fin_lo] @ lp.lo[fin_lo]) - float(mu_up[fin_up] @ lp.up[fin_up])
    return LpSolution(
        status=LpStatus.OPTIMAL,
        x=x,
        objective_value=primal,
        dual_ineq=np.zeros(0),
        dual_eq=np.zeros(0),
        dual_lo=mu_lo,
        dual_up=mu_up,
        dual_objective=dual,
        duality_gap=primal - dual,
        max_residual=0.0,
    )


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve an LP and certify the result (see module docstring)."""
    if lp.G.shape[0] == 0 and lp.E.shape[0] == 0:
        return _solve_boxed(lp)
    return _Simplex(lp).solve()
