"""Dense revised simplex for linear programs with variable bounds.

Solves

    min  c . x
    s.t. G x <= h,  E x = b,  lo <= x <= up   (lo and up finite)

with a two-phase bounded-variable simplex.  Inequalities get slack
columns, infeasible starting rows get artificial columns, and phase one
minimizes the artificial sum; where no point meets the program it raises
Infeasible, which carries that least sum.  A column with equal bounds never
enters or flips; phase one ends by fixing the artificials at zero, and one
still basic there is pivoted out by the ratio test like any fixed basic
column.  A caller that knows a good starting point can pass it with the
basic column of each row it covers (`BasisStart`); the default start rests
every column at its lower bound; a start whose row multipliers certify it
needs no simplex (`solve_lp`).  Pricing is Dantzig (most negative reduced
cost, ties to the lowest column index).

The pivot loop keeps the iteration budget, refactors the basis inverse
every _REFACTOR_EVERY pivots and, after _BLAND_AFTER degenerate pivots in a
row (the entering column does not move), switches every choice to the
lowest index (Bland's rule) until a pivot moves again, which prevents
cycling.  The ratio test breaks ties by the largest pivot magnitude, then
the lowest column index.  Every pivot sequence is a pure function of the
instance, so results are bit-reproducible.

Every solution carries its row multipliers, and the solver accepts it
only where `certify` passes on them: x's residual at most FEASIBILITY_TOL,
and the closed-form lower bound within GAP_ABS_TOL / GAP_REL_TOL of c . x.
The bound holds for any multipliers, with the box taking up the reduced
costs, so it needs no sign or stationarity test; a basis that fails it
raises NumericalFailure instead of mislabeling the result.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import NamedTuple

import numpy as np

# Certification thresholds: absolute on residuals; the gap between the
# bounds passes at max(GAP_ABS_TOL, GAP_REL_TOL * max(1, |upper|)).  Tight
# gap tolerances keep the cutting-plane loop's iterate close to the true
# minimizer, not just its objective value.
FEASIBILITY_TOL = 1e-8
GAP_ABS_TOL = 1e-9
GAP_REL_TOL = 1e-10

_DUAL_TOL = 1e-9  # reduced-cost optimality threshold
_PIVOT_TOL = 1e-9  # smallest acceptable pivot magnitude
_RATIO_TIE = 1e-10  # ratio-test tie window
_REFACTOR_EVERY = 64
_BLAND_AFTER = 30  # degenerate pivots before switching to Bland


class NumericalFailure(RuntimeError):
    """The solver could not certify a result at tolerance."""


class Infeasible(RuntimeError):
    """No point meets the program.  `shortfall` is phase one's optimum, the
    least sum of the artificials: the least total violation of the rows that
    x at its starting point violates."""

    def __init__(self, shortfall: float):
        super().__init__(f"infeasible: least artificial sum {shortfall:.6g}")
        self.shortfall = shortfall


@dataclass(frozen=True, kw_only=True)
class LinearProgram:
    """Standard-form LP; G/h and E/b may be omitted, lower bounds default to
    0.  Every bound must be finite, so each column has a box.  c may be
    empty: a program with no variables has the empty vector as its only
    point."""

    c: np.ndarray
    G: np.ndarray | None = None
    h: np.ndarray | None = None
    E: np.ndarray | None = None
    b: np.ndarray | None = None
    lo: np.ndarray | None = None
    up: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        if c.ndim != 1:
            raise ValueError("c must be a vector")
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
        up = np.atleast_1d(np.asarray(self.up, dtype=float))
        if lo.shape != (n,) or up.shape != (n,):
            raise ValueError("bounds must have length n")
        for name, arr in (("c", c), ("G", G), ("h", h), ("E", E), ("b", b),
                          ("lo", lo), ("up", up)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
        if (lo > up).any():
            raise ValueError("lo must be <= up elementwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "up", up)

    @property
    def num_vars(self) -> int:
        return self.c.size


@dataclass
class LpSolution:
    """A certified optimum (infeasibility raises Infeasible instead):

    dual_ineq  multipliers for G x <= h (`certify` clips them at 0)
    dual_eq    multipliers for E x = b

    which `certify` turns into a lower bound that meets objective_value at
    tolerance; `stats` counts the simplex's work.
    """

    x: np.ndarray
    objective_value: float
    dual_ineq: np.ndarray
    dual_eq: np.ndarray
    stats: SolveStats


@dataclass
class SolveStats:
    """How a simplex run got its result, counted over every phase; `+` sums
    the counters of several runs."""

    pivots: int = 0  # pivots of every phase, the clock of the iteration budget
    phase_one_pivots: int = 0  # phase one's share of `pivots`
    degenerate_pivots: int = 0  # pivots whose entering column did not move
    bland_switches: int = 0  # runs of degenerate pivots that switched to Bland's rule
    refactorizations: int = 0  # basis inverses built from scratch

    def __add__(self, other: SolveStats) -> SolveStats:
        return SolveStats(*(a + b for a, b in zip(astuple(self), astuple(other))))


class BasisStart(NamedTuple):
    """A starting point for the simplex: the structural values `x`, each
    at one of its bounds unless basic, and `basic[r]`, the structural
    column basic in row r, or -1 where the row starts with its slack or an
    artificial.  Rows are E's, then G's.  The named columns must form a
    nonsingular basis together with the unit columns of the other rows;
    `duals`, the row multipliers or None, are for `solve_lp`'s `certify`
    of the start alone."""

    x: np.ndarray
    basic: np.ndarray
    duals: np.ndarray | None = None


# Nonbasic rest states.
_AT_LO = 1
_AT_UP = 2
_BASIC = 0
# Sign that turns a nonbasic column's reduced cost into its pricing
# violation, by rest state.
_PRICE_SIGN = np.array([0.0, -1.0, 1.0])


class _Simplex:
    """Working state for one solve.  Rows are [E | G], so every row from
    `m_eq` on is an inequality; columns are [structural | slack |
    artificial].  `stats` (SolveStats) counts the work so far."""

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        n = lp.num_vars
        m_ineq = lp.G.shape[0]
        m_eq = lp.E.shape[0]
        self.n_struct = n
        self.m_eq = m_eq
        self.m = m_eq + m_ineq
        self.A = np.zeros((self.m, n + m_ineq))
        self.A[:m_eq, :n] = lp.E
        self.A[m_eq:, :n] = lp.G
        self.A[m_eq:, n:].flat[:: m_ineq + 1] = 1.0  # the slacks' identity block
        self.rhs = np.concatenate([lp.b, lp.h])
        self.lo = np.concatenate([lp.lo, np.zeros(m_ineq)])
        self.up = np.concatenate([lp.up, np.full(m_ineq, np.inf)])
        self.cost = np.concatenate([lp.c, np.zeros(m_ineq)])
        self.n_total = n + m_ineq
        self.stats = SolveStats()

    # -- setup -----------------------------------------------------------

    def build_initial_basis(self, start: BasisStart | None = None):
        """Structural columns take their values from `start`, or else rest
        at their lower bound; slacks rest at zero.  Each row starts with the
        basic column `start` names for it; a row it names none for starts
        with its slack basic if that is nonnegative, otherwise with a signed
        artificial."""
        m, n = self.m, self.n_struct
        self.state = np.full(self.n_total, _AT_LO, dtype=np.int8)
        self.values = self.lo.copy()
        named = np.full(m, -1)
        if start is not None:
            named = np.asarray(start.basic)
            x = np.asarray(start.x, dtype=float)
            rest = self.values[:n]
            at_up = (x == self.up[:n]) & (x != rest)
            basic = np.zeros(n, dtype=bool)
            basic[named[named >= 0]] = True
            if not ((x == rest) | at_up | basic).all():
                raise ValueError("a nonbasic starting value is off its bounds")
            self.state[:n][at_up] = _AT_UP
            self.values[:n] = x

        residual = self.rhs - self.A @ self.values
        slack_ok = residual >= 0.0
        slack_ok[: self.m_eq] = False  # an equality row has no slack
        art_rows = np.flatnonzero((named < 0) & ~slack_ok)
        self.n_art = art_rows.size
        self.basis = np.where(named >= 0, named, n - self.m_eq + np.arange(m))
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
        self.stats.refactorizations += 1
        self.factored_at = self.stats.pivots
        try:
            self.B_inv = np.linalg.inv(self.A[:, self.basis])
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure("singular basis during refactorization") from exc
        v = self.values.copy()
        v[self.basis] = 0.0
        self.xB = self.B_inv @ (self.rhs - self.A @ v)
        self.values[self.basis] = self.xB

    # -- primal simplex ----------------------------------------------------

    def reduced_costs(self, c_work: np.ndarray) -> np.ndarray:
        return c_work - (c_work[self.basis] @ self.B_inv) @ self.A

    def choose_entering(self, d: np.ndarray, bland: bool) -> int:
        viol = _PRICE_SIGN[self.state] * d
        eligible = (viol > _DUAL_TOL) & (self.lo < self.up)
        if not eligible.any():
            return -1
        # Bland takes the first eligible column, Dantzig the first largest
        # violation among them
        return int(np.argmax(eligible if bland else np.where(eligible, viol, 0.0)))

    def ratio_test(self, j: int, direction: float, w: np.ndarray, bland: bool):
        """Largest step t moving x_j by `direction * t`; returns
        (t, leaving_row) where leaving_row is -1 for a bound flip.  Tied rows
        go to the largest pivot magnitude, then the lowest basic column;
        Bland's rule takes the lowest basic column alone."""
        t_flip = self.up[j] - self.lo[j]
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
        if not bland:  # the largest pivot magnitude (within 1e-12) for stability
            mag = np.abs(w[tied])
            tied = tied[mag >= mag.max() - 1e-12]
        return rows_min, int(tied[np.argmin(self.basis[tied])])

    def pivot(self, j: int, direction: float, t: float, row: int, w: np.ndarray):
        """Move column j by `direction * t` along w = B^-1 A_j; flip or exchange it."""
        self.xB -= direction * t * w
        if row == -1:
            # bound flip: j jumps to its opposite bound, basis unchanged
            flip_up = self.state[j] == _AT_LO
            self.values[j] = self.up[j] if flip_up else self.lo[j]
            self.state[j] = _AT_UP if flip_up else _AT_LO
            return
        # the leaving variable stops exactly on the bound it reached
        leaving = self.basis[row]
        to_lo = direction * w[row] > 0
        self.values[leaving] = self.lo[leaving] if to_lo else self.up[leaving]
        self.state[leaving] = _AT_LO if to_lo else _AT_UP
        value = self.values[j] + direction * t
        self.basis[row] = j
        self.state[j] = _BASIC
        self.xB[row] = value
        self.values[j] = value
        # product-form update of the basis inverse; the basic entries of
        # `values` stay stale until the phase ends or the basis is refactored
        # rows where w is zero do not change
        pivot_row = self.B_inv[row] / w[row]
        rows = np.flatnonzero(w)
        self.B_inv[rows] -= w[rows, None] * pivot_row
        self.B_inv[row] = pivot_row

    def run_phase(self, c_work: np.ndarray):
        """Primal simplex on the costs `c_work` from a primal feasible
        basis, until no column prices out, with the basic values written
        back.  The module docstring gives the budget, Bland and
        refactorization policy it applies.  Raises NumericalFailure when the
        entering column can move without end: every column has a finite
        box, so an unbounded ray is a fault."""
        stats = self.stats
        bland = False
        stall = 0
        while True:
            if stats.pivots >= self.max_iter:
                raise NumericalFailure(
                    f"iteration limit {self.max_iter} exceeded (m={self.m}, "
                    f"n={self.n_total})"
                )
            d = self.reduced_costs(c_work)
            j = self.choose_entering(d, bland)
            if j < 0:
                self.values[self.basis] = self.xB
                return
            # an eligible column moves against the sign of its reduced cost
            direction = 1.0 if d[j] < 0 else -1.0
            w = self.B_inv @ self.A[:, j]
            t, row = self.ratio_test(j, direction, w, bland)
            if not math.isfinite(t):
                raise NumericalFailure(f"unbounded ray: column {j} can move without end")
            self.pivot(j, direction, t, row, w)
            stats.pivots += 1
            if t <= _RATIO_TIE:
                stats.degenerate_pivots += 1
                stall += 1
                if stall >= _BLAND_AFTER and not bland:
                    stats.bland_switches += 1
                    bland = True
            else:
                stall = 0
                bland = False
            if stats.pivots - self.factored_at >= _REFACTOR_EVERY:
                self.refactorize()

    # -- phases ------------------------------------------------------------

    def solve(self, start: BasisStart | None = None) -> LpSolution:
        """Phase one from `start`, then phase two and the certificate."""
        self.build_initial_basis(start)
        self.phase_one()
        self.run_phase(self.cost)
        if self.stats.pivots != self.factored_at:
            self.refactorize()
        return self._certify()

    def phase_one(self):
        """Minimize the artificial sum from the current basis, and set the
        iteration budget of this phase and the next.

        Raises Infeasible, carrying the least artificial sum, when an
        artificial stays above FEASIBILITY_TOL.  Otherwise fixes the
        artificials at zero (lo = up = 0), so that none enters again, ready
        for phase two.
        """
        self.max_iter = max(2000, 60 * (self.m + self.n_total))
        if not self.n_art:
            return
        c1 = np.zeros(self.n_total)
        c1[self.art_start :] = 1.0
        before = self.stats.pivots
        self.run_phase(c1)
        self.stats.phase_one_pivots += self.stats.pivots - before
        self.refactorize()
        # each artificial bounds its row's violation at the phase-one
        # point, which certification would hold to FEASIBILITY_TOL
        artificials = self.values[self.art_start :]
        if artificials.max() > FEASIBILITY_TOL:
            raise Infeasible(float(artificials.sum()))
        self.up[self.art_start :] = 0.0

    def _certify(self) -> LpSolution:
        """The solution at the current basis, accepted where `certify` passes
        on x, clipped to its box, and the multipliers y = c_B B^-1."""
        lp = self.lp
        c_B = self.cost[self.basis]
        y = c_B @ self.B_inv
        # one step of iterative refinement: on a master grown by many nearly
        # parallel cuts, y from the inverse alone leaves basic reduced costs
        # near 1e-11, which tau's box makes a gap above GAP_ABS_TOL
        y += (c_B - y @ self.A[:, self.basis]) @ self.B_inv
        return _certified(lp, np.clip(self.values[: self.n_struct], lp.lo, lp.up),
                          -y[self.m_eq :], -y[: self.m_eq], self.stats)


def certify(lp: LinearProgram, M: np.ndarray, r: float, x: np.ndarray,
            lam: np.ndarray, nu: np.ndarray, u: np.ndarray) -> tuple[float, float, float]:
    """Bounds on  min c.x + r ||M x||  over the LP's feasible set, from a
    point x and multipliers alone: (upper, lower, residual).

    upper = c.x + r ||M x|| bounds the minimum from above once x is feasible,
    and residual is x's worst violation of the LP's rows and bounds.  Any
    lam >= 0 (for G x <= h), any nu (for E x = b) and any ||u|| <= 1 give

        lower = -h.lam - b.nu + sum_j min(d_j lo_j, d_j up_j),
        d = c + r M^T u + G^T lam + E^T nu,

    by Cauchy-Schwarz (r ||M x|| >= r u.M x), weak duality, and the box
    taking up d (Ben-Tal & Nemirovski 2001 for the ball counterpart).  A
    negative lam is clipped to 0 and a long u scaled to unit length.  It
    needs no solver state, and a NaN anywhere makes a bound NaN, which no
    gap test passes."""
    lam = np.maximum(lam, 0.0)
    u = u / np.maximum(1.0, np.linalg.norm(u))
    d = lp.c + r * (u @ M) + lam @ lp.G + nu @ lp.E
    lower = float(d @ np.where(d >= 0.0, lp.lo, lp.up) - lam @ lp.h - nu @ lp.b)
    upper = float(lp.c @ x + r * np.linalg.norm(M @ x))
    residual = np.concatenate([lp.G @ x - lp.h, np.abs(lp.E @ x - lp.b),
                               lp.lo - x, x - lp.up]).max(initial=0.0)
    return upper, lower, float(residual)


def _converged(best_upper: float, lower: float) -> bool:
    # written so that a NaN or infinite bound never converges
    tol = max(GAP_ABS_TOL, GAP_REL_TOL * max(1.0, abs(best_upper)))
    return best_upper - lower <= tol < math.inf


def _certified(lp: LinearProgram, x: np.ndarray, lam: np.ndarray, nu: np.ndarray,
               stats: SolveStats) -> LpSolution:
    """x with the row multipliers (lam for G, nu for E) as the optimum of
    `lp`, where `certify` passes on them; NumericalFailure where it does not."""
    upper, lower, residual = certify(lp, np.empty((0, lp.num_vars)), 0.0, x, lam, nu,
                                     np.empty(0))
    # written so that a NaN residual or bound fails
    if not (residual <= FEASIBILITY_TOL and _converged(upper, lower)):
        raise NumericalFailure(
            f"certification failed: residual={residual:.3e}, gap={upper - lower:.3e}")
    return LpSolution(x=x, objective_value=upper, dual_ineq=lam, dual_eq=nu, stats=stats)


def solve_lp(lp: LinearProgram, start: BasisStart | None = None) -> LpSolution:
    """Solve an LP and certify the result (see module docstring), from
    `start` if given.  A start whose row multipliers `start.duals` certify
    it is returned as it is, with no simplex built; otherwise the simplex
    runs from it.  Raises Infeasible when no point meets the program, and
    NumericalFailure on an unbounded ray or a certificate that fails at
    tolerance."""
    if start is not None and start.duals is not None:
        nu, lam = np.split(start.duals, [lp.E.shape[0]])
        try:
            return _certified(lp, start.x, lam, nu, SolveStats())
        except NumericalFailure:
            pass  # not optimal, or not at tolerance: the simplex pivots from it
    return _Simplex(lp).solve(start)
