"""Domain types and cost/feasibility semantics shared by every allocator.

A `Scenario` is one day's problem instance: which vehicles are present at
which time steps, how much energy each needs, and what power the station
and its sockets can deliver at what price.  A `Schedule` is a candidate
power allocation for that scenario.  `evaluate_cost` and
`validate_schedule` are the single source of truth for cost accounting
and constraint checking, so the optimizers and the FCFS baseline are
always compared like for like.

Steps are indexed 1..T in windows (step t covers wall-clock hours
[(t-1)*step_hours, t*step_hours)); numpy arrays are 0-indexed as usual.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

# Absolute tolerance (kW) below which a constraint violation is noise.
FEAS_TOL = 1e-8
# Relative tolerance for comparing costs between methods.
COST_REL_TOL = 1e-6


class ShapeMismatch(ValueError):
    """Raised when a schedule and scenario disagree on dimensions."""


class Method(str, Enum):
    """Which allocator produced a schedule."""

    NOMINAL = "nominal"
    ROBUST_PRICE = "robust-price"
    ROBUST_LOAD = "robust-load"
    FCFS = "fcfs"


# A scenario's per-step vectors, in the order they are checked; prices go
# last, as the one that may be negative.
_PER_STEP = ("capacity", "socket_limit", "waste", "prices")


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Scenario:
    """One day's charging problem.

    occupancy is a T x N binary matrix: entry (t, i) is 1 iff vehicle i is
    parked during step t+1.  load is the per-vehicle demand in kW-equivalent
    (energy in kWh divided by step_hours).  capacity, socket_limit, waste
    and prices are per-step vectors of length T.
    """

    horizon_steps: int
    step_hours: float
    occupancy: np.ndarray
    load: np.ndarray
    capacity: np.ndarray
    socket_limit: np.ndarray
    waste: np.ndarray
    prices: np.ndarray
    scenario_id: str = "scenario"

    def __post_init__(self):
        T = int(self.horizon_steps)
        if T <= 0:
            raise ValueError("horizon_steps must be positive")
        if not 0 < self.step_hours < np.inf:
            raise ValueError("step_hours must be positive and finite")
        occ = np.asarray(self.occupancy)
        if occ.ndim != 2 or occ.shape[0] != T:
            raise ValueError(f"occupancy must be {T} x N, got shape {occ.shape}")
        if occ.dtype.kind == "c" or not ((occ == 0) | (occ == 1)).all():
            raise ValueError("occupancy must be binary")
        occ = np.ascontiguousarray(occ, dtype=np.uint8)
        occ.setflags(write=False)
        object.__setattr__(self, "horizon_steps", T)
        object.__setattr__(self, "step_hours", float(self.step_hours))
        object.__setattr__(self, "occupancy", occ)
        n = occ.shape[1]
        load = _freeze(np.atleast_1d(self.load))
        if load.shape != (n,):
            raise ValueError(f"load must have length {n}, got {load.shape}")
        object.__setattr__(self, "load", load)
        # the per-step vectors are the rows of one read-only block
        per_step = np.empty((len(_PER_STEP), T))
        for k, name in enumerate(_PER_STEP):
            vec = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if vec.size == 1:
                per_step[k] = float(vec[0])
            elif vec.shape == (T,):
                per_step[k] = vec
            else:
                raise ValueError(f"{name} must have length {T}, got {vec.shape}")
        per_step.setflags(write=False)
        for name, row in zip(_PER_STEP, per_step):
            object.__setattr__(self, name, row)
        # one pass per rule; only a rule that fails looks for the first
        # vector that breaks it
        if not (np.isfinite(load).all() and np.isfinite(per_step).all()):
            for name in ("load",) + _PER_STEP:
                if not np.isfinite(getattr(self, name)).all():
                    raise ValueError(f"{name} must be finite")
        if (load < 0).any():
            raise ValueError("load must be nonnegative")
        if (per_step[:-1] < 0).any():  # every vector but prices
            for name in _PER_STEP[:-1]:
                if (getattr(self, name) < 0).any():
                    raise ValueError(f"{name} must be nonnegative")
        # Every column must be one contiguous presence interval, and a
        # vehicle with positive demand must be present at least once.
        count = occ.sum(axis=0, dtype=int)
        span = T - occ[::-1].argmax(axis=0) - occ.argmax(axis=0)
        bad = np.flatnonzero(np.where(count > 0, span != count, load > 0))
        if bad.size:
            i = int(bad[0])
            if count[i]:
                raise ValueError(f"vehicle {i} has a non-contiguous presence window")
            raise ValueError(f"vehicle {i} has demand {load[i]} but is never present")

    @property
    def num_vehicles(self) -> int:
        return self.occupancy.shape[1]

    def window(self, i: int) -> tuple[int, int] | None:
        """1-based (arrival, departure) steps of vehicle i, or None if absent."""
        rows = np.flatnonzero(self.occupancy[:, i])
        if rows.size == 0:
            return None
        return int(rows[0]) + 1, int(rows[-1]) + 1


def greedy_fill(
    steps: list[int],
    vehicles: list[int],
    socket: list[float],
    budget: list[float],
    unmet: list[float],
) -> tuple[list[float], list[tuple[int, bool]]]:
    """Fill the (step, vehicle) pairs in the order given, each by the least
    of the socket limit at its step, its vehicle's unmet demand and its
    step's budget left, drawing `unmet` and `budget` down in place.  FCFS
    and the LP's least-cost start are this fill in two orders.

    Returns each pair's fill (0.0 where nothing fits) and, for each fill
    cut short of the socket limit, its position and whether it emptied its
    step's budget (else it met its vehicle's demand)."""
    fills = [0.0] * len(steps)
    short: list[tuple[int, bool]] = []
    for p, (t, i) in enumerate(zip(steps, vehicles)):
        # min(limit, unmet[i], budget[t]), the first of equals, without the call
        limit = socket[t]
        fill = unmet[i] if unmet[i] < limit else limit
        if budget[t] < fill:
            fill = budget[t]
        if fill > 0.0:
            if fill < limit:
                short.append((p, fill == budget[t]))
            unmet[i] -= fill
            budget[t] -= fill
            fills[p] = fill
    return fills, short


def occupancy_from_windows(
    horizon_steps: int, windows: list[tuple[int, int] | None]
) -> np.ndarray:
    """Build a T x N occupancy matrix from 1-based (arrival, departure) pairs."""
    occ = np.zeros((horizon_steps, len(windows)), dtype=np.uint8)
    for i, w in enumerate(windows):
        if w is None:
            continue
        a, d = w
        if not (1 <= a <= d <= horizon_steps):
            raise ValueError(f"window {w} outside 1..{horizon_steps}")
        occ[a - 1 : d, i] = 1
    return occ


@dataclass(frozen=True)
class Schedule:
    """A T x N power allocation (kW) plus provenance."""

    allocation: np.ndarray
    method: Method
    scenario_id: str = "scenario"

    def __post_init__(self):
        alloc = np.asarray(self.allocation, dtype=float)
        if alloc.ndim != 2:
            raise ValueError("allocation must be a 2-D matrix")
        object.__setattr__(self, "allocation", _freeze(alloc))
        object.__setattr__(self, "method", Method(self.method))


@dataclass(frozen=True)
class CostBreakdown:
    per_step_cost: np.ndarray
    total_cost: float
    total_energy_delivered: float
    total_energy_wasted: float


class ViolationKind(str, Enum):
    NEGATIVE_POWER = "negative-power"
    SOCKET_EXCEEDED = "socket-exceeded"
    CAPACITY_EXCEEDED = "capacity-exceeded"
    DEMAND_SHORTFALL = "demand-shortfall"
    OUTSIDE_WINDOW = "outside-window"


@dataclass(frozen=True)
class Violation:
    """One violated constraint.  Indices are 0-based; step/vehicle may be
    None when the constraint involves only the other axis."""

    kind: ViolationKind
    magnitude: float
    step_index: int | None = None
    vehicle_index: int | None = None


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def feasible(self) -> bool:
        return not self.violations

    def of_kind(self, kind: ViolationKind) -> tuple[Violation, ...]:
        return tuple(v for v in self.violations if v.kind == kind)


def _check_shapes(schedule: Schedule, scenario: Scenario):
    expected = (scenario.horizon_steps, scenario.num_vehicles)
    if schedule.allocation.shape != expected:
        raise ShapeMismatch(
            f"allocation shape {schedule.allocation.shape} != scenario {expected}"
        )


def evaluate_cost(schedule: Schedule, scenario: Scenario) -> CostBreakdown:
    """Cost of running `schedule` on `scenario`.

    Per-step cost is price * (1 + waste) * delivered power * step length;
    the waste factor models the proportional energy overhead of charging.
    """
    _check_shapes(schedule, scenario)
    y = schedule.allocation
    delta = scenario.step_hours
    in_window = scenario.occupancy * y
    step_power = in_window.sum(axis=1)
    per_step = scenario.prices * (1.0 + scenario.waste) * step_power * delta
    delivered = float(y.sum() * delta)
    wasted = float((scenario.waste * y.sum(axis=1) * delta).sum())
    per_step.setflags(write=False)
    return CostBreakdown(
        per_step_cost=per_step,
        total_cost=float(per_step.sum()),
        total_energy_delivered=delivered,
        total_energy_wasted=wasted,
    )


def validate_schedule(
    schedule: Schedule, scenario: Scenario, tol: float = FEAS_TOL
) -> ValidationReport:
    """Check every model constraint and report each violation with its slack."""
    _check_shapes(schedule, scenario)
    y = schedule.allocation
    occ = scenario.occupancy
    T, n = y.shape
    out: list[Violation] = []

    for t, i in zip(*np.where(y < -tol)):
        out.append(
            Violation(ViolationKind.NEGATIVE_POWER, float(-y[t, i]), int(t), int(i))
        )
    over = y - scenario.socket_limit[:, None]
    for t, i in zip(*np.where(over > tol)):
        out.append(
            Violation(ViolationKind.SOCKET_EXCEEDED, float(over[t, i]), int(t), int(i))
        )
    for t, i in zip(*np.where((occ == 0) & (np.abs(y) > tol))):
        out.append(
            Violation(
                ViolationKind.OUTSIDE_WINDOW, float(abs(y[t, i])), int(t), int(i)
            )
        )
    excess = y.sum(axis=1) - scenario.capacity
    for t in np.flatnonzero(excess > tol):
        out.append(
            Violation(ViolationKind.CAPACITY_EXCEEDED, float(excess[t]), int(t), None)
        )
    shortfall = scenario.load - y.sum(axis=0)
    for i in np.flatnonzero(shortfall > tol):
        out.append(
            Violation(ViolationKind.DEMAND_SHORTFALL, float(shortfall[i]), None, int(i))
        )
    return ValidationReport(violations=tuple(out))
