"""Parsing of session and price files, and per-day scenario construction.

Sessions file: UTF-8 CSV with header `session_id,arrival,departure,energy_kwh`
(ISO-8601 timestamps).  Prices file: CSV with header `date,hour,price`.
Each calendar day with at least one session becomes one scenario: arrival
steps floor to the step grid and departures ceil, so a vehicle is
schedulable in every step it is at least partly present.  Step indexing
is 1-based; step t covers wall-clock hours [(t-1)*step_hours, t*step_hours).

Sessions crossing midnight are truncated at the end of the horizon under
the default Clamp policy, or excluded (and counted) under Drop.  Days
missing any needed hourly price are skipped and reported rather than
guessed at.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from datetime import date, datetime
from enum import Enum
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .model import Scenario, occupancy_from_windows


class MalformedRow(ValueError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class MissingColumn(ValueError):
    def __init__(self, name: str):
        super().__init__(f"required column {name!r} missing from header")
        self.name = name


class DuplicateEntry(ValueError):
    def __init__(self, day: date, hour: int):
        super().__init__(f"duplicate price for {day} hour {hour}")
        self.date = day
        self.hour = hour


class PriceUnit(str, Enum):
    PER_KWH = "per-kwh"
    PER_MWH = "per-mwh"


class MidnightPolicy(str, Enum):
    CLAMP = "clamp"
    DROP = "drop"


@dataclass(frozen=True)
class SessionRecord:
    session_id: str
    arrival: datetime
    departure: datetime
    energy_kwh: float


class PriceSeries:
    """Hourly prices keyed by (date, hour-of-day), stored in currency/kWh."""

    def __init__(self, entries: dict[tuple[date, int], float] | None = None):
        self._entries: dict[tuple[date, int], float] = {}
        for (day, hour), price in (entries or {}).items():
            self.add(day, hour, price)

    def add(self, day: date, hour: int, price: float):
        if not 0 <= hour <= 23:
            raise ValueError(f"hour {hour} outside 0..23")
        key = (day, int(hour))
        if key in self._entries:
            raise DuplicateEntry(day, hour)
        self._entries[key] = float(price)

    def get(self, day: date, hour: int) -> float | None:
        return self._entries.get((day, int(hour)))

    def missing_hours(self, day: date, hours: Iterable[int]) -> list[int]:
        return sorted(h for h in set(hours) if (day, h) not in self._entries)

    def __len__(self):
        return len(self._entries)


@dataclass(frozen=True)
class IngestConfig:
    """Scenario-construction knobs; the defaults match a 24-hour horizon
    with a 300 kW station of 7 kW sockets and 1% charging overhead."""

    horizon_steps: int = 24
    step_hours: float = 1.0
    capacity: float = 300.0
    socket_limit: float = 7.0
    waste: float = 0.01
    price_unit: PriceUnit = PriceUnit.PER_KWH
    midnight_policy: MidnightPolicy = MidnightPolicy.CLAMP

    def __post_init__(self):
        for name in ("horizon_steps", "step_hours", "capacity", "socket_limit", "waste"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        object.__setattr__(self, "price_unit", PriceUnit(self.price_unit))
        object.__setattr__(self, "midnight_policy", MidnightPolicy(self.midnight_policy))


@dataclass
class ScenarioBuildResult:
    scenarios: list[Scenario]
    skipped_days: list[tuple[date, str]] = field(default_factory=list)
    dropped_sessions: list[tuple[str, str]] = field(default_factory=list)


def _reader(stream: IO[str]):
    return csv.reader(stream)


def _header_index(header: list[str], required: tuple[str, ...]) -> dict[str, int]:
    cols = {name.strip().lower(): idx for idx, name in enumerate(header)}
    index = {}
    for name in required:
        if name not in cols:
            raise MissingColumn(name)
        index[name] = cols[name]
    return index


def parse_sessions(stream: IO[str]) -> list[SessionRecord]:
    """Read session records in file order; bad rows raise MalformedRow
    with their line number."""
    rows = _reader(stream)
    try:
        header = next(rows)
    except StopIteration:
        raise MissingColumn("session_id") from None
    idx = _header_index(header, ("session_id", "arrival", "departure", "energy_kwh"))
    records: list[SessionRecord] = []
    for line_no, row in enumerate(rows, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            sid = row[idx["session_id"]].strip()
            arrival = datetime.fromisoformat(row[idx["arrival"]].strip())
            departure = datetime.fromisoformat(row[idx["departure"]].strip())
            energy = float(row[idx["energy_kwh"]].strip())
        except (IndexError, ValueError) as exc:
            raise MalformedRow(line_no, f"unparseable row: {exc}") from None
        if not math.isfinite(energy):
            raise MalformedRow(line_no, f"non-finite energy {energy}")
        if departure <= arrival:
            raise MalformedRow(line_no, "departure is not after arrival")
        if energy < 0:
            raise MalformedRow(line_no, f"negative energy {energy}")
        records.append(SessionRecord(sid, arrival, departure, energy))
    return records


def parse_prices(stream: IO[str], unit: PriceUnit = PriceUnit.PER_KWH) -> PriceSeries:
    """Read hourly prices, converting to currency/kWh; duplicate
    (date, hour) pairs raise DuplicateEntry."""
    unit = PriceUnit(unit)
    rows = _reader(stream)
    try:
        header = next(rows)
    except StopIteration:
        raise MissingColumn("date") from None
    idx = _header_index(header, ("date", "hour", "price"))
    series = PriceSeries()
    scale = 1e-3 if unit is PriceUnit.PER_MWH else 1.0
    for line_no, row in enumerate(rows, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            day = date.fromisoformat(row[idx["date"]].strip())
            hour = int(row[idx["hour"]].strip())
            price = float(row[idx["price"]].strip())
        except (IndexError, ValueError) as exc:
            raise MalformedRow(line_no, f"unparseable row: {exc}") from None
        if not 0 <= hour <= 23:
            raise MalformedRow(line_no, f"hour {hour} outside 0..23")
        if not math.isfinite(price):
            raise MalformedRow(line_no, f"non-finite price {price}")
        series.add(day, hour, price * scale)
    return series


def _hours_since_midnight(ts: datetime, midnight_of: date) -> float:
    base = datetime.combine(midnight_of, datetime.min.time(), tzinfo=ts.tzinfo)
    return (ts - base).total_seconds() / 3600.0


def _step_window(
    record: SessionRecord, cfg: IngestConfig
) -> tuple[int, int] | str:
    """1-based (arrival, departure) steps, or a reason string for exclusion."""
    T, delta = cfg.horizon_steps, cfg.step_hours
    arr_h = _hours_since_midnight(record.arrival, record.arrival.date())
    dep_h = _hours_since_midnight(record.departure, record.arrival.date())
    a = int(math.floor(arr_h / delta)) + 1
    if a > T:
        return f"arrival at hour {arr_h:.2f} is after the {T * delta:.0f}h horizon"
    if dep_h > T * delta + 1e-9:
        if cfg.midnight_policy is MidnightPolicy.DROP:
            return "session leaves the horizon (drop policy)"
        d = T
    else:
        d = int(math.ceil(dep_h / delta))
    return a, max(d, a)


def hour_for_step(t: int, cfg: IngestConfig) -> int:
    """Hour-of-day whose price applies to 1-based step t."""
    return int(math.floor((t - 1) * cfg.step_hours + 1e-9)) % 24


def build_scenarios(
    sessions: list[SessionRecord],
    prices: PriceSeries,
    cfg: IngestConfig | None = None,
) -> ScenarioBuildResult:
    """Group sessions by arrival date and build one scenario per day.

    Vehicle columns are ordered by (arrival time, session_id), so the
    result does not depend on input row order.  Days whose price series
    is incomplete are skipped and listed in the result.
    """
    cfg = cfg or IngestConfig()
    by_day: dict[date, list[SessionRecord]] = {}
    for rec in sessions:
        by_day.setdefault(rec.arrival.date(), []).append(rec)

    needed_hours = [hour_for_step(t, cfg) for t in range(1, cfg.horizon_steps + 1)]
    result = ScenarioBuildResult(scenarios=[])
    for day in sorted(by_day):
        missing = prices.missing_hours(day, needed_hours)
        if missing:
            result.skipped_days.append(
                (day, f"missing prices for hours {missing}")
            )
            continue
        group = sorted(by_day[day], key=lambda r: (r.arrival, r.session_id))
        windows: list[tuple[int, int]] = []
        energies: list[float] = []
        for rec in group:
            window = _step_window(rec, cfg)
            if isinstance(window, str):
                result.dropped_sessions.append((rec.session_id, window))
                continue
            windows.append(window)
            energies.append(rec.energy_kwh)
        if not windows:
            continue
        pi = np.array([prices.get(day, h) for h in needed_hours], dtype=float)
        scenario = Scenario(
            horizon_steps=cfg.horizon_steps,
            step_hours=cfg.step_hours,
            occupancy=occupancy_from_windows(cfg.horizon_steps, windows),
            load=np.array(energies) / cfg.step_hours,
            capacity=cfg.capacity,
            socket_limit=cfg.socket_limit,
            waste=cfg.waste,
            prices=pi,
            scenario_id=day.isoformat(),
        )
        result.scenarios.append(scenario)
    return result


# -- scenario interchange format ---------------------------------------------
#
# One scenario per JSON file, self-contained, so `solve` can run without
# re-ingesting raw data.  Occupancy is stored as 1-based [arrival, departure]
# windows (null for a never-present vehicle).

FORMAT_NAME = "evsched-scenario"
FORMAT_VERSION = 1


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "scenario_id": scenario.scenario_id,
        "horizon_steps": scenario.horizon_steps,
        "step_hours": scenario.step_hours,
        "windows": [scenario.window(i) for i in range(scenario.num_vehicles)],
        "load": scenario.load.tolist(),
        "capacity": scenario.capacity.tolist(),
        "socket_limit": scenario.socket_limit.tolist(),
        "waste": scenario.waste.tolist(),
        "prices": scenario.prices.tolist(),
    }


def scenario_from_dict(data: dict) -> Scenario:
    if data.get("format") != FORMAT_NAME:
        raise ValueError(f"not a {FORMAT_NAME} document")
    if data.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {data.get('version')}")
    windows = [tuple(w) if w is not None else None for w in data["windows"]]
    return Scenario(
        horizon_steps=int(data["horizon_steps"]),
        step_hours=float(data["step_hours"]),
        occupancy=occupancy_from_windows(int(data["horizon_steps"]), windows),
        load=np.asarray(data["load"], dtype=float),
        capacity=np.asarray(data["capacity"], dtype=float),
        socket_limit=np.asarray(data["socket_limit"], dtype=float),
        waste=np.asarray(data["waste"], dtype=float),
        prices=np.asarray(data["prices"], dtype=float),
        scenario_id=str(data["scenario_id"]),
    )


def save_scenario(scenario: Scenario, path: str | Path):
    Path(path).write_text(
        json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def load_scenario(path: str | Path) -> Scenario:
    return scenario_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
