"""Random feasible scenarios and synthetic data files for testing.

Not part of the optimization method itself: this exists so the CLI and the
test suite can exercise the full pipeline without external datasets.
Generation is deterministic for a given seed.
"""

from __future__ import annotations

import csv
from dataclasses import replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from .model import Scenario, occupancy_from_windows
from .nominal import check_feasibility


def random_scenario(
    rng: np.random.Generator,
    *,
    horizon_steps: int = 24,
    num_vehicles: int | None = None,
    max_vehicles: int = 20,
    step_hours: float = 1.0,
    capacity: float | None = None,
    socket_limit: float = 7.0,
    waste: float = 0.01,
    price_low: float = 0.02,
    price_high: float = 0.40,
    load_fraction: float = 0.85,
    scenario_id: str = "synthetic",
) -> Scenario:
    """One random scenario, guaranteed feasible.

    Demands are drawn below each vehicle's window socket capacity; if the
    station budget still cannot serve everyone, all demands are scaled
    down until the feasibility check passes.  Raises ValueError when sixty
    such scalings leave the day infeasible, as at capacity 0.
    """
    T = horizon_steps
    n = int(num_vehicles) if num_vehicles is not None else int(rng.integers(1, max_vehicles + 1))
    cap = float(capacity) if capacity is not None else float(
        rng.uniform(2.0, max(2.5, 1.2 * n)) * socket_limit
    )
    windows = []
    loads = np.empty(n)
    for i in range(n):
        a = int(rng.integers(1, T + 1))
        d = int(rng.integers(a, T + 1))
        windows.append((a, d))
        window_cap = (d - a + 1) * socket_limit
        loads[i] = rng.uniform(0.05, load_fraction) * window_cap
    prices = rng.uniform(price_low, price_high, size=T)
    scenario = Scenario(
        horizon_steps=T,
        step_hours=step_hours,
        occupancy=occupancy_from_windows(T, windows),
        load=loads,
        capacity=cap,
        socket_limit=socket_limit,
        waste=waste,
        prices=prices,
        scenario_id=scenario_id,
    )
    for _ in range(60):
        report = check_feasibility(scenario)
        if report.feasible:
            return scenario
        scenario = replace(scenario, load=scenario.load * 0.7)
    raise ValueError(f"no feasible day at station capacity {cap:g} kW")


def random_batch(seed: int, days: int, **kwargs) -> list[Scenario]:
    rng = np.random.default_rng(seed)
    return [
        random_scenario(rng, scenario_id=f"synthetic-{k:04d}", **kwargs)
        for k in range(days)
    ]


def write_synthetic_corpus(
    sessions_path: str | Path,
    prices_path: str | Path,
    *,
    days: int,
    seed: int,
    start: date = date(2018, 4, 25),
    max_vehicles: int = 40,
    price_unit_scale: float = 1.0,
) -> None:
    """Write paired sessions and prices CSVs spanning `days` calendar days.

    Daily price curves have a cheap overnight valley and an evening peak,
    so a time-aware allocator has real savings to find.  Session energies
    stay below what the socket can deliver over the parking interval.
    """
    rng = np.random.default_rng(seed)
    sessions_path = Path(sessions_path)
    prices_path = Path(prices_path)

    with sessions_path.open("w", newline="", encoding="utf-8") as s_out, prices_path.open(
        "w", newline="", encoding="utf-8"
    ) as p_out:
        s_csv = csv.writer(s_out, lineterminator="\n")
        p_csv = csv.writer(p_out, lineterminator="\n")
        s_csv.writerow(["session_id", "arrival", "departure", "energy_kwh"])
        p_csv.writerow(["date", "hour", "price"])
        for k in range(days):
            day = start + timedelta(days=int(k))
            base = rng.uniform(0.06, 0.14)
            for hour in range(24):
                curve = 1.0 + 0.6 * np.sin((hour - 4.0) * np.pi / 12.0)
                price = base * curve + rng.normal(0.0, 0.004)
                p_csv.writerow([day.isoformat(), hour, f"{price * price_unit_scale:.6f}"])
            n = int(rng.integers(1, max_vehicles + 1))
            for i in range(n):
                arr_min = int(rng.integers(0, 20 * 60))
                max_dur = 23 * 60 + 50 - arr_min
                dur_min = int(rng.integers(60, min(10 * 60, max_dur) + 1))
                dep_min = arr_min + dur_min
                # whole steps the vehicle can charge in, at 1-hour steps
                window_len = -(-dep_min // 60) - arr_min // 60
                energy = float(rng.uniform(1.0, 0.8 * 7.0 * window_len))
                s_csv.writerow(
                    [
                        f"{day.isoformat()}-v{i:03d}",
                        _ts(day, arr_min),
                        _ts(day, dep_min),
                        f"{energy:.3f}",
                    ]
                )


def _ts(day: date, minutes: int) -> str:
    return f"{day.isoformat()}T{minutes // 60:02d}:{minutes % 60:02d}:00"
