"""The two workloads: seeded inputs, the CLI calls a run makes, and the
correctness gate applied to what those calls wrote.

Each workload is a closed loop with one caller: the next `evsched` call
starts when the previous one returns.  Calls go through `evsched.cli.main`
in-process, looked up at call time so a tracer can wrap it.
"""

from __future__ import annotations

import csv
import filecmp
import json
import time
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

import numpy as np

import evsched.sim
from evsched import Scenario, occupancy_from_windows
from evsched.ingest import save_scenario
from evsched.nominal import check_feasibility

import check

CORPUS_DAYS = 365
# Day k of a corpus has CORPUS_FLEETS[k] vehicles, shuffled by the seed.
# Drawn at random (as `synth.write_synthetic_corpus` draws them, uniform on
# 1..40), the sum of squared fleet sizes of a 365-day corpus ranged
# 172k-217k over seeds 101-110, and a day's LP work grows faster than its
# fleet; a fixed multiset of fleet sizes takes that out of the seed.
CORPUS_FLEETS = np.resize(np.arange(1, 41), CORPUS_DAYS)
# Six four-hour steps and one vehicle.  24-step days at r=0.5 take up to
# 72 s each and often stop at the cut limit, too slow to sample in one run.
# A one-vehicle day's work is set mostly by its window length w: a median
# of about 17, 36 and 63 cuts at w = 2, 3 and 4 steps.  Drawn at random, the
# mix of window lengths alone moved a 300-day pool's mean solve time by 30%
# from seed to seed, and at w = 5 and 6 the cut count of one day ranges
# 35-141.  Every day therefore has a 4-step window; its start and everything
# else is drawn from the seed (see README.md).
ROBUST_STEPS = 6
ROBUST_STEP_HOURS = 4.0
ROBUST_WINDOW = 4
ROBUST_POOL = 100
ROBUST_RADIUS = 0.5


@dataclass
class Op:
    """One CLI call: its arguments, exit code and latency."""

    index: int
    argv: list[str]
    code: int | None = None
    seconds: float = 0.0
    error: str | None = None


@dataclass
class Verdict:
    attempted: int = 0  # scenarios the calls ran
    failed: int = 0
    problems: list[str] = field(default_factory=list)  # failed checks
    notes: list[str] = field(default_factory=list)  # failures that are not wrong output


class Corpus:
    """`evsched simulate` over a 365-day CSV corpus, default station and
    nominal method, one worker."""

    name = "corpus-365"

    def __init__(self, root: Path):
        self.root = root
        self.sessions = root / "sessions.csv"
        self.prices = root / "prices.csv"
        self.captured: dict[str, tuple] = {}
        self.day_seconds: dict[str, list[float]] = {}
        self._restore = None

    def prepare(self, seed: int):
        rng = np.random.default_rng(seed)
        write_corpus(self.sessions, self.prices, rng.permutation(CORPUS_FLEETS), rng)
        write_corpus(self.root / "warm_sessions.csv", self.root / "warm_prices.csv",
                     CORPUS_FLEETS[:7], rng)

    def warmup_argv(self) -> list[str]:
        return ["simulate", "--sessions", str(self.root / "warm_sessions.csv"),
                "--prices", str(self.root / "warm_prices.csv"),
                "--out", str(self.root / "warm")]

    def argv(self, k: int) -> list[str]:
        return ["simulate", "--sessions", str(self.sessions), "--prices", str(self.prices),
                "--out", str(self._out(k))]

    def trace_ops(self) -> int:
        return 1

    def request(self, k: int) -> str:
        return f"simulate-{k:03d}"

    scenarios_per_call = CORPUS_DAYS
    latency_unit = "days (each the median of its compare_scenario times in the run)"

    def latencies(self, ops: list[Op]) -> list[float]:
        """One sample per corpus day: the median over the run's calls, so
        that a stall of the shared machine during one call does not become
        one of the ten samples beyond the tail percentile."""
        return [float(np.median(times)) for times in self.day_seconds.values()]

    def _out(self, k: int) -> Path:
        return self.root / f"run{k:03d}"

    def start_capture(self):
        """Keep each day's (scenario, schedule) from the first call that
        solves it, since `simulate` writes no schedules and the gate needs
        them; and time each day's `compare_scenario` (FCFS, optimizer and
        costs), the per-day latency.  The wrappers only store into a dict
        and a list."""
        original = evsched.sim.optimized_schedule, evsched.sim.compare_scenario
        optimize, compare = original
        captured = self.captured
        day_seconds = self.day_seconds

        def capture(scenario, config):
            schedule = optimize(scenario, config)
            captured.setdefault(scenario.scenario_id, (scenario, schedule))
            return schedule

        def timed(scenario, config):
            start = time.perf_counter()
            row = compare(scenario, config)
            day_seconds.setdefault(scenario.scenario_id, []).append(time.perf_counter() - start)
            return row

        evsched.sim.optimized_schedule, evsched.sim.compare_scenario = capture, timed
        self._restore = original

    def stop_capture(self):
        evsched.sim.optimized_schedule, evsched.sim.compare_scenario = self._restore

    def check(self, ops: list[Op]) -> Verdict:
        verdict = Verdict(attempted=CORPUS_DAYS * len(ops))
        ref = next((op for op in ops if op.code == 0), None)
        day_failures = self._check_days(self._out(ref.index), verdict) if ref else 0
        for op in ops:
            if op.code != 0:
                verdict.failed += CORPUS_DAYS
                verdict.notes.append(f"call {op.index} exited {op.code} {op.error or ''}")
            elif not _same_files(self._out(ref.index), self._out(op.index)):
                verdict.failed += CORPUS_DAYS
                verdict.problems.append(f"call {op.index}: reports differ from call {ref.index}")
            else:
                verdict.failed += day_failures
        return verdict

    def _check_days(self, out: Path, verdict: Verdict) -> int:
        with (out / "comparison.csv").open(encoding="utf-8") as stream:
            rows = list(csv.DictReader(stream))
        if len(rows) != CORPUS_DAYS:
            verdict.problems.append(f"comparison.csv has {len(rows)} rows")
        failed = CORPUS_DAYS - len(rows)
        for row in rows:
            sid = row["scenario_id"]
            if row["infeasible"] == "1" or row["error"]:
                verdict.notes.append(f"{sid}: infeasible={row['infeasible']} {row['error']}")
                failed += 1
                continue
            problems = self._day_problems(sid, float(row["optimized_cost"]))
            verdict.problems.extend(problems)
            failed += bool(problems)
        return failed

    def _day_problems(self, sid: str, cost: float) -> list[str]:
        if sid not in self.captured:
            return [f"{sid}: no schedule captured"]
        scenario, schedule = self.captured[sid]
        problems = check.schedule_problems(scenario, schedule.allocation)
        own = float(scenario.prices @ check.step_totals(scenario, schedule.allocation))
        if not check.close(cost, own, 1e-9):
            problems.append(f"{sid}: reported cost {cost!r} != schedule cost {own!r}")
        ref = check.reference_cost(scenario)
        if not check.close(cost, ref, check.COST_REL_TOL):
            problems.append(f"{sid}: cost {cost!r} != HiGHS {ref!r}")
        return problems


class RobustDays:
    """`evsched solve --method robust-price` calls cycling through a seeded
    pool of scenario files; pass r of the pool writes into its own
    directory so repeated solves of a day can be compared byte for byte."""

    name = "robust-price"
    method = "robust-price"
    pool = ROBUST_POOL

    def __init__(self, root: Path):
        self.root = root
        self.scenarios = []
        self.files: list[Path] = []

    def prepare(self, seed: int):
        rng = np.random.default_rng(seed)
        days = self.root / "days"
        days.mkdir(parents=True, exist_ok=True)
        self.scenarios = [robust_day(rng, f"{self.name}-{k:03d}") for k in range(self.pool)]
        self.files = [days / f"{sc.scenario_id}.json" for sc in self.scenarios]
        for sc, path in zip(self.scenarios, self.files):
            save_scenario(sc, path)
        save_scenario(self._warm_scenario(), self.root / "warm-up.json")

    def _warm_scenario(self) -> Scenario:
        """One vehicle present for one step: the warm-up call then costs the
        same for every seed, so it adds no seed-dependent time to set-up."""
        T = ROBUST_STEPS
        return Scenario(horizon_steps=T, step_hours=ROBUST_STEP_HOURS,
                        occupancy=occupancy_from_windows(T, [(1, 1)]), load=[1.0],
                        capacity=300.0, socket_limit=7.0, waste=0.01,
                        prices=np.full(T, 0.1), scenario_id="warm-up")

    def _argv(self, scenario: Path, out: Path) -> list[str]:
        return ["solve", "--scenario", str(scenario), "--method", self.method,
                "--radius", repr(ROBUST_RADIUS), "--out", str(out)]

    def warmup_argv(self) -> list[str]:
        return self._argv(self.root / "warm-up.json", self.root / "warm")

    def argv(self, k: int) -> list[str]:
        return self._argv(self.files[self.item(k)], self._out(k))

    def item(self, k: int) -> int:
        """Which pool day call k solves."""
        return k % self.pool

    scenarios_per_call = 1
    latency_unit = "solve calls"

    def latencies(self, ops: list[Op]) -> list[float]:
        return [op.seconds for op in ops]

    def trace_ops(self) -> int:
        """Traced runs solve the pool once."""
        return self.pool

    def request(self, k: int) -> str:
        return self.scenarios[self.item(k)].scenario_id

    def start_capture(self):
        pass

    def stop_capture(self):
        pass

    def _out(self, k: int) -> Path:
        return self.root / f"pass{k // self.pool:03d}"

    def _doc_path(self, k: int) -> Path:
        sid = self.scenarios[self.item(k)].scenario_id
        return self._out(k) / f"schedule_{sid}_{self.method}.json"

    def check(self, ops: list[Op]) -> Verdict:
        verdict = Verdict(attempted=len(ops))
        first: dict[int, tuple[Path, bool]] = {}  # day -> (reference file, day failed)
        for op in ops:
            day = self.item(op.index)
            path = self._doc_path(op.index)
            if op.code != 0 or not path.exists():
                verdict.failed += 1
                verdict.notes.append(f"call {op.index} exited {op.code} {op.error or ''}")
                continue
            if day not in first:
                first[day] = (path, self._day_failed(day, path, verdict))
            elif not filecmp.cmp(first[day][0], path, shallow=False):
                verdict.failed += 1
                verdict.problems.append(f"{path.name}: differs from {first[day][0]}")
                continue
            verdict.failed += first[day][1]
        return verdict

    def _day_failed(self, day: int, path: Path, verdict: Verdict) -> bool:
        scenario = self.scenarios[day]
        doc = json.loads(path.read_text(encoding="utf-8"))
        problems = check.schedule_problems(scenario, doc["allocation"])
        own = float(scenario.prices @ check.step_totals(scenario, doc["allocation"]))
        if not check.close(doc["total_cost"], own, 1e-9):
            problems.append(f"{path.name}: total_cost {doc['total_cost']!r} != {own!r}")
        ref = check.reference_cost(scenario)
        problems += check.robust_problems(scenario, doc, ROBUST_RADIUS, ref)
        cut_limit = check.cut_limit_hit(doc)
        if cut_limit:
            verdict.notes.append(f"{scenario.scenario_id}: cutting planes stopped after "
                                 f"{doc['cuts']} cuts with gap "
                                 f"{doc['cutting_plane_gap']:.3e}, above tolerance")
        verdict.problems.extend(problems)
        return bool(problems) or cut_limit


def _same_files(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


def write_corpus(sessions: Path, prices: Path, fleets, rng: np.random.Generator):
    """Sessions and prices CSVs for one day per entry of `fleets`, that many
    vehicles a day; everything else is drawn as
    `synth.write_synthetic_corpus` draws it."""
    start = date(2018, 4, 25)
    with sessions.open("w", newline="", encoding="utf-8") as s_out, \
            prices.open("w", newline="", encoding="utf-8") as p_out:
        s_csv = csv.writer(s_out, lineterminator="\n")
        p_csv = csv.writer(p_out, lineterminator="\n")
        s_csv.writerow(["session_id", "arrival", "departure", "energy_kwh"])
        p_csv.writerow(["date", "hour", "price"])
        for k, n in enumerate(fleets):
            day = start + timedelta(days=k)
            base = rng.uniform(0.06, 0.14)
            for hour in range(24):
                curve = 1.0 + 0.6 * np.sin((hour - 4.0) * np.pi / 12.0)
                p_csv.writerow([day.isoformat(), hour,
                                f"{base * curve + rng.normal(0.0, 0.004):.6f}"])
            for i in range(n):
                arrival = int(rng.integers(0, 20 * 60))
                stay = int(rng.integers(60, min(10 * 60, 23 * 60 + 50 - arrival) + 1))
                departure = arrival + stay
                steps = -(-departure // 60) - arrival // 60
                energy = float(rng.uniform(1.0, 0.8 * 7.0 * steps))
                s_csv.writerow([f"{day.isoformat()}-v{i:03d}", _stamp(day, arrival),
                                _stamp(day, departure), f"{energy:.3f}"])


def _stamp(day: date, minutes: int) -> str:
    return f"{day.isoformat()}T{minutes // 60:02d}:{minutes % 60:02d}:00"


def robust_day(rng: np.random.Generator, scenario_id: str) -> Scenario:
    """One vehicle present for ROBUST_WINDOW steps; start, demand, station
    budget and prices are drawn as `synth.random_scenario` draws them."""
    T, w = ROBUST_STEPS, ROBUST_WINDOW
    socket_limit = 7.0
    a = int(rng.integers(1, T - w + 2))
    load = rng.uniform(0.05, 0.85) * w * socket_limit
    capacity = rng.uniform(2.0, 2.5) * socket_limit
    scenario = Scenario(horizon_steps=T, step_hours=ROBUST_STEP_HOURS,
                        occupancy=occupancy_from_windows(T, [(a, a + w - 1)]), load=[load],
                        capacity=capacity, socket_limit=socket_limit, waste=0.01,
                        prices=rng.uniform(0.02, 0.40, size=T), scenario_id=scenario_id)
    if not check_feasibility(scenario).feasible:
        raise RuntimeError(f"{scenario_id} is infeasible")
    return scenario


def make(name: str, root: Path):
    if name == "corpus-365":
        return Corpus(root)
    if name == "robust-price":
        return RobustDays(root)
    raise KeyError(name)


NAMES = ("corpus-365", "robust-price")
