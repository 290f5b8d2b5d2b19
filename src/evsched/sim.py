"""Batch comparison of allocation methods across daily scenarios.

For every scenario the FCFS baseline (the "trivial" cost) and one
requested optimizer run on identical inputs; per-day rows then aggregate
into a summary table (scenario counts, summed costs, average saving) and
into the data files behind the three standard plots: the per-hour power
profile of one chosen day, the per-day (vehicle count, money saved)
scatter, and cumulative cost over the scenario sequence.

Days where FCFS cannot serve all demand are flagged and left out of the
saving statistics: FCFS delivered less energy there, so a raw cost
comparison would favor it spuriously.  Infeasible days are likewise
flagged and counted.

All report files are written deterministically (same inputs and config
give byte-identical bytes, independent of worker count).
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .baseline import fcfs_with_report
from .model import COST_REL_TOL, FEAS_TOL, Method, Scenario, Schedule, evaluate_cost
from .nominal import InfeasibleScenario
from .robust import check_options, solve
from .solver import NumericalFailure


@dataclass(frozen=True)
class RunConfig:
    """Which optimizer to compare against FCFS, and how."""

    method: Method = Method.NOMINAL
    robust_radius: float = 0.0
    load_upper_scale: float = 1.0
    workers: int = 1

    def __post_init__(self):
        method = check_options(self.method, self.robust_radius, self.load_upper_scale)
        object.__setattr__(self, "method", method)


@dataclass
class ComparisonRow:
    scenario_id: str
    num_vehicles: int
    trivial_cost: float | None
    optimized_cost: float | None
    saving_pct: float | None
    infeasible: bool = False
    fcfs_shortfall: bool = False
    error: str | None = None

    @property
    def comparable(self) -> bool:
        """True when the trivial/optimized comparison is like-for-like."""
        return (
            not self.infeasible
            and not self.fcfs_shortfall
            and self.error is None
            and self.trivial_cost is not None
            and self.optimized_cost is not None
        )

    @property
    def money_saved(self) -> float | None:
        if self.trivial_cost is None or self.optimized_cost is None:
            return None
        return self.trivial_cost - self.optimized_cost


@dataclass
class SummaryRow:
    filter_label: str
    min_vehicles: int
    scenario_count: int
    included_count: int
    trivial_cost_sum: float
    optimized_cost_sum: float
    mean_of_daily_pct: float | None
    pct_of_summed_costs: float | None


def optimized_schedule(scenario: Scenario, config: RunConfig) -> Schedule:
    """Run the configured optimizer on one scenario."""
    return solve(scenario, config.method, radius=config.robust_radius,
                 load_scale=config.load_upper_scale).schedule


def compare_scenario(scenario: Scenario, config: RunConfig) -> ComparisonRow:
    """One day's FCFS-versus-optimizer comparison.  An infeasible day or a
    solver failure is recorded on the row; the ValueError `solve` raises on
    invalid options, or on a robust-load load that overflows, propagates."""
    fcfs = fcfs_with_report(scenario)
    trivial = evaluate_cost(fcfs.schedule, scenario).total_cost
    row = ComparisonRow(
        scenario_id=scenario.scenario_id,
        num_vehicles=scenario.num_vehicles,
        trivial_cost=trivial,
        optimized_cost=None,
        saving_pct=None,
        fcfs_shortfall=not fcfs.fully_served,
    )
    try:
        schedule = optimized_schedule(scenario, config)
    except InfeasibleScenario:
        row.infeasible = True
        return row
    except NumericalFailure as exc:
        row.error = str(exc)
        return row
    row.optimized_cost = evaluate_cost(schedule, scenario).total_cost
    if trivial > 0:
        row.saving_pct = 100.0 * (trivial - row.optimized_cost) / trivial
    return row


def _worker(args: tuple[Scenario, RunConfig]) -> ComparisonRow:
    return compare_scenario(*args)


def run_comparison(
    scenarios: list[Scenario], config: RunConfig | None = None
) -> list[ComparisonRow]:
    """Compare every scenario; rows come back in scenario order regardless
    of how the work was distributed."""
    config = config or RunConfig()
    if config.workers <= 1 or len(scenarios) < 2:
        return [compare_scenario(sc, config) for sc in scenarios]
    # imported here: it loads multiprocessing, which no other path needs
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=config.workers) as pool:
        return list(pool.map(_worker, [(sc, config) for sc in scenarios], chunksize=8))


def aggregate(
    rows: list[ComparisonRow], thresholds: tuple[int, ...] = (1, 10, 30)
) -> list[SummaryRow]:
    """One summary row per vehicle-count threshold (filter N >= k).

    Average saving is the unweighted mean of per-day percentages; the
    ratio of summed costs is reported alongside since the two statistics
    differ in general.
    """
    out = []
    for k in thresholds:
        matching = [r for r in rows if r.num_vehicles >= k]
        included = [r for r in matching if r.comparable]
        trivial_sum = float(sum(r.trivial_cost for r in included))
        optimized_sum = float(sum(r.optimized_cost for r in included))
        savings = [r.saving_pct for r in included if r.saving_pct is not None]
        mean_pct = float(np.mean(savings)) if savings else None
        ratio_pct = (
            100.0 * (trivial_sum - optimized_sum) / trivial_sum
            if trivial_sum > 0
            else None
        )
        label = "N > 0" if k <= 1 else f"N >= {k}"
        out.append(
            SummaryRow(
                filter_label=label,
                min_vehicles=k,
                scenario_count=len(matching),
                included_count=len(included),
                trivial_cost_sum=trivial_sum,
                optimized_cost_sum=optimized_sum,
                mean_of_daily_pct=mean_pct,
                pct_of_summed_costs=ratio_pct,
            )
        )
    return out


def spearman_rho(xs, ys) -> float:
    """Spearman rank correlation (average ranks for ties)."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ValueError("need two same-length samples of size >= 2")
    rx = _ranks(x)
    ry = _ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = float(np.sqrt((rx * rx).sum() * (ry * ry).sum()))
    if denom == 0.0:
        return 0.0
    return float((rx * ry).sum() / denom)


def _ranks(v: np.ndarray) -> np.ndarray:
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.size, dtype=float)
    i = 0
    while i < v.size:
        j = i
        while j + 1 < v.size and v[order[j + 1]] == v[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


# -- report files -------------------------------------------------------------

# The CSV columns are the row fields in declaration order; the summary's
# first column keeps its short label, while summary.json says filter_label.
COMPARISON_HEADER = [f.name for f in fields(ComparisonRow)]
SUMMARY_HEADER = ["filter"] + [f.name for f in fields(SummaryRow)][1:]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _values(row) -> tuple:
    """A report row's field values in order: `dataclasses.astuple` without
    its deep copy of each value, which scalars do not need."""
    return tuple(getattr(row, f.name) for f in fields(row))


def _write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    with path.open("w", newline="", encoding="utf-8") as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_comparison_csv(rows: list[ComparisonRow], path: str | Path) -> None:
    _write_csv(Path(path), COMPARISON_HEADER, [_values(r) for r in rows])


def write_summary_csv(summary: list[SummaryRow], path: str | Path) -> None:
    _write_csv(Path(path), SUMMARY_HEADER, [_values(r) for r in summary])


def write_summary_json(
    summary: list[SummaryRow],
    rows: list[ComparisonRow],
    path: str | Path,
    run_metadata: dict | None = None,
) -> None:
    included = [r for r in rows if r.comparable]
    pairs = [(r.num_vehicles, r.money_saved) for r in included]
    rho = spearman_rho(*zip(*pairs)) if len(pairs) >= 2 else None
    doc = {
        "tool": "evsched",
        "version": __version__,
        "tolerances": {"feasibility_abs": FEAS_TOL, "cost_rel": COST_REL_TOL},
        "run": run_metadata or {},
        "summary": [asdict(r) for r in summary],
        "scenarios_total": len(rows),
        "scenarios_included": len(included),
        "spearman_vehicles_vs_money_saved": rho,
    }
    Path(path).write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def day_power_profile(scenario: Scenario, schedules: dict[str, Schedule]):
    """Rows of (hour, per-method total kW) for the fig2-style file."""
    header = ["hour"] + [f"{name}_kw" for name in schedules]
    rows = []
    for t in range(scenario.horizon_steps):
        row = [t + 1]
        for schedule in schedules.values():
            row.append(float(schedule.allocation[t, :].sum()))
        rows.append(row)
    return header, rows


def emit_plot_data(
    rows: list[ComparisonRow],
    day_scenario: Scenario | None,
    day_schedules: dict[str, Schedule] | None,
    out_dir: str | Path,
) -> dict[str, Path]:
    """Write the three plot-data files; headers are always present even
    for empty inputs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "fig2": out / "fig2_day.csv",
        "fig3": out / "fig3_scatter.csv",
        "fig4": out / "fig4_cumulative.csv",
    }

    if day_scenario is not None and day_schedules:
        header, data = day_power_profile(day_scenario, day_schedules)
    else:
        header, data = ["hour"], []
    _write_csv(paths["fig2"], header, data)

    included = [r for r in rows if r.comparable]
    _write_csv(
        paths["fig3"],
        ["scenario_id", "num_vehicles", "money_saved"],
        [[r.scenario_id, r.num_vehicles, r.money_saved] for r in included],
    )

    cumulative = []
    trivial_acc = 0.0
    optimized_acc = 0.0
    for r in included:
        trivial_acc += r.trivial_cost
        optimized_acc += r.optimized_cost
        cumulative.append([r.scenario_id, trivial_acc, optimized_acc])
    _write_csv(
        paths["fig4"],
        ["scenario_id", "trivial_cost_cumulative", "optimized_cost_cumulative"],
        cumulative,
    )
    return paths
