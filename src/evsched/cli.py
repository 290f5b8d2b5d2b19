"""Command-line entry point.

Subcommands wire the pieces into reproducible runs:

  ingest    sessions+prices CSVs -> per-day scenario JSON files
  solve     one scenario JSON -> schedule + cost (any method)
  compare   scenario JSONs -> comparison/summary/plot-data reports
  simulate  full pipeline: raw CSVs (or synthetic data) -> reports

Exit codes: 0 success, 2 usage error, 3 input/ingest error,
4 infeasible scenario, 5 solver failure.  Every run writes a
`run_manifest.json` recording the configuration and input digests; rerunning
with the same inputs and configuration yields byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .baseline import fcfs_with_report
from .ingest import (
    IngestConfig,
    MalformedRow,
    MidnightPolicy,
    MissingColumn,
    PriceUnit,
    build_scenarios,
    load_scenario,
    parse_prices,
    parse_sessions,
    save_scenario,
)
from .model import Method, Scenario, evaluate_cost
from .nominal import InfeasibleScenario
from .robust import solve
from .sim import (
    RunConfig,
    aggregate,
    emit_plot_data,
    optimized_schedule,
    run_comparison,
    write_comparison_csv,
    write_summary_csv,
    write_summary_json,
)
from .solver import NumericalFailure
from .synth import random_batch

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INGEST = 3
EXIT_INFEASIBLE = 4
EXIT_SOLVER = 5

OUT_DIR_ENV = "EVSCHED_OUT"


def _finite_at_least(low: float):
    """argparse type: a finite float >= low."""
    def number(text: str) -> float:
        value = float(text)
        if not low <= value < math.inf:
            raise argparse.ArgumentTypeError(f"{text!r} is not a finite number >= {low:g}")
        return value
    return number


def _positive_finite(text: str) -> float:
    """argparse type: a finite float > 0."""
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number > 0")
    return value


def _int_at_least(low: int):
    """argparse type: an integer >= low."""
    def number(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= {low}")
        return value
    return number


def _thresholds(text: str) -> str:
    """argparse type: comma-separated integers, kept as written."""
    try:
        [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a list of integers") from None
    return text


def _add_ingest_options(p: argparse.ArgumentParser):
    p.add_argument("--horizon", type=_int_at_least(1), default=24, metavar="T",
                   help="time steps per day (default 24)")
    p.add_argument("--step-hours", type=_positive_finite, default=1.0, metavar="H",
                   help="hours per step (default 1.0)")
    p.add_argument("--capacity", type=_finite_at_least(0.0), default=300.0, metavar="KW",
                   help="station power budget per step (default 300)")
    p.add_argument("--socket-limit", type=_finite_at_least(0.0), default=7.0, metavar="KW",
                   help="per-socket power cap (default 7)")
    p.add_argument("--waste", type=_finite_at_least(0.0), default=0.01, metavar="G",
                   help="proportional energy overhead (default 0.01)")
    p.add_argument("--price-unit", choices=[u.value for u in PriceUnit],
                   default=PriceUnit.PER_KWH.value,
                   help="unit of the prices file (default per-kwh)")
    p.add_argument("--midnight", choices=[m.value for m in MidnightPolicy],
                   default=MidnightPolicy.CLAMP.value,
                   help="sessions crossing midnight: clamp to the horizon "
                        "or drop (default clamp)")


def _add_compare_options(p: argparse.ArgumentParser):
    p.add_argument("--method", choices=["nominal", "robust-price", "robust-load"],
                   default="nominal", help="optimizer compared against FCFS")
    _add_robust_options(p)
    p.add_argument("--filters", type=_thresholds, default="1,10,30",
                   help="comma-separated vehicle-count thresholds for the "
                        "summary table (default 1,10,30)")
    p.add_argument("--workers", type=_int_at_least(1), default=1,
                   help="parallel scenario workers (default 1)")
    p.add_argument("--fig2-day", type=str, default=None,
                   help="scenario id for the daily power profile file "
                        "(default: first scenario)")


def _add_robust_options(p: argparse.ArgumentParser):
    p.add_argument("--radius", type=_finite_at_least(0.0), default=0.0,
                   help="price uncertainty ball radius (robust methods)")
    p.add_argument("--load-scale", type=_finite_at_least(1.0), default=1.0,
                   help="worst-case load = scale * nominal load (robust-load)")


def _add_out_option(p: argparse.ArgumentParser, required: bool, default: str | None):
    p.add_argument("--out", type=Path, default=default,
                   required=required and default is None,
                   help=f"output directory (or ${OUT_DIR_ENV})")


@functools.cache
def _parser(out_default: str | None) -> argparse.ArgumentParser:
    """The argument parser, built once per process for each `--out` default
    (the value of $EVSCHED_OUT)."""
    parser = argparse.ArgumentParser(
        prog="evsched",
        description="EV charging schedule optimization and FCFS comparison",
    )
    parser.add_argument("--version", action="version", version=f"evsched {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="build per-day scenario files")
    p_ingest.add_argument("--sessions", type=Path, required=True)
    p_ingest.add_argument("--prices", type=Path, required=True)
    _add_ingest_options(p_ingest)
    _add_out_option(p_ingest, required=True, default=out_default)

    p_solve = sub.add_parser("solve", help="solve one scenario file")
    p_solve.add_argument("--scenario", type=Path, required=True)
    p_solve.add_argument(
        "--method",
        choices=["nominal", "fcfs", "robust-price", "robust-load"],
        default="nominal",
    )
    _add_robust_options(p_solve)
    _add_out_option(p_solve, required=False, default=out_default)

    p_compare = sub.add_parser("compare", help="compare methods across scenario files")
    p_compare.add_argument("--scenarios", type=Path, nargs="+", required=True,
                           help="scenario JSON files or directories of them")
    _add_compare_options(p_compare)
    _add_out_option(p_compare, required=True, default=out_default)

    p_sim = sub.add_parser("simulate", help="full pipeline from raw data")
    p_sim.add_argument("--sessions", type=Path)
    p_sim.add_argument("--prices", type=Path)
    p_sim.add_argument("--synthetic", type=_int_at_least(1), metavar="DAYS", default=None,
                       help="generate DAYS random feasible scenarios instead "
                            "of reading data files (test tooling)")
    p_sim.add_argument("--seed", type=_int_at_least(0), default=0,
                       help="seed for --synthetic (default 0)")
    p_sim.add_argument("--max-vehicles", type=_int_at_least(1), default=40,
                       help="per-day vehicle cap for --synthetic (default 40)")
    _add_ingest_options(p_sim)
    _add_compare_options(p_sim)
    _add_out_option(p_sim, required=True, default=out_default)
    return parser


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = _parser(os.environ.get(OUT_DIR_ENV))
    args = parser.parse_args(argv)
    if args.command == "simulate":
        has_files = args.sessions is not None and args.prices is not None
        if args.synthetic is None and not has_files:
            parser.error("simulate needs --sessions and --prices, or --synthetic")
        if args.synthetic is not None and (args.sessions or args.prices):
            parser.error("--synthetic excludes --sessions/--prices")
    return args


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, command: str, config: dict, inputs: dict[str, Path]):
    manifest = {
        "tool": "evsched",
        "version": __version__,
        "command": command,
        "config": config,
        "inputs": {
            name: {"path": str(path), "sha256": _sha256(path)}
            for name, path in inputs.items()
        },
    }
    (out_dir / "run_manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _config_dict(args: argparse.Namespace) -> dict:
    skip = {"command", "sessions", "prices", "scenario", "scenarios", "out"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip:
            continue
        out[key] = str(value) if isinstance(value, Path) else value
    return out


def _ingest_config(args: argparse.Namespace) -> IngestConfig:
    return IngestConfig(
        horizon_steps=args.horizon,
        step_hours=args.step_hours,
        capacity=args.capacity,
        socket_limit=args.socket_limit,
        waste=args.waste,
        price_unit=PriceUnit(args.price_unit),
        midnight_policy=MidnightPolicy(args.midnight),
    )


def _load_inputs(args: argparse.Namespace):
    cfg = _ingest_config(args)
    with open(args.sessions, encoding="utf-8") as stream:
        sessions = parse_sessions(stream)
    with open(args.prices, encoding="utf-8") as stream:
        prices = parse_prices(stream, cfg.price_unit)
    return build_scenarios(sessions, prices, cfg)


def _report_build(result, stream=sys.stderr):
    for day, reason in result.skipped_days:
        print(f"evsched: skipped {day}: {reason}", file=stream)
    for session_id, reason in result.dropped_sessions:
        print(f"evsched: dropped session {session_id}: {reason}", file=stream)


def cmd_ingest(args: argparse.Namespace) -> int:
    try:
        result = _load_inputs(args)
    except (MalformedRow, MissingColumn, OSError, ValueError) as exc:
        print(f"evsched: ingest error: {exc}", file=sys.stderr)
        return EXIT_INGEST
    _report_build(result)
    out_dir = Path(args.out)
    scen_dir = out_dir / "scenarios"
    scen_dir.mkdir(parents=True, exist_ok=True)
    for sc in result.scenarios:
        save_scenario(sc, scen_dir / f"{sc.scenario_id}.json")
    report = {
        "scenarios": [sc.scenario_id for sc in result.scenarios],
        "skipped_days": [[d.isoformat(), reason] for d, reason in result.skipped_days],
        "dropped_sessions": [list(item) for item in result.dropped_sessions],
    }
    (out_dir / "ingest_report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    _write_manifest(out_dir, "ingest", _config_dict(args),
                    {"sessions": args.sessions, "prices": args.prices})
    print(f"evsched: wrote {len(result.scenarios)} scenarios to {scen_dir}")
    return EXIT_OK


def _load_scale_overflows(scenarios: list[Scenario], args: argparse.Namespace) -> bool:
    """Whether robust-load's worst-case load, load * --load-scale, overflows
    on one of `scenarios`; the first such day is reported as a usage error."""
    if Method(args.method) is Method.ROBUST_LOAD:
        for sc in scenarios:
            if float(sc.load.max(initial=0.0)) * args.load_scale == math.inf:
                print(f"evsched: usage error: --load-scale {args.load_scale!r} overflows "
                      f"the load of day {sc.scenario_id}", file=sys.stderr)
                return True
    return False


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except (OSError, ValueError, KeyError) as exc:
        print(f"evsched: cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_INGEST
    if _load_scale_overflows([scenario], args):
        return EXIT_USAGE
    method = Method(args.method)
    try:
        if method is Method.FCFS:
            result = fcfs_with_report(scenario)
            schedule = result.schedule
            cost = evaluate_cost(schedule, scenario)
            extras = {"shortfall_total": float(result.shortfall.sum())}
        else:
            result = solve(scenario, method, radius=args.radius,
                           load_scale=args.load_scale)
            schedule, cost = result.schedule, result.cost
            extras = {} if method is Method.NOMINAL else {
                "robust_objective": result.objective,
                "cutting_plane_gap": result.gap,
                "cuts": result.cuts,
                "polished": result.polished,
                "master_pivots": result.stats.pivots,
            }
    except InfeasibleScenario as exc:
        print(f"evsched: {exc}", file=sys.stderr)
        print(f"evsched: feasibility report: {exc.report}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NumericalFailure as exc:
        print(f"evsched: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    print(
        f"{scenario.scenario_id} {method.value}: cost {cost.total_cost:.6f}, "
        f"energy {cost.total_energy_delivered:.3f} kWh"
    )
    if "cuts" in extras:
        print(f"cutting planes: {extras['cuts']} cuts, "
              f"{extras['master_pivots']} master pivots, "
              f"gap {extras['cutting_plane_gap']:.3e}, "
              f"{'polished' if extras['polished'] else 'not polished'}")
    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        doc = {
            "scenario_id": scenario.scenario_id,
            "method": method.value,
            "allocation": schedule.allocation.tolist(),
            "total_cost": cost.total_cost,
            "per_step_cost": cost.per_step_cost.tolist(),
            "total_energy_delivered": cost.total_energy_delivered,
            "total_energy_wasted": cost.total_energy_wasted,
            **extras,
        }
        path = out_dir / f"schedule_{scenario.scenario_id}_{method.value}.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        _write_manifest(out_dir, "solve", _config_dict(args),
                        {"scenario": args.scenario})
    return EXIT_OK


def _collect_scenario_files(paths: list[Path]) -> list[Path]:
    files: list[Path] = []
    for p in paths:
        if p.is_dir():
            files.extend(sorted(p.glob("*.json")))
        else:
            files.append(p)
    return files


def _run_reports(scenarios: list[Scenario], args, inputs: dict[str, Path],
                 command: str, run_meta: dict) -> int:
    """Compare `scenarios` and write the reports into `--out`, which is made
    here, once the inputs exist, so a usage or input error leaves none."""
    if _load_scale_overflows(scenarios, args):
        return EXIT_USAGE
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = RunConfig(
        method=Method(args.method),
        robust_radius=args.radius,
        load_upper_scale=args.load_scale,
        workers=args.workers,
    )
    rows = run_comparison(scenarios, config)
    thresholds = tuple(int(v) for v in args.filters.split(",") if v.strip())
    summary = aggregate(rows, thresholds)

    day_scenario = None
    day_schedules = None
    if scenarios:
        wanted = args.fig2_day or scenarios[0].scenario_id
        chosen = next((sc for sc in scenarios if sc.scenario_id == wanted), None)
        if chosen is None:
            print(f"evsched: fig2 day {wanted!r} not found; using first scenario",
                  file=sys.stderr)
            chosen = scenarios[0]
        try:
            day_schedules = {
                "fcfs": fcfs_with_report(chosen).schedule,
                config.method.value: optimized_schedule(chosen, config),
            }
            day_scenario = chosen
        except (InfeasibleScenario, NumericalFailure) as exc:
            print(f"evsched: no fig2 profile for {chosen.scenario_id}: {exc}",
                  file=sys.stderr)

    write_comparison_csv(rows, out_dir / "comparison.csv")
    write_summary_csv(summary, out_dir / "summary.csv")
    write_summary_json(summary, rows, out_dir / "summary.json", run_meta)
    emit_plot_data(rows, day_scenario, day_schedules, out_dir)
    _write_manifest(out_dir, command, _config_dict(args), inputs)

    failures = [r for r in rows if r.error]
    infeasible = [r for r in rows if r.infeasible]
    print(
        f"evsched: {len(rows)} scenarios compared "
        f"({len(infeasible)} infeasible, {len(failures)} solver failures); "
        f"reports in {out_dir}"
    )
    if failures:
        return EXIT_SOLVER
    if infeasible and len(infeasible) == len(rows):
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    files = _collect_scenario_files(args.scenarios)
    if not files:
        print("evsched: no scenario files found", file=sys.stderr)
        return EXIT_INGEST
    try:
        scenarios = [load_scenario(f) for f in files]
    except (OSError, ValueError, KeyError) as exc:
        print(f"evsched: cannot read scenarios: {exc}", file=sys.stderr)
        return EXIT_INGEST
    inputs = {str(f): f for f in files}
    return _run_reports(scenarios, args, inputs, "compare",
                        {"scenario_files": len(files)})


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.synthetic is not None:
        try:
            scenarios = random_batch(
                args.seed,
                args.synthetic,
                horizon_steps=args.horizon,
                step_hours=args.step_hours,
                socket_limit=args.socket_limit,
                waste=args.waste,
                max_vehicles=args.max_vehicles,
                capacity=args.capacity,
            )
        except ValueError as exc:
            print(f"evsched: usage error: --capacity: {exc}", file=sys.stderr)
            return EXIT_USAGE
        return _run_reports(scenarios, args, {}, "simulate",
                            {"synthetic_days": args.synthetic, "seed": args.seed})
    try:
        result = _load_inputs(args)
    except (MalformedRow, MissingColumn, OSError, ValueError) as exc:
        print(f"evsched: ingest error: {exc}", file=sys.stderr)
        return EXIT_INGEST
    _report_build(result)
    run_meta = {
        "days_built": len(result.scenarios),
        "days_skipped": len(result.skipped_days),
        "sessions_dropped": len(result.dropped_sessions),
    }
    inputs = {"sessions": args.sessions, "prices": args.prices}
    return _run_reports(result.scenarios, args, inputs, "simulate", run_meta)


def run(args: argparse.Namespace) -> int:
    handlers = {
        "ingest": cmd_ingest,
        "solve": cmd_solve,
        "compare": cmd_compare,
        "simulate": cmd_simulate,
    }
    return handlers[args.command](args)


def main(argv: list[str] | None = None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
