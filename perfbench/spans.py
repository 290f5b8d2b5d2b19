"""Spans around evsched's public functions, recorded from outside the package.

Each function is replaced where its caller looks the name up (for example
`evsched.nominal.max_flow_value`, not `evsched.solver.flow.max_flow_value`),
so the program under test is not edited.  Spans stay in memory until the
run ends; a span's self time is its duration minus the time its child
spans cover.  A wrapped name that no longer exists is reported as absent
instead of failing, so the trace survives refactors of the package.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path

# A final-master cut row whose dual exceeds this is counted as active.
ACTIVE_DUAL_TOL = 1e-9


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    workload: str
    request: str
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.request = ""
        self.spans: list[Span | None] = []
        self.values: dict[int, dict] = {}  # span index -> counts read on return
        self.installed: set[str] = set()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, span: str, on_return=None,
             request_from_arg: bool = False):
        """Replace `owner.attr` (owner: a module path or an object) with a
        wrapper that records a span named `span`.  `on_return(args, result)`
        returns a dict of counts kept for that span; `request_from_arg`
        takes the request id from the first argument's scenario id."""
        if isinstance(owner, str):
            try:
                owner = importlib.import_module(owner)
            except ImportError:
                self.absent.append(f"{owner}.{attr}")
                return
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            outer_request = tracer.request
            if request_from_arg:
                tracer.request = getattr(args[0], "scenario_id", outer_request)
            tracer.spans.append(None)
            tracer._stack.append(index)
            error = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = Span(span, start, end, parent, tracer.workload,
                                           tracer.request, error)
                tracer.request = outer_request
            if on_return is not None:
                tracer.values[index] = on_return(args, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))
        self.installed.add(span)

    def unwrap(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def indices(self, name: str) -> list[int]:
        return [k for k, s in enumerate(self.spans) if s.name == name]

    def self_times(self) -> list[float]:
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def write(self, path: Path, meta: dict):
        counts = {str(k): {key: v for key, v in c.items() if key != "duals"}
                  for k, c in self.values.items()}
        doc = {
            "workload": self.workload,
            "machine": meta,
            "absent": self.absent,
            "spans": [asdict(s) for s in self.spans],
            "counts": counts,
        }
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def _sessions(args, result):
    return {"sessions": len(result)}


def _arcs(args, result):
    return {"arcs": len(args[0].arcs)}


def _lp(args, result):
    lp = args[0]
    return {
        "rows": lp.G.shape[0] + lp.E.shape[0],
        "pivots": getattr(result, "iterations", 0),
        "duals": getattr(result, "dual_ineq", None),
    }


def _socp(args, result):
    status = getattr(result.status, "value", str(result.status))
    return {"cuts": result.cuts, "cut_limit": status == "cut-limit"}


def _report_bytes(args, result):
    if isinstance(result, dict):
        paths = list(result.values())
    else:
        paths = [a for a in args if isinstance(a, (str, os.PathLike))]
    return {"bytes": sum(os.path.getsize(p) for p in paths)}


def install(tracer: Tracer):
    """Wrap every layer boundary that the three workloads cross."""
    import evsched.model

    w = tracer.wrap
    w("evsched.cli", "main", "cli.main")
    w("evsched.cli", "parse_sessions", "ingest.parse", on_return=_sessions)
    w("evsched.cli", "parse_prices", "ingest.parse")
    w("evsched.cli", "build_scenarios", "ingest.build")
    w("evsched.cli", "load_scenario", "ingest.load")
    w(evsched.model.Scenario, "__post_init__", "model.scenario")
    for caller in ("evsched.cli", "evsched.sim", "evsched.nominal", "evsched.robust"):
        w(caller, "evaluate_cost", "model.cost")
    for caller in ("evsched.cli", "evsched.sim"):
        w(caller, "fcfs_with_report", "baseline.fcfs")
        w(caller, "optimize_nominal", "nominal.optimize")
        w(caller, "optimize_robust_price", "robust.optimize")
        w(caller, "optimized_schedule", "sim.compare")
    for caller in ("evsched.nominal", "evsched.robust"):
        w(caller, "check_feasibility", "nominal.feasibility")
        w(caller, "scheduling_lp", "nominal.lp_build")
        w(caller, "schedule_from_x", "nominal.extract")
    w("evsched.nominal", "max_flow_value", "solver.flow.maxflow", on_return=_arcs)
    for caller in ("evsched.nominal", "evsched.solver.socp"):
        w(caller, "solve_lp", "solver.lp.solve", on_return=_lp)
    w("evsched.robust", "solve_norm_augmented", "solver.socp.loop", on_return=_socp)
    w("evsched.cli", "run_comparison", "sim.compare")
    w("evsched.cli", "aggregate", "sim.compare")
    w("evsched.sim", "compare_scenario", "sim.compare", request_from_arg=True)
    for writer in ("write_comparison_csv", "write_summary_csv", "write_summary_json",
                   "emit_plot_data"):
        w("evsched.cli", writer, "sim.report", on_return=_report_bytes)


# name, unit, better, the span it is read from
PER_LAYER = [
    ("solver.flow.maxflow_s", "s", "lower", "solver.flow.maxflow"),
    ("solver.flow.maxflow_calls", "count", "lower", "solver.flow.maxflow"),
    ("solver.flow.arcs", "count", "lower", "solver.flow.maxflow"),
    ("nominal.feasibility_self_s", "s", "lower", "nominal.feasibility"),
    ("solver.lp.simplex_s", "s", "lower", "solver.lp.solve"),
    ("solver.lp.solves", "count", "lower", "solver.lp.solve"),
    ("solver.lp.pivots", "count", "lower", "solver.lp.solve"),
    ("solver.lp.us_per_pivot", "us", "lower", "solver.lp.solve"),
    ("solver.lp.rows_mean", "count", "lower", "solver.lp.solve"),
    ("solver.lp.numerical_failures", "count", "lower", "solver.lp.solve"),
    ("solver.socp.loop_self_s", "s", "lower", "solver.socp.loop"),
    ("solver.socp.cuts", "count", "lower", "solver.socp.loop"),
    ("solver.socp.master_solves", "count", "lower", "solver.socp.loop"),
    ("solver.socp.master_pivots", "count", "lower", "solver.socp.loop"),
    ("solver.socp.cut_limit_hits", "count", "lower", "solver.socp.loop"),
    ("solver.socp.active_cut_frac", "ratio", "higher", "solver.socp.loop"),
    ("robust.self_s", "s", "lower", "robust.optimize"),
    ("nominal.lp_build_s", "s", "lower", "nominal.lp_build"),
    ("nominal.extract_s", "s", "lower", "nominal.extract"),
    ("nominal.solves", "count", "lower", "nominal.optimize"),
    ("model.scenario_s", "s", "lower", "model.scenario"),
    ("model.scenarios", "count", "lower", "model.scenario"),
    ("model.cost_s", "s", "lower", "model.cost"),
    ("ingest.parse_s", "s", "lower", "ingest.parse"),
    ("ingest.build_s", "s", "lower", "ingest.build"),
    ("ingest.sessions", "count", "lower", "ingest.parse"),
    ("ingest.load_s", "s", "lower", "ingest.load"),
    ("baseline.fcfs_s", "s", "lower", "baseline.fcfs"),
    ("baseline.fcfs_calls", "count", "lower", "baseline.fcfs"),
    ("sim.compare_self_s", "s", "lower", "sim.compare"),
    ("sim.report_s", "s", "lower", "sim.report"),
    ("sim.report_bytes", "bytes", "lower", "sim.report"),
    ("cli.self_s", "s", "lower", "cli.main"),
    ("trace.overhead_s", "s", "lower", None),
]

# Counts that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = [name for name, unit, _, _ in PER_LAYER if unit in ("count", "bytes")]


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics from the recorded spans; `*_s` is self time."""
    own = tracer.self_times()

    def self_s(name):
        return sum(own[k] for k in tracer.indices(name))

    def total(name, key):
        return sum(tracer.values[k][key] for k in tracer.indices(name)
                   if k in tracer.values)

    lp_spans = tracer.indices("solver.lp.solve")
    socp_spans = set(tracer.indices("solver.socp.loop"))
    masters = [k for k in lp_spans if tracer.spans[k].parent in socp_spans]
    pivots = total("solver.lp.solve", "pivots")
    solved = [k for k in lp_spans if k in tracer.values]
    cuts = total("solver.socp.loop", "cuts")

    active = 0
    for k in socp_spans:
        if k not in tracer.values:
            continue
        last = max((m for m in masters if tracer.spans[m].parent == k), default=None)
        duals = tracer.values.get(last, {}).get("duals")
        n_cuts = tracer.values[k]["cuts"]
        if duals is not None and n_cuts:
            active += int((duals[-n_cuts:] > ACTIVE_DUAL_TOL).sum())

    simplex_s = self_s("solver.lp.solve")
    out = {
        "solver.flow.maxflow_s": self_s("solver.flow.maxflow"),
        "solver.flow.maxflow_calls": len(tracer.indices("solver.flow.maxflow")),
        "solver.flow.arcs": total("solver.flow.maxflow", "arcs"),
        "nominal.feasibility_self_s": self_s("nominal.feasibility"),
        "solver.lp.simplex_s": simplex_s,
        "solver.lp.solves": len(lp_spans),
        "solver.lp.pivots": pivots,
        "solver.lp.us_per_pivot": 1e6 * simplex_s / pivots if pivots else 0.0,
        "solver.lp.rows_mean": (total("solver.lp.solve", "rows") / len(solved)
                                if solved else 0.0),
        "solver.lp.numerical_failures": sum(
            tracer.spans[k].error == "NumericalFailure" for k in lp_spans),
        "solver.socp.loop_self_s": self_s("solver.socp.loop"),
        "solver.socp.cuts": cuts,
        "solver.socp.master_solves": len(masters),
        "solver.socp.master_pivots": sum(tracer.values[k]["pivots"] for k in masters
                                         if k in tracer.values),
        "solver.socp.cut_limit_hits": total("solver.socp.loop", "cut_limit"),
        "solver.socp.active_cut_frac": active / cuts if cuts else 0.0,
        "robust.self_s": self_s("robust.optimize"),
        "nominal.lp_build_s": self_s("nominal.lp_build"),
        "nominal.extract_s": self_s("nominal.extract"),
        "nominal.solves": len(tracer.indices("nominal.optimize")),
        "model.scenario_s": self_s("model.scenario"),
        "model.scenarios": len(tracer.indices("model.scenario")),
        "model.cost_s": self_s("model.cost"),
        "ingest.parse_s": self_s("ingest.parse"),
        "ingest.build_s": self_s("ingest.build"),
        "ingest.sessions": total("ingest.parse", "sessions"),
        "ingest.load_s": self_s("ingest.load"),
        "baseline.fcfs_s": self_s("baseline.fcfs"),
        "baseline.fcfs_calls": len(tracer.indices("baseline.fcfs")),
        "sim.compare_self_s": self_s("sim.compare"),
        "sim.report_s": self_s("sim.report"),
        "sim.report_bytes": total("sim.report", "bytes"),
        "cli.self_s": self_s("cli.main"),
        "trace.overhead_s": overhead_s,
    }
    return {k: float(v) for k, v in out.items()}


def absent_metrics(tracer: Tracer) -> list[str]:
    """Metrics whose source span could not be installed at all."""
    return [name for name, _, _, span in PER_LAYER
            if span is not None and span not in tracer.installed]
