"""evsched benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload corpus-365 --seed 1 --seconds 45 --trace 0

Runs `evsched.cli.main` in-process on inputs generated from `--seed`.  With
`--trace 0` it repeats the workload's CLI call in a closed loop for
`--seconds` and reports the end-to-end metrics; with `--trace 1` it makes a
fixed list of calls once untraced and once with spans around every layer,
and reports the per-layer metrics.  Outputs are checked after the timed
region.  Human-readable lines start with `#`; the last line of standard
output is the JSON result.  See README.md in this directory.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads: with two threads on a
# two-CPU machine the first N=100 solve of a process took ten times longer.
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PINNED:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
WORK = HERE / "work"
SETUP_REPEATS = 3
TAIL_BEYOND = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import evsched from this checkout's src/."""
    sys.path.insert(0, str(SRC))
    import evsched.cli

    if not Path(evsched.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"evsched was imported from {evsched.cli.__file__}, not {SRC}")


def import_seconds() -> float:
    """Median time to import evsched.cli in a fresh interpreter, over the
    set-up repeats (one in-process import is a single, noisy sample)."""
    probe = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
             "t = time.perf_counter(); import evsched.cli; "
             "print(time.perf_counter() - t)")
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", probe, str(SRC)], check=True,
                             capture_output=True, text=True, timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


def call(argv: list[str]) -> tuple[int | None, str | None]:
    """One `evsched` invocation; its report line goes to a buffer."""
    import evsched.cli

    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return evsched.cli.main(argv), None
        except Exception as exc:  # a crashing call is a failed operation
            return None, f"{type(exc).__name__}: {exc}"


def closed_loop(wl, first: int, count: int | None = None,
                seconds: float | None = None, tracer=None):
    """Calls first, first+1, ... until `count` calls or `seconds` have passed."""
    from workloads import Op

    ops = []
    k = first
    start = time.perf_counter()
    while True:
        argv = wl.argv(k)
        if tracer is not None:
            tracer.request = wl.request(k)
        t0 = time.perf_counter()
        code, error = call(argv)
        t1 = time.perf_counter()
        ops.append(Op(k, argv, code, t1 - t0, error))
        k += 1
        if count is not None and len(ops) >= count:
            break
        if seconds is not None and t1 - start >= seconds:
            break
    return ops, time.perf_counter() - start


def set_up(wl, seed: int) -> float:
    """Median over repeats of input generation plus one warm-up call."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl.prepare(seed)
        code, error = call(wl.warmup_argv())
        times.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"warm-up call exited {code}: {error}")
    return statistics.median(times)


def tail_latency(latencies: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it,
    100 * (1 - 10/n); the maximum when that would not be above the median."""
    import numpy as np

    q = 100.0 * (1.0 - TAIL_BEYOND / len(latencies))
    if q <= 50.0:
        return "max", max(latencies)
    return f"p{q:.2f}", float(np.percentile(latencies, q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit() -> str | None:
    git = CHECKOUT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as stream:
            cpu = next((line.split(":", 1)[1].strip() for line in stream
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in PINNED},
        "commit": git_commit(),
    }


def end_to_end(wl, seconds: float, setup_s: float):
    """Rate over the whole timed run and latency percentiles over every
    operation in it, so that the shared machine's speed changes during the
    run average out."""
    wl.start_capture()
    ops, wall = closed_loop(wl, 0, seconds=seconds)
    wl.stop_capture()
    rss = peak_rss_mb()  # before the gate imports scipy
    verdict = wl.check(ops)
    latencies = wl.latencies(ops)
    tail_name, tail = tail_latency(latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "days_per_s": (wl.scenarios_per_call * len(ops) / wall, "1/s"),
        "solve_p50_s": (statistics.median(latencies), "s"),
        "solve_tail_s": (tail, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    notes = [
        f"{len(ops)} calls, {verdict.attempted} scenarios in {wall:.3f} s",
        f"latency over n={len(latencies)} {wl.latency_unit}; tail is {tail_name}",
        f"fail_frac {verdict.failed / verdict.attempted:.6g} "
        f"({verdict.failed} failed / {verdict.attempted} attempted)",
    ]
    return verdict, metrics, notes


def per_layer(wl, seed: int):
    from spans import PER_LAYER, Tracer, absent_metrics, install, layer_metrics

    n = wl.trace_ops()
    wl.start_capture()
    untraced, wall_untraced = closed_loop(wl, 0, count=n)
    tracer = Tracer(wl.name)
    install(tracer)
    try:
        traced, wall_traced = closed_loop(wl, n, count=n, tracer=tracer)
    finally:
        tracer.unwrap()
        wl.stop_capture()
    verdict = wl.check(untraced + traced)
    values = layer_metrics(tracer, wall_traced - wall_untraced)
    units = {name: unit for name, unit, _, _ in PER_LAYER}
    metrics = {name: (values[name], units[name]) for name in units}
    absent = absent_metrics(tracer)
    WORK.mkdir(exist_ok=True)
    trace_path = WORK / f"trace-{wl.name}-seed{seed}.json"
    tracer.write(trace_path, machine())
    notes = [
        f"{n} calls untraced in {wall_untraced:.3f} s, traced in {wall_traced:.3f} s",
        f"spans written to {trace_path.relative_to(CHECKOUT)}",
        f"absent layers: {', '.join(absent) or 'none'}"
        + (f" (unwrapped names: {', '.join(tracer.absent)})" if tracer.absent else ""),
    ]
    return verdict, metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import evsched from {SRC}: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2

    root = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    try:
        wl = workloads.make(args.workload, root)
        import_s = import_seconds()
        setup_s = import_s + set_up(wl, args.seed)
        if args.trace:
            verdict, metrics, notes = per_layer(wl, args.seed)
        else:
            verdict, metrics, notes = end_to_end(wl, args.seconds, setup_s)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"# machine {json.dumps(machine(), sort_keys=True)}")
    print(f"# setup_s {setup_s:.6f} s (median import {import_s:.6f} s plus the "
          f"median of {SETUP_REPEATS} set-ups)")
    for line in notes:
        print(f"# {line}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value:.6g} {unit}")
    for line in verdict.notes[:20]:
        print(f"# failed: {line}")
    for line in verdict.problems[:20]:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    result = {
        "correct": not verdict.problems,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
