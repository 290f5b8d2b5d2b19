"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench

They run `run.py` in fresh processes, as the benchmark is run, so they take
a few minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
sys.path[:0] = [str(HERE), str(CHECKOUT / "src")]

from spans import EXACT_COUNTS, PER_LAYER  # noqa: E402
from workloads import NAMES  # noqa: E402

HELD_OUT_SEED = 20241017


def run(workload: str, seed: int, trace: int, cwd: Path = CHECKOUT, seconds: int = 1):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spec() -> dict:
    return json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_spec_lists_every_metric():
    doc = spec()
    assert [w["name"] for w in doc["workloads"]] == list(NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in PER_LAYER
    ]


@pytest.mark.parametrize("workload", NAMES)
def test_counts_repeat_exactly(workload):
    first = result(run(workload, 1, trace=1))["metrics"]
    second = result(run(workload, 1, trace=1))["metrics"]
    assert {k: first[k]["value"] for k in EXACT_COUNTS} == {
        k: second[k]["value"] for k in EXACT_COUNTS
    }


@pytest.mark.parametrize("workload", NAMES)
def test_held_out_seed_passes_the_gate(workload):
    out = result(run(workload, HELD_OUT_SEED, trace=0))
    assert out["correct"]
    assert out["attempted"] >= 1
    assert sorted(out["metrics"]) == sorted(m["name"] for m in spec()["end_to_end"])
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = run(NAMES[0], 1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
