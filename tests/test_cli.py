"""CLI tests: argument parsing, exit codes, end-to-end runs, manifests."""

import hashlib
import json

import numpy as np
import pytest

import evsched.solver.socp
from evsched import cli
from evsched.cli import (
    EXIT_INFEASIBLE,
    EXIT_INGEST,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_USAGE,
    main,
    parse_args,
)
from evsched.ingest import save_scenario, scenario_to_dict
from evsched.nominal import check_feasibility
from evsched.synth import random_scenario, write_synthetic_corpus

from conftest import make_scenario, run_on_one_blas_thread

pytestmark = pytest.mark.usefixtures("certified_solves")

SESSIONS = (
    "session_id,arrival,departure,energy_kwh\n"
    "s1,2018-04-25T08:15:00,2018-04-25T11:40:00,12.5\n"
    "s2,2018-04-25T09:00:00,2018-04-25T18:00:00,30.0\n"
    "s3,2018-04-26T10:30:00,2018-04-26T16:00:00,18.0\n"
)

# `evsched` in a child process; a nonzero exit fails run_on_one_blas_thread
CLI_MAIN = "import sys; from evsched.cli import main; sys.exit(main(sys.argv[1:]))"


def write_inputs(tmp_path, sessions=SESSIONS):
    sessions_path = tmp_path / "sessions.csv"
    prices_path = tmp_path / "prices.csv"
    sessions_path.write_text(sessions, encoding="utf-8")
    lines = ["date,hour,price"]
    for day in ("2018-04-25", "2018-04-26"):
        for hour in range(24):
            lines.append(f"{day},{hour},{40.0 + 20.0 * ((hour - 12) ** 2) / 144:.2f}")
    prices_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return sessions_path, prices_path


class TestParseArgs:
    def test_simulate_defaults_match_station_parameters(self, tmp_path):
        s, p = write_inputs(tmp_path)
        args = parse_args(
            ["simulate", "--sessions", str(s), "--prices", str(p),
             "--out", str(tmp_path / "r")]
        )
        assert args.command == "simulate"
        assert args.horizon == 24
        assert args.step_hours == 1.0
        assert args.capacity == 300.0
        assert args.socket_limit == 7.0
        assert args.waste == 0.01
        assert args.method == "nominal"

    def test_solve_with_radius(self, tmp_path):
        args = parse_args(
            ["solve", "--scenario", "day.json", "--method", "robust-price",
             "--radius", "0.5"]
        )
        assert args.command == "solve"
        assert args.method == "robust-price"
        assert args.radius == 0.5

    def test_missing_required_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            parse_args(["simulate", "--out", "x"])
        assert err.value.code == 2

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as err:
            parse_args(["solve", "--scenario", "d.json", "--frobnicate"])
        assert err.value.code == 2

    def test_synthetic_excludes_files(self, tmp_path):
        with pytest.raises(SystemExit):
            parse_args(["simulate", "--synthetic", "5", "--sessions", "s.csv",
                        "--prices", "p.csv", "--out", "x"])

    def test_out_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EVSCHED_OUT", str(tmp_path / "envout"))
        args = parse_args(["simulate", "--synthetic", "2"])
        assert str(args.out).endswith("envout")

    def test_parser_built_once_per_out_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv("EVSCHED_OUT", raising=False)
        cli._parser.cache_clear()
        argv = ["solve", "--scenario", "d.json", "--method", "robust-price", "--radius", "0.5"]
        assert parse_args(argv) == parse_args(argv)
        assert parse_args(argv).out is None
        assert cli._parser.cache_info().misses == 1
        # a new $EVSCHED_OUT is a new default, so it gets its own parser
        monkeypatch.setenv("EVSCHED_OUT", str(tmp_path / "envout"))
        assert parse_args(argv).out == tmp_path / "envout"
        assert cli._parser.cache_info().misses == 2
        monkeypatch.delenv("EVSCHED_OUT")
        assert parse_args(argv).out is None
        with pytest.raises(SystemExit) as err:
            parse_args(["simulate", "--synthetic", "2"])
        assert err.value.code == 2
        assert cli._parser.cache_info().misses == 2

    @pytest.mark.parametrize("flags", [
        ["--method", "robust-price", "--radius", "-1"],
        ["--method", "robust-price", "--radius", "nan"],
        ["--method", "robust-price", "--radius", "inf"],
        ["--method", "robust-price", "--radius", "x"],
        ["--method", "robust-load", "--load-scale", "0.5"],
        ["--method", "robust-load", "--load-scale", "nan"],
        ["--method", "robust-load", "--load-scale", "inf"],
    ])
    def test_bad_robust_values_are_usage_errors(self, tmp_path, capsys, flags):
        path = tmp_path / "day.json"
        save_scenario(make_scenario([(1, 2)], [5.0], [1.0, 2.0]), path)
        with pytest.raises(SystemExit) as err:
            main(["solve", "--scenario", str(path), *flags])
        assert err.value.code == 2
        assert "usage:" in capsys.readouterr().err
        with pytest.raises(SystemExit) as err:
            parse_args(["compare", "--scenarios", str(path), "--out", "x", *flags])
        assert err.value.code == 2

    @pytest.mark.parametrize("filters", ["x", "1,ten", "1.5"])
    def test_non_integer_filters_are_usage_errors(self, tmp_path, capsys, filters):
        with pytest.raises(SystemExit) as err:
            main(["compare", "--scenarios", str(tmp_path), "--out", str(tmp_path / "r"),
                  "--filters", filters])
        assert err.value.code == 2
        assert "--filters" in capsys.readouterr().err

    def test_boundary_robust_values_accepted(self):
        args = parse_args(["solve", "--scenario", "d.json", "--radius", "0",
                           "--load-scale", "1"])
        assert (args.radius, args.load_scale) == (0.0, 1.0)
        assert parse_args(["compare", "--scenarios", "d", "--out", "x",
                           "--filters", " 1, 5,"]).filters == " 1, 5,"


    @pytest.mark.parametrize("flags", [
        ["--horizon", "0"],
        ["--max-vehicles", "0"],
        ["--synthetic", "0"],
        ["--seed", "-1"],
        ["--capacity", "-5"],
        ["--capacity", "inf"],
        ["--socket-limit", "nan"],
        ["--step-hours", "nan"],
        ["--step-hours", "0"],
        ["--waste", "nan"],
        ["--waste", "-0.1"],
    ])
    def test_bad_station_values_are_usage_errors(self, tmp_path, capsys, flags):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--synthetic", "3", *flags, "--out", str(tmp_path / "r")])
        assert err.value.code == EXIT_USAGE
        assert flags[0] in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_bad_worker_counts_are_usage_errors(self, tmp_path, capsys, workers):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--synthetic", "3", "--workers", workers,
                  "--out", str(tmp_path / "r")])
        assert err.value.code == EXIT_USAGE
        assert "--workers" in capsys.readouterr().err

    def test_station_without_capacity_is_a_usage_error(self, tmp_path, capsys):
        code = main(["simulate", "--synthetic", "3", "--capacity", "0",
                     "--out", str(tmp_path / "r")])
        assert code == EXIT_USAGE
        assert "--capacity" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "ingest"])
    def test_bad_station_values_on_the_file_path(self, tmp_path, capsys, command):
        s, p = write_inputs(tmp_path)
        with pytest.raises(SystemExit) as err:
            main([command, "--sessions", str(s), "--prices", str(p),
                  "--step-hours", "inf", "--out", str(tmp_path / "r")])
        assert err.value.code == EXIT_USAGE
        assert "--step-hours" in capsys.readouterr().err

    def test_zero_waste_accepted_on_both_paths(self, tmp_path):
        s, p = write_inputs(tmp_path)
        assert main(["simulate", "--sessions", str(s), "--prices", str(p),
                     "--waste", "0", "--out", str(tmp_path / "files")]) == EXIT_OK
        assert main(["simulate", "--synthetic", "2", "--waste", "0",
                     "--out", str(tmp_path / "synthetic")]) == EXIT_OK


class TestIngestCommand:
    def test_writes_scenarios_and_manifest(self, tmp_path, capsys):
        s, p = write_inputs(tmp_path)
        out = tmp_path / "out"
        code = main(["ingest", "--sessions", str(s), "--prices", str(p),
                     "--out", str(out)])
        assert code == EXIT_OK
        files = sorted((out / "scenarios").glob("*.json"))
        assert [f.stem for f in files] == ["2018-04-25", "2018-04-26"]
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["scenarios"] == ["2018-04-25", "2018-04-26"]
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["command"] == "ingest"
        assert set(manifest["inputs"]) == {"sessions", "prices"}

    def test_malformed_sessions_exit_code(self, tmp_path, capsys):
        bad = SESSIONS + "s4,2018-04-27T12:00:00,2018-04-27T09:00:00,4\n"
        s, p = write_inputs(tmp_path, sessions=bad)
        code = main(["ingest", "--sessions", str(s), "--prices", str(p),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_INGEST
        err = capsys.readouterr().err
        assert "line 5" in err

    @pytest.mark.parametrize("command", ["ingest", "simulate"])
    @pytest.mark.parametrize("row", [
        "s4,2018-04-25T10:00:00+02:00,2018-04-25T12:00:00,5",
        "s4,2018-04-25T10:00:00+02:00,2018-04-25T12:00:00+02:00,5",
    ], ids=["in-one-row", "across-rows"])
    def test_mixed_utc_offsets_exit_code(self, tmp_path, capsys, command, row):
        # a timestamp with a UTC offset cannot be ordered against one
        # without, in its own row or against another row of the same day
        s, p = write_inputs(tmp_path, sessions=SESSIONS + row + "\n")
        code = main([command, "--sessions", str(s), "--prices", str(p),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_INGEST
        assert "line 5" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ingest", "simulate"])
    @pytest.mark.parametrize("bad_file", ["sessions", "prices"])
    def test_non_finite_inputs_exit_code(self, tmp_path, capsys, command, bad_file):
        s, p = write_inputs(tmp_path)
        if bad_file == "sessions":
            s.write_text(SESSIONS.replace("12.5", "nan"), encoding="utf-8")
        else:
            lines = p.read_text(encoding="utf-8").splitlines()
            lines[4] = "2018-04-25,3,inf"
            p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main([command, "--sessions", str(s), "--prices", str(p),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_INGEST
        assert "non-finite" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path):
        code = main(["ingest", "--sessions", str(tmp_path / "nope.csv"),
                     "--prices", str(tmp_path / "nope2.csv"),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_INGEST


class TestSolveCommand:
    def test_nominal_solve(self, tmp_path, capsys):
        rng = np.random.default_rng(61)
        sc = random_scenario(rng, horizon_steps=6, max_vehicles=4,
                             scenario_id="demo")
        path = tmp_path / "demo.json"
        save_scenario(sc, path)
        out = tmp_path / "out"
        code = main(["solve", "--scenario", str(path), "--out", str(out)])
        assert code == EXIT_OK
        assert "demo nominal: cost" in capsys.readouterr().out
        doc = json.loads((out / "schedule_demo_nominal.json").read_text())
        assert doc["method"] == "nominal"
        assert len(doc["allocation"]) == 6

    def test_fcfs_and_robust_methods(self, tmp_path, capsys):
        rng = np.random.default_rng(62)
        sc = random_scenario(rng, horizon_steps=5, max_vehicles=3,
                             scenario_id="day")
        path = tmp_path / "day.json"
        save_scenario(sc, path)
        assert main(["solve", "--scenario", str(path), "--method", "fcfs"]) == EXIT_OK
        assert main(["solve", "--scenario", str(path), "--method", "robust-price",
                     "--radius", "0.2"]) == EXIT_OK
        assert main(["solve", "--scenario", str(path), "--method", "robust-load",
                     "--load-scale", "1.1"]) == EXIT_OK

    def test_robust_solve_reports_master_pivots(self, tmp_path, capsys, monkeypatch):
        rng = np.random.default_rng(62)
        sc = random_scenario(rng, horizon_steps=5, max_vehicles=3,
                             scenario_id="day")
        path = tmp_path / "day.json"
        save_scenario(sc, path)
        argv = ["solve", "--scenario", str(path), "--method", "robust-price",
                "--radius", "0.2", "--out"]
        assert main([*argv, str(tmp_path / "polished")]) == EXIT_OK
        doc = json.loads((tmp_path / "polished" / "schedule_day_robust-price.json").read_text())
        assert (doc["cuts"], doc["polished"]) == (0, True)
        assert capsys.readouterr().out.endswith(", polished\n")
        # the cuts alone, with the polish declined
        monkeypatch.setattr(evsched.solver.socp, "_polish", lambda *args: None)
        assert main([*argv, str(tmp_path / "cuts")]) == EXIT_OK
        doc = json.loads((tmp_path / "cuts" / "schedule_day_robust-price.json").read_text())
        assert doc["master_pivots"] >= doc["cuts"] > 0
        assert doc["polished"] is False
        printed = capsys.readouterr().out
        assert f"{doc['cuts']} cuts, {doc['master_pivots']} master pivots" in printed
        assert printed.endswith(", not polished\n")

    def test_overflowing_objective_exit_code(self, tmp_path, capsys):
        path = tmp_path / "day.json"
        save_scenario(random_scenario(np.random.default_rng(3), horizon_steps=6,
                                      num_vehicles=2), path)
        out = tmp_path / "out"
        code = main(["solve", "--scenario", str(path), "--method", "robust-price",
                     "--radius", "1e308", "--out", str(out)])
        assert code == EXIT_SOLVER
        assert "objective inf" in capsys.readouterr().err
        assert not out.exists()

    def test_infeasible_exit_code(self, tmp_path, capsys):
        sc = make_scenario([(1, 1)], [15.0], [1.0], socket=7.0,
                           scenario_id="bad")
        path = tmp_path / "bad.json"
        save_scenario(sc, path)
        code = main(["solve", "--scenario", str(path)])
        assert code == EXIT_INFEASIBLE
        assert "feasibility report" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["nominal", "robust-price"])
    def test_aggregate_shortage_reports_max_flow(self, tmp_path, capsys, method):
        # each vehicle fits its window; phase one finds the shared budget
        # short and the max-flow report explains it
        sc = make_scenario([(1, 1), (1, 1)], [5.0, 5.0], [1.0], socket=7.0,
                           capacity=8.0, scenario_id="short")
        path = tmp_path / "short.json"
        save_scenario(sc, path)
        code = main(["solve", "--scenario", str(path), "--method", method,
                     "--radius", "0.5", "--out", str(tmp_path / "out")])
        assert code == EXIT_INFEASIBLE
        assert f"feasibility report: {check_feasibility(sc)}" in capsys.readouterr().err

    def test_non_finite_scenario_exit_code(self, tmp_path):
        sc = make_scenario([(1, 2)], [5.0], [1.0, 2.0], scenario_id="nan")
        doc = scenario_to_dict(sc)
        doc["prices"][0] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["solve", "--scenario", str(path)]) == EXIT_INGEST

    def test_unreadable_scenario(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{}", encoding="utf-8")
        assert main(["solve", "--scenario", str(path)]) == EXIT_INGEST


def malformed_scenario(tmp_path, case):
    """A scenario file that is not an object, or whose windows have the wrong type."""
    doc = scenario_to_dict(make_scenario([(1, 2), (2, 2)], [5.0, 1.0], [1.0, 2.0]))
    if case == "not-an-object":
        doc = [1, 2]
    else:
        doc["windows"] = 5 if case == "windows-number" else ["ab", None]
    path = tmp_path / "scenarios" / "bad.json"
    path.parent.mkdir()
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


MALFORMED = ["not-an-object", "windows-number", "windows-strings"]


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_scenario_solve_exit_code(tmp_path, capsys, case):
    path = malformed_scenario(tmp_path, case)
    assert main(["solve", "--scenario", str(path)]) == EXIT_INGEST
    assert "cannot read scenario" in capsys.readouterr().err


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_scenario_compare_exit_code(tmp_path, capsys, case):
    path = malformed_scenario(tmp_path, case)
    code = main(["compare", "--scenarios", str(path.parent), "--out", str(tmp_path / "r")])
    assert code == EXIT_INGEST
    assert "cannot read scenarios" in capsys.readouterr().err


class TestCompareCommand:
    def test_directory_of_scenarios(self, tmp_path):
        rng = np.random.default_rng(63)
        scen_dir = tmp_path / "scenarios"
        scen_dir.mkdir()
        for k in range(4):
            sc = random_scenario(rng, horizon_steps=5, max_vehicles=4,
                                 scenario_id=f"day-{k}")
            save_scenario(sc, scen_dir / f"day-{k}.json")
        out = tmp_path / "reports"
        code = main(["compare", "--scenarios", str(scen_dir), "--out", str(out)])
        assert code == EXIT_OK
        for name in ("comparison.csv", "summary.csv", "summary.json",
                     "fig2_day.csv", "fig3_scatter.csv", "fig4_cumulative.csv",
                     "run_manifest.json"):
            assert (out / name).exists(), name

    def test_manifest_keeps_inputs_that_share_a_name(self, tmp_path):
        rng = np.random.default_rng(63)
        paths = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            sc = random_scenario(rng, horizon_steps=5, max_vehicles=4, scenario_id=sub)
            paths.append(tmp_path / sub / "day.json")
            save_scenario(sc, paths[-1])
        out = tmp_path / "reports"
        code = main(["compare", "--scenarios", *map(str, paths), "--out", str(out)])
        assert code == EXIT_OK
        inputs = json.loads((out / "run_manifest.json").read_text())["inputs"]
        assert sorted(doc["path"] for doc in inputs.values()) == sorted(map(str, paths))

    def test_no_scenarios_found(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        code = main(["compare", "--scenarios", str(empty),
                     "--out", str(tmp_path / "r")])
        assert code == EXIT_INGEST


@pytest.mark.parametrize("case, want", [
    ("capacity-0", EXIT_USAGE),
    ("simulate-bad-sessions", EXIT_INGEST),
    ("ingest-bad-sessions", EXIT_INGEST),
    ("compare-no-scenarios", EXIT_INGEST),
])
def test_failed_run_leaves_no_out_directory(tmp_path, capsys, case, want):
    # the reports' directory is made only once the inputs have been read
    s, p = write_inputs(tmp_path, sessions="session_id,arrival\ns1,2018-04-25T08:15:00\n")
    (tmp_path / "none").mkdir()
    argv = {
        "capacity-0": ["simulate", "--synthetic", "3", "--capacity", "0"],
        "simulate-bad-sessions": ["simulate", "--sessions", str(s), "--prices", str(p)],
        "ingest-bad-sessions": ["ingest", "--sessions", str(s), "--prices", str(p)],
        "compare-no-scenarios": ["compare", "--scenarios", str(tmp_path / "none")],
    }[case]
    out = tmp_path / "r"
    assert main([*argv, "--out", str(out)]) == want
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "compare", "simulate"])
def test_overflowing_load_scale_is_a_usage_error(tmp_path, capsys, command):
    # load * --load-scale is the worst-case load; where it overflows no
    # Scenario holds it, so the run stops before any report is written
    path = tmp_path / "day.json"
    save_scenario(random_scenario(np.random.default_rng(3), horizon_steps=6,
                                  num_vehicles=2, scenario_id="day-3"), path)
    argv, day = {
        "solve": (["solve", "--scenario", str(path)], "day-3"),
        "compare": (["compare", "--scenarios", str(path)], "day-3"),
        "simulate": (["simulate", "--synthetic", "2"], "synthetic-0000"),
    }[command]
    out = tmp_path / "r"
    code = main([*argv, "--method", "robust-load", "--load-scale", "1e308",
                 "--out", str(out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--load-scale" in err and f"day {day}" in err
    assert not out.exists()


class TestSimulateCommand:
    def test_synthetic_pipeline(self, tmp_path):
        out = tmp_path / "reports"
        code = main(["simulate", "--synthetic", "5", "--seed", "3",
                     "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads((out / "summary.json").read_text())
        assert doc["scenarios_total"] == 5

    def test_file_pipeline_and_reproducibility(self, tmp_path):
        s, p = write_inputs(tmp_path)
        blobs = {}
        for tag in ("one", "two"):
            out = tmp_path / tag
            code = main(["simulate", "--sessions", str(s), "--prices", str(p),
                         "--price-unit", "per-mwh", "--out", str(out)])
            assert code == EXIT_OK
            blobs[tag] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        assert blobs["one"] == blobs["two"]

    # sha256 of the report files of one small synthetic run per method.  The
    # reports hold costs and allocations to full float precision, so the
    # digests depend on the BLAS build and, like the pinned pivot counts,
    # are taken with BLAS on one thread; a change here means the reports
    # are no longer byte-identical.
    REPORT_DIGESTS = {
        "nominal": {
            "comparison.csv": "f940dd121fc97ecc3dd1ab6154f67d604eca84c23bfc453755d16d27ef9f82f0",
            "summary.csv": "432c377b37dae8a51fbf728f851a7246b5d800190d22a8fb44ec3d8a95b940b6",
            "fig2_day.csv": "b814ec77f51b997e1453dbeabf60f177fc52f4c38aac619d036a492d6e15a761",
            "fig3_scatter.csv": "caaca3e204aaeab6593062d360734a138608c7a9b81c439c25273d442c466fde",
            "fig4_cumulative.csv": "e81d9ced36266d3191b8377ea3ec3c52e43f92a0a7a6bcca96e25c16f90a1079",
        },
        "robust-price": {
            "comparison.csv": "f87405fe2d85d3b9ca75638992101d74ff40a461dc27760302afaa30e30f82bd",
            "summary.csv": "8bc789495de82b2f8ae2d04cd1da08b4ca4ad23f1f866033fc33461f78c7bf68",
            "fig2_day.csv": "05118ea370c575adcaf7d724fd42015215041a794aad58e5eb3bc2cf14bc465b",
            "fig3_scatter.csv": "e92ca3902b496cbf141c9e8d4fcea606d7bd97a8b1f19e0f2ff4fc756f48271b",
            "fig4_cumulative.csv": "cff53b3d004c49d6912184ddaadd5cedbeb16abbbb9fe07eeb3f9a6184b30ee1",
        },
        "robust-load": {
            "comparison.csv": "cabc8351aea42df0fa47df15c58963f6104977d0e771696e263077e0418bc48d",
            "summary.csv": "96b739874759610d9fa15009012cc4a3c8b0e87493ff2bfb55c5c893e26c998f",
            "fig2_day.csv": "31b045570ce99eefd220cb70e01c75cf3ceb063e3ad7c18c6d154c17837573a3",
            "fig3_scatter.csv": "907e84fbbde84b33da38c023b4321b7be88c704f7d554a91a36f61284451b7cd",
            "fig4_cumulative.csv": "32e2a954fdd136f533fd7fe53b673644ea1b68d9224e2e88fb2cd9e25f641340",
        },
    }

    @pytest.mark.parametrize("method, flags", [
        ("nominal", []),
        ("robust-price", ["--radius", "0.5"]),
        ("robust-load", ["--radius", "0.3", "--load-scale", "1.2"]),
    ])
    def test_report_bytes_pinned(self, tmp_path, method, flags):
        out = tmp_path / "r"
        run_on_one_blas_thread(CLI_MAIN, "simulate", "--synthetic", "12", "--seed", "3",
                               "--horizon", "6", "--max-vehicles", "4", "--method", method,
                               *flags, "--out", str(out))
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in self.REPORT_DIGESTS[method]}
        assert digests == self.REPORT_DIGESTS[method]
        assert sorted(p.name for p in out.glob("fig*_*.csv")) == sorted(
            name for name in digests if name.startswith("fig"))

    # sha256 of the reports of `simulate --sessions/--prices` on the 30-day
    # corpus of write_synthetic_corpus(days=30, seed=9), nominal: the ingest
    # path, which the synthetic runs above skip.  At the default 300 kW no
    # budget binds; at 30 kW FCFS falls short on 9 days and the simplex
    # pivots on 22.  Taken with BLAS on one thread, like the digests above.
    CSV_DIGESTS = {
        "300": {
            "comparison.csv": "31eecc49e1fb72b58fb1131be0dbf9007985523dcabc668dc521062883b4e9fe",
            "summary.csv": "aba177f68b0cbf9df1a2ddf91b9b31a1392be3854779907d06dfac3ca6c99768",
            "fig2_day.csv": "7850395c0c15b05f74482c095fcb2c0b99fcad3c0b0abd96300593deee72caf0",
            "fig3_scatter.csv": "1785b32e6815fde6ad6e2af5036cf2ef10d81c78ba8fa9fbca5e1e150704cfcb",
            "fig4_cumulative.csv": "681d1132b99f1aadc23b2581516b23ff7531369df6257e366382c8e6d561d731",
        },
        "30": {
            "comparison.csv": "dcb1cb435fc936348093f45a4bced4de21f0ce4d680740a2180fe04b3d61c2a1",
            "summary.csv": "2ec1e53626e8094c70ac8a2273cb39060abd063eb1ba2d5b8ea0bdff03c9c315",
            "fig2_day.csv": "9737fd61651f67d3554ccbf42b62fb497b95dbbdf20637cddfd3a1bd1dea98b2",
            "fig3_scatter.csv": "f2829f4cef21e36aca2c216634e936766bd6f77d88eaa40135ff138b6810fe76",
            "fig4_cumulative.csv": "fa45b75e48376336f7769fb9947a380969b4c8177d66d1e0d6b8daa5b93b9756",
        },
    }

    @pytest.mark.parametrize("capacity", ["300", "30"])
    def test_csv_report_bytes_pinned(self, tmp_path, capacity):
        sessions, prices = tmp_path / "s.csv", tmp_path / "p.csv"
        write_synthetic_corpus(sessions, prices, days=30, seed=9)
        out = tmp_path / "r"
        run_on_one_blas_thread(CLI_MAIN, "simulate", "--sessions", str(sessions),
                               "--prices", str(prices), "--capacity", capacity,
                               "--out", str(out))
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in self.CSV_DIGESTS[capacity]}
        assert digests == self.CSV_DIGESTS[capacity]
        rows = (out / "comparison.csv").read_text().splitlines()[1:]
        short = sum(row.split(",")[6] == "1" for row in rows)
        assert (len(rows), short) == (30, 0 if capacity == "300" else 9)

    def test_corpus_round_trip(self, tmp_path):
        sessions = tmp_path / "s.csv"
        prices = tmp_path / "p.csv"
        write_synthetic_corpus(sessions, prices, days=6, seed=9)
        out = tmp_path / "r"
        code = main(["simulate", "--sessions", str(sessions),
                     "--prices", str(prices), "--out", str(out),
                     "--workers", "2"])
        assert code == EXIT_OK
        doc = json.loads((out / "summary.json").read_text())
        assert doc["scenarios_total"] == 6
        assert doc["scenarios_included"] >= 1
