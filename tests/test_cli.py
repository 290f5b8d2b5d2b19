"""CLI tests: argument parsing, exit codes, end-to-end runs, manifests."""

import json

import numpy as np
import pytest

from evsched.cli import (
    EXIT_INFEASIBLE,
    EXIT_INGEST,
    EXIT_OK,
    main,
    parse_args,
)
from evsched.ingest import save_scenario, scenario_to_dict
from evsched.nominal import check_feasibility
from evsched.synth import random_scenario, write_synthetic_corpus

from conftest import make_scenario

SESSIONS = (
    "session_id,arrival,departure,energy_kwh\n"
    "s1,2018-04-25T08:15:00,2018-04-25T11:40:00,12.5\n"
    "s2,2018-04-25T09:00:00,2018-04-25T18:00:00,30.0\n"
    "s3,2018-04-26T10:30:00,2018-04-26T16:00:00,18.0\n"
)


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

    def test_robust_solve_reports_master_pivots(self, tmp_path, capsys):
        rng = np.random.default_rng(62)
        sc = random_scenario(rng, horizon_steps=5, max_vehicles=3,
                             scenario_id="day")
        path = tmp_path / "day.json"
        save_scenario(sc, path)
        out = tmp_path / "out"
        assert main(["solve", "--scenario", str(path), "--method", "robust-price",
                     "--radius", "0.2", "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "schedule_day_robust-price.json").read_text())
        assert doc["master_pivots"] >= doc["cuts"] > 0
        printed = capsys.readouterr().out
        assert f"{doc['cuts']} cuts, {doc['master_pivots']} master pivots" in printed

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

    def test_no_scenarios_found(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        code = main(["compare", "--scenarios", str(empty),
                     "--out", str(tmp_path / "r")])
        assert code == EXIT_INGEST


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
