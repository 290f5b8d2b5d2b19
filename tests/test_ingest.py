"""Session/price parsing and scenario construction tests."""

import io
from datetime import date

import numpy as np
import pytest

from evsched.ingest import (
    DuplicateEntry,
    IngestConfig,
    MalformedRow,
    MidnightPolicy,
    MissingColumn,
    PriceSeries,
    PriceUnit,
    build_scenarios,
    load_scenario,
    parse_prices,
    parse_sessions,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from evsched.synth import random_scenario

SESSIONS_HEADER = "session_id,arrival,departure,energy_kwh\n"


def sessions_from(text: str):
    return parse_sessions(io.StringIO(SESSIONS_HEADER + text))


def prices_for(days, hours=range(24), value=0.1):
    series = PriceSeries()
    for d in days:
        for h in hours:
            series.add(d, h, value)
    return series


class TestParseSessions:
    def test_single_row(self):
        recs = sessions_from("s1,2018-04-25T08:15:00,2018-04-25T11:40:00,12.5\n")
        assert len(recs) == 1
        assert recs[0].session_id == "s1"
        assert recs[0].arrival.hour == 8 and recs[0].arrival.minute == 15
        assert recs[0].departure.hour == 11 and recs[0].departure.minute == 40
        assert recs[0].energy_kwh == 12.5

    def test_departure_before_arrival_rejected(self):
        with pytest.raises(MalformedRow) as err:
            sessions_from("s1,2018-04-25T11:00:00,2018-04-25T10:00:00,5\n")
        assert err.value.line_no == 2

    def test_negative_energy_rejected(self):
        with pytest.raises(MalformedRow):
            sessions_from("s1,2018-04-25T08:00:00,2018-04-25T09:00:00,-2\n")

    @pytest.mark.parametrize("energy", ["nan", "inf", "-inf"])
    def test_non_finite_energy_rejected(self, energy):
        with pytest.raises(MalformedRow, match="non-finite energy") as err:
            sessions_from(f"s1,2018-04-25T08:00:00,2018-04-25T09:00:00,{energy}\n")
        assert err.value.line_no == 2

    def test_header_only_gives_empty_list(self):
        assert sessions_from("") == []

    def test_missing_column(self):
        with pytest.raises(MissingColumn):
            parse_sessions(io.StringIO("session_id,arrival,energy_kwh\n"))

    def test_garbage_timestamp(self):
        with pytest.raises(MalformedRow):
            sessions_from("s1,yesterday,2018-04-25T09:00:00,5\n")

    def test_column_order_free(self):
        stream = io.StringIO(
            "energy_kwh,session_id,departure,arrival\n"
            "3.5,s9,2018-04-25T10:00:00,2018-04-25T09:00:00\n"
        )
        recs = parse_sessions(stream)
        assert recs[0].session_id == "s9"
        assert recs[0].energy_kwh == 3.5


class TestParsePrices:
    def test_per_mwh_converted(self):
        series = parse_prices(
            io.StringIO("date,hour,price\n2018-04-25,0,52.0\n"), PriceUnit.PER_MWH
        )
        assert series.get(date(2018, 4, 25), 0) == pytest.approx(0.052)

    def test_per_kwh_passthrough(self):
        series = parse_prices(io.StringIO("date,hour,price\n2018-04-25,7,0.3\n"))
        assert series.get(date(2018, 4, 25), 7) == pytest.approx(0.3)

    def test_duplicate_rejected(self):
        stream = io.StringIO(
            "date,hour,price\n2018-04-25,0,52.0\n2018-04-25,0,53.0\n"
        )
        with pytest.raises(DuplicateEntry):
            parse_prices(stream, PriceUnit.PER_MWH)

    def test_negative_price_allowed(self):
        series = parse_prices(
            io.StringIO("date,hour,price\n2018-04-25,3,-5.0\n"), PriceUnit.PER_MWH
        )
        assert series.get(date(2018, 4, 25), 3) == pytest.approx(-0.005)

    @pytest.mark.parametrize("price", ["nan", "NaN", "inf", "-Infinity"])
    def test_non_finite_price_rejected(self, price):
        with pytest.raises(MalformedRow, match="non-finite price") as err:
            parse_prices(io.StringIO(f"date,hour,price\n2018-04-25,0,{price}\n"))
        assert err.value.line_no == 2

    def test_hour_out_of_range(self):
        with pytest.raises(MalformedRow):
            parse_prices(io.StringIO("date,hour,price\n2018-04-25,24,1.0\n"))


class TestBuildScenarios:
    def test_floor_ceil_window(self):
        recs = sessions_from("s1,2018-04-25T08:15:00,2018-04-25T11:40:00,12.5\n")
        result = build_scenarios(recs, prices_for([date(2018, 4, 25)]))
        (sc,) = result.scenarios
        column = np.flatnonzero(sc.occupancy[:, 0]) + 1  # 1-based steps
        assert list(column) == [9, 10, 11, 12]
        assert sc.load[0] == pytest.approx(12.5)
        assert sc.scenario_id == "2018-04-25"

    def test_midnight_clamp(self):
        recs = sessions_from("s1,2018-04-25T23:30:00,2018-04-26T01:10:00,4.0\n")
        result = build_scenarios(recs, prices_for([date(2018, 4, 25)]))
        (sc,) = result.scenarios
        assert sc.window(0) == (24, 24)
        assert not result.dropped_sessions

    def test_midnight_drop(self):
        recs = sessions_from("s1,2018-04-25T23:30:00,2018-04-26T01:10:00,4.0\n")
        cfg = IngestConfig(midnight_policy=MidnightPolicy.DROP)
        result = build_scenarios(recs, prices_for([date(2018, 4, 25)]), cfg)
        assert result.scenarios == []
        assert len(result.dropped_sessions) == 1
        assert result.dropped_sessions[0][0] == "s1"

    def test_exact_midnight_departure_not_clamped(self):
        recs = sessions_from("s1,2018-04-25T22:00:00,2018-04-26T00:00:00,6.0\n")
        result = build_scenarios(recs, prices_for([date(2018, 4, 25)]))
        (sc,) = result.scenarios
        assert sc.window(0) == (23, 24)

    def test_days_grouped_separately(self):
        recs = sessions_from(
            "s1,2018-04-25T08:00:00,2018-04-25T09:00:00,2.0\n"
            "s2,2018-04-26T08:00:00,2018-04-26T09:00:00,2.0\n"
        )
        result = build_scenarios(
            recs, prices_for([date(2018, 4, 25), date(2018, 4, 26)])
        )
        assert [sc.scenario_id for sc in result.scenarios] == [
            "2018-04-25",
            "2018-04-26",
        ]
        assert all(sc.num_vehicles == 1 for sc in result.scenarios)

    def test_missing_prices_skips_day(self):
        recs = sessions_from("s1,2018-04-25T08:00:00,2018-04-25T09:00:00,2.0\n")
        result = build_scenarios(recs, prices_for([date(2018, 4, 25)], hours=range(23)))
        assert result.scenarios == []
        assert len(result.skipped_days) == 1
        assert result.skipped_days[0][0] == date(2018, 4, 25)
        assert "23" in result.skipped_days[0][1]

    def test_empty_input(self):
        result = build_scenarios([], PriceSeries())
        assert result.scenarios == []
        assert result.skipped_days == []

    def test_energy_conserved_under_clamp(self):
        recs = sessions_from(
            "a,2018-04-25T03:12:00,2018-04-25T07:45:00,9.25\n"
            "b,2018-04-25T10:00:00,2018-04-25T20:30:00,30.5\n"
            "c,2018-04-25T22:10:00,2018-04-26T02:00:00,5.75\n"
        )
        result = build_scenarios(recs, prices_for([date(2018, 4, 25)]))
        (sc,) = result.scenarios
        total = sc.load.sum() * sc.step_hours
        assert total == pytest.approx(9.25 + 30.5 + 5.75, rel=1e-9)

    def test_row_order_independent(self):
        rows = [
            "a,2018-04-25T09:00:00,2018-04-25T12:00:00,5.0\n",
            "b,2018-04-25T07:30:00,2018-04-25T10:00:00,3.0\n",
            "c,2018-04-25T07:30:00,2018-04-25T11:00:00,4.0\n",
        ]
        prices = prices_for([date(2018, 4, 25)])
        fwd = build_scenarios(sessions_from("".join(rows)), prices)
        rev = build_scenarios(sessions_from("".join(reversed(rows))), prices)
        a, b = fwd.scenarios[0], rev.scenarios[0]
        assert np.array_equal(a.occupancy, b.occupancy)
        assert np.array_equal(a.load, b.load)
        # columns sorted by (arrival, session_id): b, c, a
        assert list(a.load) == pytest.approx([3.0, 4.0, 5.0])

    def test_scenarios_satisfy_invariants(self):
        recs = sessions_from(
            "a,2018-04-25T00:00:00,2018-04-25T23:59:00,40.0\n"
            "b,2018-04-25T13:05:00,2018-04-25T13:10:00,0.5\n"
        )
        result = build_scenarios(recs, prices_for([date(2018, 4, 25)]))
        (sc,) = result.scenarios  # Scenario's own validation ran
        assert sc.window(0) == (1, 24)
        assert sc.window(1) == (14, 14)

    def test_nondefault_steps(self):
        # 30-minute steps, 48 of them
        recs = sessions_from("s1,2018-04-25T08:15:00,2018-04-25T09:10:00,3.0\n")
        cfg = IngestConfig(horizon_steps=48, step_hours=0.5)
        result = build_scenarios(recs, prices_for([date(2018, 4, 25)]), cfg)
        (sc,) = result.scenarios
        # 08:15 -> step floor(16.5)+1 = 17; 09:10 -> ceil(18.33) = 19
        assert sc.window(0) == (17, 19)
        assert sc.load[0] == pytest.approx(3.0 / 0.5)

    def test_table_defaults(self):
        cfg = IngestConfig()
        assert cfg.horizon_steps == 24
        assert cfg.capacity == 300.0
        assert cfg.socket_limit == 7.0
        assert cfg.waste == 0.01


class TestScenarioInterchange:
    def test_round_trip_dict(self):
        rng = np.random.default_rng(41)
        sc = random_scenario(rng, horizon_steps=6, max_vehicles=4)
        back = scenario_from_dict(scenario_to_dict(sc))
        assert np.array_equal(back.occupancy, sc.occupancy)
        assert back.load == pytest.approx(sc.load)
        assert back.prices == pytest.approx(sc.prices)
        assert back.scenario_id == sc.scenario_id

    def test_round_trip_file(self, tmp_path):
        rng = np.random.default_rng(42)
        sc = random_scenario(rng, horizon_steps=5, max_vehicles=3)
        path = tmp_path / "day.json"
        save_scenario(sc, path)
        back = load_scenario(path)
        assert np.array_equal(back.occupancy, sc.occupancy)
        assert back.socket_limit == pytest.approx(sc.socket_limit)

    def test_rejects_wrong_format(self, tmp_path):
        with pytest.raises(ValueError):
            scenario_from_dict({"format": "something-else"})
