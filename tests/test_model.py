import numpy as np
import pytest

from evsched import (
    Method,
    Scenario,
    Schedule,
    ShapeMismatch,
    ViolationKind,
    evaluate_cost,
    validate_schedule,
)

from conftest import make_scenario


def sched(y, method=Method.NOMINAL, scenario_id="test"):
    return Schedule(allocation=np.asarray(y, dtype=float), method=method,
                    scenario_id=scenario_id)


class TestScenarioInvariants:
    def test_contiguous_window_required(self):
        occ = np.array([[1], [0], [1]])
        with pytest.raises(ValueError, match="non-contiguous"):
            Scenario(horizon_steps=3, step_hours=1.0, occupancy=occ, load=[1.0],
                     capacity=10.0, socket_limit=7.0, waste=0.0, prices=[1, 1, 1])

    def test_demand_without_presence_rejected(self):
        occ = np.zeros((3, 1))
        with pytest.raises(ValueError, match="never present"):
            Scenario(horizon_steps=3, step_hours=1.0, occupancy=occ, load=[1.0],
                     capacity=10.0, socket_limit=7.0, waste=0.0, prices=[1, 1, 1])

    @pytest.mark.parametrize("bad1, bad3, message", [
        ([1, 0, 1], [0, 0, 0], "vehicle 1 has a non-contiguous presence window"),
        ([0, 0, 0], [1, 0, 1], "vehicle 1 has demand 2.0 but is never present"),
    ])
    def test_first_bad_vehicle_reported(self, bad1, bad3, message):
        # vehicles 1 and 3 are bad in different ways; the lower index is
        # reported whichever kind it has
        occ = np.array([[1, 1, 1], bad1, [0, 1, 1], bad3]).T
        with pytest.raises(ValueError, match=message):
            Scenario(horizon_steps=3, step_hours=1.0, occupancy=occ,
                     load=[1.0, 2.0, 1.0, 2.0], capacity=10.0, socket_limit=7.0,
                     waste=0.0, prices=[1, 1, 1])

    @pytest.mark.parametrize("value", [2, -1, 0.5, np.nan])
    def test_non_binary_occupancy_rejected(self, value):
        occ = np.ones((3, 2))
        occ[1, 1] = value
        with pytest.raises(ValueError, match="occupancy must be binary"):
            Scenario(horizon_steps=3, step_hours=1.0, occupancy=occ, load=[1.0, 1.0],
                     capacity=10.0, socket_limit=7.0, waste=0.0, prices=[1, 1, 1])

    def test_complex_occupancy_rejected(self):
        # 1+0j and 0j compare equal to 1 and 0, but casting them to uint8
        # would drop the imaginary part, so no complex dtype is binary
        occ = np.array([[1 + 0j, 0j], [1 + 0j, 1 + 0j], [0j, 1 + 0j]])
        with pytest.raises(ValueError, match="occupancy must be binary"):
            Scenario(horizon_steps=3, step_hours=1.0, occupancy=occ, load=[1.0, 1.0],
                     capacity=10.0, socket_limit=7.0, waste=0.0, prices=[1, 1, 1])

    @pytest.mark.parametrize("dtype", [bool, float])
    def test_bool_and_float_occupancy_accepted(self, dtype):
        occ = np.array([[1, 0], [1, 1], [0, 1]], dtype=dtype)
        sc = Scenario(horizon_steps=3, step_hours=1.0, occupancy=occ, load=[1.0, 1.0],
                      capacity=10.0, socket_limit=7.0, waste=0.0, prices=[1, 1, 1])
        assert sc.occupancy.dtype == np.uint8
        assert sc.occupancy.tolist() == [[1, 0], [1, 1], [0, 1]]

    @pytest.mark.parametrize("bad, message", [
        # every vector is checked for finiteness before any for its sign,
        # each rule in the order load, capacity, socket_limit, waste, prices
        ({"capacity": -1.0, "prices": [np.nan, 1, 1]}, "prices must be finite"),
        ({"load": [np.inf, -1.0], "waste": -1.0}, "load must be finite"),
        ({"socket_limit": [7, np.inf, 7], "waste": np.nan}, "socket_limit must be finite"),
        ({"load": [-1.0, 1.0], "capacity": -1.0}, "load must be nonnegative"),
        ({"socket_limit": -1.0, "waste": -1.0}, "socket_limit must be nonnegative"),
        ({"waste": [0, 0, -0.5], "prices": -1.0}, "waste must be nonnegative"),
        ({"capacity": [1.0, 2.0], "prices": [np.nan]}, "capacity must have length 3"),
    ])
    def test_first_broken_rule_reported(self, bad, message):
        kwargs = dict(horizon_steps=3, step_hours=1.0, occupancy=np.ones((3, 2)),
                      load=[1.0, 1.0], capacity=10.0, socket_limit=7.0, waste=0.0,
                      prices=[1, 1, 1])
        with pytest.raises(ValueError, match=message):
            Scenario(**{**kwargs, **bad})

    def test_vectors_are_read_only_copies(self):
        prices = np.array([1.0, 2.0, 3.0])
        sc = make_scenario([(1, 3)], [1.0], prices, capacity=[5.0, 6.0, 7.0])
        prices[0] = 9.0
        assert sc.prices.tolist() == [1.0, 2.0, 3.0]
        assert sc.capacity.tolist() == [5.0, 6.0, 7.0]
        for name in ("occupancy", "load", "capacity", "socket_limit", "waste", "prices"):
            with pytest.raises(ValueError):
                getattr(sc, name)[0] = 0

    def test_zero_demand_empty_window_ok(self):
        occ = np.zeros((3, 1))
        sc = Scenario(horizon_steps=3, step_hours=1.0, occupancy=occ, load=[0.0],
                      capacity=10.0, socket_limit=7.0, waste=0.0, prices=[1, 1, 1])
        assert sc.window(0) is None

    def test_negative_prices_allowed(self):
        sc = make_scenario([(1, 1)], [1.0], [-0.05])
        assert sc.prices[0] == -0.05

    def test_negative_load_rejected(self):
        with pytest.raises(ValueError):
            make_scenario([(1, 1)], [-1.0], [0.1])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_scenario([(1, 1)], [1.0, 2.0], [0.1])

    @pytest.mark.parametrize("field", ["load", "capacity", "socket_limit",
                                       "waste", "prices"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, field, bad):
        values = dict(load=[1.0], capacity=10.0, socket_limit=7.0, waste=0.0,
                      prices=[0.1, 0.2])
        values[field] = np.full_like(np.atleast_1d(values[field]), bad, dtype=float)
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            Scenario(horizon_steps=2, step_hours=1.0, occupancy=np.ones((2, 1)),
                     **values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
    def test_bad_step_hours_rejected(self, bad):
        with pytest.raises(ValueError, match="step_hours"):
            make_scenario([(1, 1)], [1.0], [0.1], step_hours=bad)

    def test_immutable_arrays(self):
        sc = make_scenario([(1, 2)], [3.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            sc.load[0] = 5.0


class TestEvaluateCost:
    def test_zero_schedule_costs_nothing(self):
        sc = make_scenario([(1, 2)], [5.0], [2.0, 1.0])
        cost = evaluate_cost(sched(np.zeros((2, 1))), sc)
        assert cost.total_cost == 0.0
        assert cost.total_energy_delivered == 0.0
        assert cost.total_energy_wasted == 0.0

    def test_single_term_arithmetic(self):
        # per-step totals (5, 0) at prices (2, 1), no waste -> 10
        sc = make_scenario([(1, 2)], [5.0], [2.0, 1.0])
        cost = evaluate_cost(sched([[5.0], [0.0]]), sc)
        assert cost.total_cost == pytest.approx(10.0, abs=1e-12)
        assert list(cost.per_step_cost) == pytest.approx([10.0, 0.0])

    def test_waste_factor_applied(self, two_step_vehicle):
        # per-step totals (0, 5) with waste 0.01 -> 5 * 1 * 1.01 = 5.05
        cost = evaluate_cost(sched([[0.0], [5.0]]), two_step_vehicle)
        assert cost.total_cost == pytest.approx(5.05, abs=1e-12)
        assert cost.total_energy_wasted == pytest.approx(0.05, abs=1e-12)

    def test_step_hours_scale(self):
        sc = make_scenario([(1, 1)], [4.0], [3.0], step_hours=0.5)
        cost = evaluate_cost(sched([[4.0]]), sc)
        assert cost.total_cost == pytest.approx(3.0 * 4.0 * 0.5)
        assert cost.total_energy_delivered == pytest.approx(2.0)

    def test_shape_mismatch(self, two_step_vehicle):
        with pytest.raises(ShapeMismatch):
            evaluate_cost(sched(np.zeros((3, 1))), two_step_vehicle)

    def test_linearity_in_allocation(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            T, n = int(rng.integers(1, 6)), int(rng.integers(1, 5))
            sc = Scenario(
                horizon_steps=T, step_hours=float(rng.uniform(0.25, 2.0)),
                occupancy=np.ones((T, n)), load=np.zeros(n),
                capacity=1e9, socket_limit=1e9,
                waste=rng.uniform(0, 0.1, T), prices=rng.normal(0, 1, T),
            )
            y1 = rng.uniform(0, 5, (T, n))
            y2 = rng.uniform(0, 5, (T, n))
            a, b = float(rng.uniform(0, 3)), float(rng.uniform(0, 3))
            combo = evaluate_cost(sched(a * y1 + b * y2), sc).total_cost
            parts = (a * evaluate_cost(sched(y1), sc).total_cost
                     + b * evaluate_cost(sched(y2), sc).total_cost)
            assert combo == pytest.approx(parts, rel=1e-9, abs=1e-12)

    def test_energy_accounting(self):
        rng = np.random.default_rng(7)
        sc = make_scenario([(1, 3), (2, 3)], [5.0, 4.0], [1.0, 2.0, 3.0],
                           step_hours=0.5)
        y = rng.uniform(0, 3, (3, 2))
        cost = evaluate_cost(sched(y), sc)
        assert cost.total_energy_delivered == pytest.approx(y.sum() * 0.5, rel=1e-12)
        assert cost.total_cost == pytest.approx(cost.per_step_cost.sum(), rel=1e-9)


class TestValidateSchedule:
    def test_feasible_schedule_empty_report(self, two_step_vehicle):
        report = validate_schedule(sched([[0.0], [5.0]]), two_step_vehicle)
        assert report.feasible
        assert report.violations == ()

    def test_negative_power(self, two_step_vehicle):
        report = validate_schedule(sched([[-0.5], [5.5]]), two_step_vehicle)
        bad = report.of_kind(ViolationKind.NEGATIVE_POWER)
        assert len(bad) == 1
        assert bad[0].magnitude == pytest.approx(0.5)
        assert (bad[0].step_index, bad[0].vehicle_index) == (0, 0)

    def test_socket_exceeded(self):
        sc = make_scenario([(1, 1)], [5.0], [1.0], socket=7.0)
        report = validate_schedule(sched([[7.3]]), sc)
        bad = report.of_kind(ViolationKind.SOCKET_EXCEEDED)
        assert len(bad) == 1
        assert bad[0].magnitude == pytest.approx(0.3)

    def test_capacity_exceeded(self):
        sc = make_scenario([(1, 1), (1, 1)], [5.0, 5.0], [1.0], capacity=8.0)
        report = validate_schedule(sched([[5.0, 5.0]]), sc)
        bad = report.of_kind(ViolationKind.CAPACITY_EXCEEDED)
        assert len(bad) == 1
        assert bad[0].magnitude == pytest.approx(2.0)
        assert bad[0].step_index == 0

    def test_demand_shortfall(self, two_step_vehicle):
        report = validate_schedule(sched([[0.0], [3.0]]), two_step_vehicle)
        bad = report.of_kind(ViolationKind.DEMAND_SHORTFALL)
        assert len(bad) == 1
        assert bad[0].magnitude == pytest.approx(2.0)
        assert bad[0].vehicle_index == 0

    def test_outside_window(self):
        sc = make_scenario([(2, 2)], [1.0], [1.0, 1.0])
        report = validate_schedule(sched([[1.0], [1.0]]), sc)
        bad = report.of_kind(ViolationKind.OUTSIDE_WINDOW)
        assert len(bad) == 1
        assert bad[0].step_index == 0

    def test_tolerance_swallows_noise(self, two_step_vehicle):
        report = validate_schedule(sched([[1e-12], [5.0 - 1e-12]]), two_step_vehicle)
        assert report.feasible
