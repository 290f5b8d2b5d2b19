"""Min-cost flow tests with exhaustive-split oracles."""

import numpy as np
import pytest

from flow_oracle import Arc, FlowNetwork, FlowStatus, max_flow_value, solve_min_cost_flow


def two_parallel_arcs():
    return FlowNetwork(2, 0, 1, (Arc(0, 1, 5.0, 1.0), Arc(0, 1, 5.0, 3.0)))


def split_oracle(caps, costs, required, steps=20001):
    """Cheapest split of `required` over two parallel arcs, by scanning."""
    best = np.inf
    for f1 in np.linspace(0.0, caps[0], steps):
        f2 = required - f1
        if f2 < -1e-12 or f2 > caps[1] + 1e-12:
            continue
        best = min(best, f1 * costs[0] + f2 * costs[1])
    return best


class TestMinCostFlow:
    def test_single_arc(self):
        net = FlowNetwork(2, 0, 1, (Arc(0, 1, 10.0, 2.0),))
        res = solve_min_cost_flow(net, 5.0)
        assert res.status is FlowStatus.OPTIMAL
        assert res.cost == pytest.approx(10.0)
        assert res.value == pytest.approx(5.0)

    def test_parallel_arcs_prefer_cheap(self):
        oracle = split_oracle((5.0, 5.0), (1.0, 3.0), 8.0)
        assert oracle == pytest.approx(14.0)
        res = solve_min_cost_flow(two_parallel_arcs(), 8.0)
        assert res.status is FlowStatus.OPTIMAL
        assert res.cost == pytest.approx(oracle)
        assert res.flows == pytest.approx([5.0, 3.0])

    def test_infeasible_when_capacity_short(self):
        res = solve_min_cost_flow(two_parallel_arcs(), 20.0)
        assert res.status is FlowStatus.INFEASIBLE
        assert res.value == pytest.approx(10.0)

    def test_zero_required(self):
        res = solve_min_cost_flow(two_parallel_arcs(), 0.0)
        assert res.status is FlowStatus.OPTIMAL
        assert res.cost == 0.0

    def test_negative_costs(self):
        # negative-cost arc must be used first
        net = FlowNetwork(2, 0, 1, (Arc(0, 1, 4.0, 0.5), Arc(0, 1, 4.0, -1.0)))
        res = solve_min_cost_flow(net, 5.0)
        assert res.status is FlowStatus.OPTIMAL
        assert res.flows == pytest.approx([1.0, 4.0])
        assert res.cost == pytest.approx(1.0 * 0.5 - 4.0)

    def test_two_hop_network(self):
        # source -0-> a -1-> sink, plus direct expensive arc
        net = FlowNetwork(
            3, 0, 2,
            (Arc(0, 1, 3.0, 1.0), Arc(1, 2, 3.0, 1.0), Arc(0, 2, 10.0, 5.0)),
        )
        res = solve_min_cost_flow(net, 5.0)
        assert res.status is FlowStatus.OPTIMAL
        # 3 units via the cheap path (cost 2 each), 2 direct (cost 5 each)
        assert res.cost == pytest.approx(3 * 2.0 + 2 * 5.0)

    def test_rejects_negative_required(self):
        with pytest.raises(ValueError):
            solve_min_cost_flow(two_parallel_arcs(), -1.0)


class TestMaxFlow:
    def test_parallel(self):
        assert max_flow_value(two_parallel_arcs()) == pytest.approx(10.0)

    def test_bottleneck(self):
        net = FlowNetwork(
            3, 0, 2, (Arc(0, 1, 10.0), Arc(1, 2, 4.0))
        )
        assert max_flow_value(net) == pytest.approx(4.0)

    def test_requires_residual_rerouting(self):
        # classic diamond where a naive greedy path must be re-routed
        net = FlowNetwork(
            4, 0, 3,
            (
                Arc(0, 1, 1.0),
                Arc(0, 2, 1.0),
                Arc(1, 2, 1.0),
                Arc(1, 3, 1.0),
                Arc(2, 3, 1.0),
            ),
        )
        assert max_flow_value(net) == pytest.approx(2.0)

    def test_disconnected(self):
        net = FlowNetwork(3, 0, 2, (Arc(0, 1, 5.0),))
        assert max_flow_value(net) == pytest.approx(0.0)
