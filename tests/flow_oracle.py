"""Min-cost flow: the independent verification oracle for the scheduling LP.

The daily allocation problem is a transportation problem, so its optimum
must match a minimum-cost flow of value sum(load) on the equivalent
network (`evsched.nominal.scheduling_network`).  The implementation is
successive shortest paths with Bellman-Ford (arc costs may be negative
when market prices are), augmenting by the maximum amount each round, on
the residual graph that the package's max-flow uses.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

from evsched.solver.flow import _CAP_TOL, FlowNetwork, _Residual


class FlowStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"


@dataclass
class FlowResult:
    status: FlowStatus
    value: float
    cost: float
    flows: np.ndarray  # per input arc, in arc order


class _CostResidual(_Residual):
    """The residual graph plus per-edge unit costs: edge 2k costs what arc
    k does, its reverse the negative."""

    def __init__(self, net: FlowNetwork):
        super().__init__(net)
        self.costs = [c for a in net.arcs for c in (a.cost, -a.cost)]

    def bellman_ford(self, src: int):
        """Shortest-cost distances and predecessor edges over residual arcs."""
        dist = np.full(self.n, np.inf)
        pred = np.full(self.n, -1, dtype=int)
        dist[src] = 0.0
        in_queue = np.zeros(self.n, dtype=bool)
        queue = deque([src])
        in_queue[src] = True
        rounds = 0
        while queue:
            u = queue.popleft()
            in_queue[u] = False
            rounds += 1
            if rounds > self.n * len(self.heads) + 16:
                raise RuntimeError("negative cycle detected in residual graph")
            du = dist[u]
            for e in self.adj[u]:
                if self.caps[e] <= _CAP_TOL:
                    continue
                v = self.heads[e]
                nd = du + self.costs[e]
                if nd < dist[v] - 1e-15:
                    dist[v] = nd
                    pred[v] = e
                    if not in_queue[v]:
                        queue.append(v)
                        in_queue[v] = True
        return dist, pred


def solve_min_cost_flow(net: FlowNetwork, required_flow: float) -> FlowResult:
    """Cheapest feasible flow of exactly `required_flow` source -> sink.

    Returns INFEASIBLE (with the best value reached) when the network
    cannot carry the full amount.
    """
    if required_flow < 0:
        raise ValueError("required_flow must be nonnegative")
    res = _CostResidual(net)
    sent = 0.0
    guard = 4 * len(res.heads) * net.num_nodes + 64
    while required_flow - sent > _CAP_TOL:
        dist, pred = res.bellman_ford(net.source)
        if not np.isfinite(dist[net.sink]):
            return _result(FlowStatus.INFEASIBLE, sent, net, res)
        sent += res.augment(pred, net.source, net.sink, required_flow - sent)
        guard -= 1
        if guard <= 0:
            raise RuntimeError("augmentation did not terminate")
    return _result(FlowStatus.OPTIMAL, sent, net, res)


def _result(status: FlowStatus, sent: float, net: FlowNetwork,
            res: _Residual) -> FlowResult:
    flows = np.array([a.capacity - res.caps[2 * k] for k, a in enumerate(net.arcs)])
    cost = float(sum(f * a.cost for f, a in zip(flows, net.arcs)))
    return FlowResult(status=status, value=sent, cost=cost, flows=flows)
