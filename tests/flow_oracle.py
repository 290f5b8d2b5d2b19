"""Flow oracles for the scheduling LP: max-flow and min-cost flow.

The daily allocation problem is a transportation problem (see
`scheduling_network`).  Its max-flow (Edmonds-Karp) must equal the total
load minus the least shortfall that phase one of the LP finds, and its
optimum must match a minimum-cost flow of value sum(load) where prices
are nonnegative, and `surplus_cost` on any prices.  The min-cost
flow is successive shortest paths with Bellman-Ford (arc costs may be
negative when market prices are), augmenting by the maximum amount each
round, on the residual graph that the max-flow uses.  Networks here are
tiny, so clarity wins over speed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

from evsched import Scenario

_CAP_TOL = 1e-12


@dataclass(frozen=True)
class Arc:
    tail: int
    head: int
    capacity: float
    cost: float = 0.0


@dataclass(frozen=True)
class FlowNetwork:
    num_nodes: int
    source: int
    sink: int
    arcs: tuple[Arc, ...]

    def __post_init__(self):
        object.__setattr__(self, "arcs", tuple(self.arcs))
        for a in self.arcs:
            if not (0 <= a.tail < self.num_nodes and 0 <= a.head < self.num_nodes):
                raise ValueError(f"arc {a} references unknown node")
            if a.capacity < 0:
                raise ValueError(f"arc {a} has negative capacity")


class _Residual:
    """Doubled-arc residual graph: edge 2k is arc k, edge 2k+1 its reverse."""

    def __init__(self, net: FlowNetwork):
        self.n = net.num_nodes
        self.heads: list[int] = []
        self.caps: list[float] = []
        self.adj: list[list[int]] = [[] for _ in range(self.n)]
        for a in net.arcs:
            self._push(a.tail, a.head, a.capacity)
            self._push(a.head, a.tail, 0.0)

    def _push(self, tail, head, cap):
        idx = len(self.heads)
        self.heads.append(head)
        self.caps.append(cap)
        self.adj[tail].append(idx)

    def tail_of(self, edge: int) -> int:
        # edge 2k leaves net.arcs[k].tail; its mate leaves the head
        return self.heads[edge ^ 1]

    def bfs_path(self, src: int, dst: int):
        """Fewest-hop augmenting path (for max flow)."""
        pred = np.full(self.n, -1, dtype=int)
        seen = np.zeros(self.n, dtype=bool)
        seen[src] = True
        queue = deque([src])
        while queue:
            u = queue.popleft()
            if u == dst:
                return pred
            for e in self.adj[u]:
                v = self.heads[e]
                if not seen[v] and self.caps[e] > _CAP_TOL:
                    seen[v] = True
                    pred[v] = e
                    queue.append(v)
        return None

    def augment(self, pred, src: int, dst: int, limit: float) -> float:
        amount = limit
        v = dst
        while v != src:
            e = int(pred[v])
            amount = min(amount, self.caps[e])
            v = self.tail_of(e)
        if not np.isfinite(amount):
            raise RuntimeError("augmenting path with unbounded capacity")
        v = dst
        while v != src:
            e = int(pred[v])
            self.caps[e] -= amount
            self.caps[e ^ 1] += amount
            v = self.tail_of(e)
        return amount


def max_flow_value(net: FlowNetwork) -> float:
    """Maximum source -> sink flow value (Edmonds-Karp)."""
    res = _Residual(net)
    total = 0.0
    while True:
        pred = res.bfs_path(net.source, net.sink)
        if pred is None:
            return total
        total += res.augment(pred, net.source, net.sink, np.inf)


def scheduling_network(scenario: Scenario) -> FlowNetwork:
    """Equivalent transportation network.

    Node layout: 0 = source, 1..N = vehicles, N+1..N+T = steps, N+T+1 = sink.
    Source->vehicle arcs carry each demand, vehicle->step arcs the socket
    limit at the step's unit cost, step->sink arcs the station budget.
    """
    T, n = scenario.horizon_steps, scenario.num_vehicles
    delta = scenario.step_hours
    step_cost = scenario.prices * (1.0 + scenario.waste) * delta
    arcs: list[Arc] = []
    for i in range(n):
        arcs.append(Arc(0, 1 + i, float(scenario.load[i])))
    for i in range(n):
        for t in np.flatnonzero(scenario.occupancy[:, i]):
            arcs.append(
                Arc(
                    1 + i,
                    1 + n + int(t),
                    float(scenario.socket_limit[t]),
                    float(step_cost[t]),
                )
            )
    for t in range(T):
        arcs.append(Arc(1 + n + t, 1 + n + T, float(scenario.capacity[t])))
    return FlowNetwork(num_nodes=n + T + 2, source=0, sink=1 + n + T, arcs=tuple(arcs))


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


def surplus_cost(scenario: Scenario) -> float | None:
    """Least cost of the allocation LP as it is stated, with each demand a
    lower bound: a vehicle may take up to its window's socket capacity,
    which pays where prices are negative.  None when the day is infeasible.

    Each source arc of `scheduling_network` keeps the demand, at cost
    -penalty, and a second arc adds the surplus room at cost 0; a free
    source -> sink arc carries whatever room the vehicles leave, so a flow
    of value load + room always exists when the demands fit.  The penalty
    exceeds the summed |cost| of all vehicle -> step arcs, so a cheaper flow
    cannot leave a demand short while a flow meeting it exists: a residual
    cycle that fills the demand arc would cost less than nothing.
    """
    base = scheduling_network(scenario)
    n = scenario.num_vehicles
    load = [float(v) for v in scenario.load]
    window_cap = scenario.occupancy.T.astype(float) @ scenario.socket_limit
    room = [max(float(c) - v, 0.0) for c, v in zip(window_cap, load)]
    penalty = 1.0 + sum(abs(a.cost) for a in base.arcs[n:])
    arcs = [Arc(a.tail, a.head, a.capacity, -penalty) for a in base.arcs[:n]]
    arcs += base.arcs[n:]
    arcs += [Arc(0, 1 + i, room[i]) for i in range(n)]
    arcs.append(Arc(0, base.sink, sum(room)))
    net = FlowNetwork(num_nodes=base.num_nodes, source=0, sink=base.sink, arcs=tuple(arcs))
    flow = solve_min_cost_flow(net, sum(load) + sum(room))
    if flow.status is FlowStatus.INFEASIBLE or any(
            f < v - 1e-9 for f, v in zip(flow.flows[:n], load)):
        return None
    return flow.cost + penalty * sum(load)


def _result(status: FlowStatus, sent: float, net: FlowNetwork,
            res: _Residual) -> FlowResult:
    flows = np.array([a.capacity - res.caps[2 * k] for k, a in enumerate(net.arcs)])
    cost = float(sum(f * a.cost for f, a in zip(flows, net.arcs)))
    return FlowResult(status=status, value=sent, cost=cost, flows=flows)
