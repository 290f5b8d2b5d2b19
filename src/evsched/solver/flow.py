"""Max-flow on small directed networks.

The daily allocation problem is a transportation problem; the max-flow of
its network (Edmonds-Karp) tells whether all demand can be met, and
explains an infeasible day.  Arcs carry a unit cost as well, so the same
network serves the tests' min-cost-flow oracle for the LP.  Networks here
are tiny, so clarity wins over speed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

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
