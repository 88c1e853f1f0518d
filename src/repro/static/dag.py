"""DAG utilities and a fast metric closure for acyclic digraphs.

When every temporal edge has a strictly positive duration, the
Section 4.2 transformed graph 𝔾 is acyclic (solid edges strictly
advance time and virtual edges advance the copy chain), so its closure
can be computed by dynamic programming over a reverse topological
order -- one vectorised row update per edge instead of one Dijkstra per
vertex.  ``build_metric_closure_auto`` picks this fast path whenever
the graph is a DAG and silently falls back to Dijkstra otherwise.
"""

from __future__ import annotations

import math
from collections import deque
from typing import List, Optional

import numpy as np

from repro.static.closure import ClosureBase, build_metric_closure
from repro.static.digraph import StaticDigraph


def topological_order(graph: StaticDigraph) -> Optional[List[int]]:
    """Kahn's algorithm; ``None`` when the graph contains a cycle."""
    n = graph.num_vertices
    indegree = [0] * n
    for _, v, _ in graph.iter_edges():
        indegree[v] += 1
    queue = deque(v for v in range(n) if indegree[v] == 0)
    order: List[int] = []
    while queue:
        u = queue.popleft()
        order.append(u)
        for v, _ in graph.out_neighbors(u):
            indegree[v] -= 1
            if indegree[v] == 0:
                queue.append(v)
    if len(order) != n:
        return None
    return order


class DagMetricClosure(ClosureBase):
    """All-pairs shortest distances of a DAG with next-hop reconstruction.

    The :class:`~repro.static.closure.ClosureBase` read interface; paths
    are rebuilt by following the stored next-hop matrix instead of
    per-source predecessors.
    """

    __slots__ = ("_next_hop",)

    def __init__(self, graph: StaticDigraph, dist: np.ndarray, next_hop: np.ndarray):
        super().__init__(graph, dist)
        self._next_hop = next_hop

    def path(self, source: int, target: int) -> List[int]:
        if source == target:
            return [source]
        if not math.isfinite(self.dist[source, target]):
            return []
        path = [source]
        current = source
        while current != target:
            current = int(self._next_hop[current, target])
            path.append(current)
        return path


def build_metric_closure_dag(
    graph: StaticDigraph,
    order: Optional[List[int]] = None,
) -> DagMetricClosure:
    """Closure of a DAG by reverse-topological dynamic programming.

    ``dist[u] = min over out-edges (u, v, w) of w + dist[v]`` with
    ``dist[u][u] = 0``; each edge contributes one vectorised row
    update, ``O(n·m)`` total versus Dijkstra's ``O(n·m·log n)``.

    Raises
    ------
    ValueError
        If the graph is not acyclic.
    """
    if order is None:
        order = topological_order(graph)
    if order is None:
        raise ValueError("graph contains a cycle; use build_metric_closure")
    n = graph.num_vertices
    dist = np.full((n, n), np.inf, dtype=np.float64)
    next_hop = np.full((n, n), -1, dtype=np.int32)
    for u in reversed(order):
        # Every successor row is final (reverse topological order); ties
        # keep the earliest out-neighbor.
        row = dist[u]
        row[u] = 0.0
        for v, w in graph.out_neighbors(u):
            candidate = dist[v] + w
            better = candidate < row
            if better.any():
                row[better] = candidate[better]
                next_hop[u, better] = v
    return DagMetricClosure(graph, dist, next_hop)


def build_metric_closure_auto(graph: StaticDigraph):
    """DAG fast path when possible, Dijkstra closure otherwise."""
    order = topological_order(graph)
    if order is not None:
        return build_metric_closure_dag(graph, order)
    return build_metric_closure(graph)
