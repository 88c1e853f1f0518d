"""Metric (transitive) closure of a static digraph.

The DST algorithms of Section 4.3-4.5 run on the transitive closure
``G_t`` of the transformed graph: a complete digraph whose edge
``(u, v)`` carries the shortest-path weight from ``u`` to ``v`` in the
original graph.  The closure also retains predecessor information so
postprocessing Step 1(a) can expand closure edges back into real paths.

The closure is the dominant preprocessing cost (Table 4): one Dijkstra
per vertex, stored as dense ``float64`` / ``int32`` matrices.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.static.digraph import StaticDigraph
from repro.static.shortest_paths import dijkstra, reconstruct_path


class ClosureBase:
    """The read interface every metric closure shares.

    Attributes
    ----------
    graph:
        The underlying digraph (indices are shared with the closure).
    dist:
        ``(n, n)`` matrix; ``dist[u, v]`` is the shortest-path weight
        (``inf`` when ``v`` is unreachable from ``u``).

    Subclasses differ only in how :meth:`path` walks the stored
    predecessor or next-hop rows.
    """

    __slots__ = ("graph", "dist", "_edge_weights")

    def __init__(self, graph: StaticDigraph, dist: np.ndarray) -> None:
        self.graph = graph
        self.dist = dist
        self._edge_weights: Dict[Tuple[int, int], float] = {}

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    def cost(self, source: int, target: int) -> float:
        """Closure edge weight = shortest-path distance ``source -> target``."""
        return float(self.dist[source, target])

    def costs_from(self, source: int) -> np.ndarray:
        """The full distance row of ``source`` (a view, do not mutate)."""
        return self.dist[source]

    def is_reachable(self, source: int, target: int) -> bool:
        return math.isfinite(self.dist[source, target])

    def path(self, source: int, target: int) -> List[int]:
        """The shortest path ``source -> target`` as vertex indices.

        Empty when unreachable; ``[source]`` when ``source == target``.
        """
        raise NotImplementedError

    def path_edges(self, source: int, target: int) -> List[Tuple[int, int, float]]:
        """The shortest path as ``(u, v, w)`` edge triples in the base graph."""
        vertices = self.path(source, target)
        return [
            (u, v, self._edge_weight(u, v)) for u, v in zip(vertices, vertices[1:])
        ]

    def _edge_weight(self, u: int, v: int) -> float:
        """Cheapest direct edge weight ``u -> v`` in the base graph (memoised)."""
        cached = self._edge_weights.get((u, v))
        if cached is not None:
            return cached
        best = math.inf
        for w_target, w in self.graph.out_neighbors(u):
            if w_target == v and w < best:
                best = w
        self._edge_weights[(u, v)] = best
        return best


class MetricClosure(ClosureBase):
    """All-pairs shortest distances with per-source predecessor rows."""

    __slots__ = ("_pred",)

    def __init__(self, graph: StaticDigraph, dist: np.ndarray, pred: np.ndarray) -> None:
        super().__init__(graph, dist)
        self._pred = pred

    def path(self, source: int, target: int) -> List[int]:
        return reconstruct_path(self._pred[source], source, target)


def build_metric_closure(
    graph: StaticDigraph,
    sources: Optional[Sequence[int]] = None,
) -> MetricClosure:
    """Compute the metric closure by one Dijkstra per source.

    Parameters
    ----------
    graph:
        The digraph to close.
    sources:
        Optional subset of source indices; rows for other sources are
        left at ``inf``.  The DST algorithms need all rows, so the
        default closes from every vertex.
    """
    n = graph.num_vertices
    dist = np.full((n, n), np.inf, dtype=np.float64)
    pred = np.full((n, n), -1, dtype=np.int32)
    source_list = range(n) if sources is None else sources
    for s in source_list:
        d, p = dijkstra(graph, s)
        dist[s, :] = d
        pred[s, :] = p
    return MetricClosure(graph, dist, pred)
