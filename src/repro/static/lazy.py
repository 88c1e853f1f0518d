"""A lazily-materialised metric closure.

The eager closure costs one Dijkstra per vertex *up front* and ``n²``
memory -- the dominant ``Tprep`` term of Table 4.  But not every
workload touches every row: at level ``i = 1`` the DST algorithms only
read the root's row, and targeted (few-terminal) Steiner queries touch
a small vertex neighbourhood.  :class:`LazyMetricClosure` implements
the same read interface while running each source's Dijkstra on first
access and caching the result, so the preprocessing cost is paid only
for rows actually used.

Trade-off: per-entry ``cost(u, v)`` access triggers the full row for
``u`` (a Dijkstra), so workloads that scan all vertices (levels >= 2)
gain nothing -- use :func:`repro.static.closure.build_metric_closure`
or the DAG fast path there.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from repro.static.digraph import StaticDigraph
from repro.static.shortest_paths import dijkstra, reconstruct_path


class LazyMetricClosure:
    """Row-on-demand closure with the MetricClosure read interface."""

    __slots__ = ("graph", "_rows", "_preds")

    def __init__(self, graph: StaticDigraph) -> None:
        self.graph = graph
        self._rows: Dict[int, np.ndarray] = {}
        self._preds: Dict[int, List[int]] = {}

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    @property
    def rows_materialised(self) -> int:
        """How many source rows have been computed so far."""
        return len(self._rows)

    def _row(self, source: int) -> np.ndarray:
        row = self._rows.get(source)
        if row is None:
            dist, pred = dijkstra(self.graph, source)
            row = np.asarray(dist, dtype=np.float64)
            self._rows[source] = row
            self._preds[source] = pred
        return row

    def cost(self, source: int, target: int) -> float:
        return float(self._row(source)[target])

    def costs_from(self, source: int) -> np.ndarray:
        return self._row(source)

    def is_reachable(self, source: int, target: int) -> bool:
        return math.isfinite(self._row(source)[target])

    def path(self, source: int, target: int) -> List[int]:
        self._row(source)
        return reconstruct_path(self._preds[source], source, target)

    def path_edges(self, source: int, target: int) -> List[Tuple[int, int, float]]:
        vertices = self.path(source, target)
        edges = []
        for u, v in zip(vertices, vertices[1:]):
            best = math.inf
            for w_target, w in self.graph.out_neighbors(u):
                if w_target == v and w < best:
                    best = w
            edges.append((u, v, best))
        return edges

    @property
    def dist(self) -> np.ndarray:
        """The full matrix (materialises every remaining row).

        Provided for interface compatibility (the exact solvers need
        the dense matrix); using it forfeits the laziness.
        """
        n = self.num_vertices
        matrix = np.full((n, n), np.inf, dtype=np.float64)
        for source in range(n):
            matrix[source, :] = self._row(source)
        return matrix


def prepare_instance_lazy(instance, require_reachable: bool = True):
    """``prepare_instance`` variant backed by a lazy closure.

    Useful for level-1 solves and few-terminal Steiner queries on large
    transformed graphs; see the module docstring for the trade-off.
    Like the eager path it closes only the rooted instance
    (:func:`repro.steiner.instance.rooted_instance`).
    """
    from repro.steiner.instance import prepared_from_closure, rooted_instance

    rooted = rooted_instance(instance)
    return prepared_from_closure(
        rooted, LazyMetricClosure(rooted.graph), require_reachable
    )
