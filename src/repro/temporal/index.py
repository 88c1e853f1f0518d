"""An index for repeated time-window queries over a temporal graph.

``TemporalGraph.restricted`` scans all ``M`` edges per call on a graph
without a built store; workloads that query many windows of one
history (the zero-duration path of :mod:`repro.incremental`, snapshot
series, interactive exploration) re-extract many windows.
:class:`TemporalEdgeIndex` answers each window query in
``O(log M + output)`` from the graph's columnar store
(:mod:`repro.temporal.columnar`): binary search over the start-sorted
column plus a vectorised arrival mask.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, List, Optional

from repro.temporal.edge import TemporalEdge
from repro.temporal.graph import TemporalGraph
from repro.temporal.window import TimeWindow


class TemporalEdgeIndex:
    """Sorted-edge index supporting fast window extraction.

    Parameters
    ----------
    graph:
        The temporal graph to index.  The index is a thin object layer
        over the graph's shared :class:`ColumnarEdgeStore`: the queries
        delegate to the store's batched passes, and each call builds
        the edges it returns.
    """

    __slots__ = ("_store", "_vertices")

    def __init__(self, graph: TemporalGraph) -> None:
        self._store = graph.columnar()
        self._vertices = graph.vertices

    def edges_in(self, window: TimeWindow) -> List[TemporalEdge]:
        """All edges with ``start >= t_alpha`` and ``arrival <= t_omega``.

        Chronological order; one batched pass over the store.
        """
        return self._store.edges_at(
            self._store.window_positions(window.t_alpha, window.t_omega)
        )

    def iter_edges_in(self, window: TimeWindow) -> Iterator[TemporalEdge]:
        """Yield the window's edges in chronological order."""
        return iter(self.edges_in(window))

    def count_in(self, window: TimeWindow) -> int:
        """Number of edges inside the window (no list materialised)."""
        return self._store.count_in(window.t_alpha, window.t_omega)

    def subgraph(self, window: TimeWindow, keep_vertices: bool = False) -> TemporalGraph:
        """The windowed :class:`TemporalGraph` (``G[t_alpha, t_omega]``).

        ``keep_vertices=True`` preserves the full original vertex set
        (isolated vertices included), matching
        ``TemporalGraph(edges, vertices=...)`` semantics; the default
        mirrors ``TemporalGraph.restricted``, whose vertex set is
        induced by the surviving edges.
        """
        edges = self.edges_in(window)
        if keep_vertices:
            return TemporalGraph(edges, vertices=self._vertices)
        return TemporalGraph(edges)

    def first_start_after(self, t: float) -> Optional[float]:
        """The earliest edge start time ``>= t`` (None past the end).

        Lets sliding sweeps skip empty stretches of the timeline.
        """
        starts = self._store.sorted_starts()
        i = bisect_left(starts, t)
        return None if i == len(starts) else float(starts[i])

    def __len__(self) -> int:
        return self._store.num_edges
