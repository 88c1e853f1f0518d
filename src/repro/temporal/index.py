"""An index for repeated time-window queries over a temporal graph.

``TemporalGraph.restricted`` scans all ``M`` edges per call; workloads
that slide a window across a long history (``repro.core.sliding``, the
epidemic example, interactive exploration) re-extract hundreds of
windows.  :class:`TemporalEdgeIndex` answers each window query in
``O(log M + output)`` from the graph's columnar store
(:mod:`repro.temporal.columnar`): binary search over the start-sorted
column plus a vectorised arrival mask.

For *sliding* workloads the index additionally answers the symmetric
difference between two windows (:meth:`TemporalEdgeIndex.delta`) in
``O(log M + |Δ|)``: a slide of a long window by a small step touches
only the edges near the two moving boundaries, never the shared bulk.
That delta is the entry point of the :mod:`repro.incremental` engine.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_left, bisect_right
from typing import Any, Iterator, List, Optional, Tuple

from repro.temporal.edge import TemporalEdge, Vertex
from repro.temporal.graph import VALUE_COLUMNS, TemporalGraph, edge_rows
from repro.temporal.window import TimeWindow


class TemporalEdgeIndex:
    """Sorted-edge index supporting fast window extraction.

    Parameters
    ----------
    graph:
        The temporal graph to index.  The index is a thin object layer
        over the graph's shared :class:`ColumnarEdgeStore`: the bulk
        queries delegate to the store's batched passes, the per-vertex
        views walk its CSR layouts, and each call builds the edges it
        returns.
    """

    __slots__ = ("_store", "_vertices", "_columns")

    def __init__(self, graph: TemporalGraph) -> None:
        self._store = graph.columnar()
        self._vertices = graph.vertices
        # (sources, targets, starts, arrivals, weights) by position.
        fields = ("sources", "targets") + VALUE_COLUMNS
        self._columns = tuple(map(self._store.python_values, fields))

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

    # ------------------------------------------------------------------
    # Sliding-window deltas
    # ------------------------------------------------------------------
    def delta(
        self, old_window: TimeWindow, new_window: TimeWindow
    ) -> Tuple[List[TemporalEdge], List[TemporalEdge]]:
        """``(added, removed)`` between two windows, ``O(log M + |Δ|)``.

        ``added`` are the edges inside ``new_window`` but not
        ``old_window``; ``removed`` the reverse.  Window membership is
        ``start >= t_alpha and arrival <= t_omega``, so an edge changes
        sides only through one of the two moving boundaries:

        * the **start boundary**: edges with ``t_alpha`` of one window
          ``<= start <`` the other's, found in the start-sorted column;
        * the **arrival boundary**: edges with ``t_omega`` of one window
          ``< arrival <=`` the other's, found in the arrival-sorted
          column.

        The two slices are disjoint and complete (an edge admitted by
        the start boundary is counted there only), and each is a
        contiguous sorted-column range, so the cost is proportional to
        the slide, not the window.  Both lists come back ordered by
        ``(start, arrival, graph position)`` -- chronological order.
        """
        store = self._store
        added, removed = store.delta_positions(old_window.as_tuple(), new_window.as_tuple())
        return store.edges_at(added), store.edges_at(removed)

    def delta_positions(
        self, old_window: TimeWindow, new_window: TimeWindow
    ) -> Tuple[List[int], List[int]]:
        """:meth:`delta` as insertion positions, in the same order."""
        store = self._store
        added, removed = store.delta_positions(old_window.as_tuple(), new_window.as_tuple())
        return added.tolist(), removed.tolist()

    # ------------------------------------------------------------------
    # Per-vertex views (the incremental repair loop's scan structures)
    # ------------------------------------------------------------------
    def _run(self, adjacency, vertex: Vertex, lo_key: Any, hi_key: Any) -> List[int]:
        """Positions of ``vertex``'s CSR run with ``lo_key <= key <= hi_key``."""
        v = self._store.vertex_ids.get(vertex)
        if v is None:
            return []
        offsets, positions, keys = adjacency
        hi = bisect_right(keys, hi_key, offsets[v], offsets[v + 1])
        return positions[bisect_left(keys, lo_key, offsets[v], hi) : hi].tolist()

    @property
    def columns(self) -> Tuple[Any, ...]:
        """``(labels, sources, targets, starts, arrivals)``: edge ``p``'s
        fields are ``labels[sources[p]]``, ``starts[p]``, ... (shared)."""
        src, dst, starts, arrivals, _ = self._columns
        return self._store.vertex_labels, src, dst, starts, arrivals

    def edge(self, p: int) -> TemporalEdge:
        """The edge at insertion position ``p``."""
        labels = self._store.vertex_labels
        src, dst, start, arrival, weight = self._columns
        return edge_rows([(labels[src[p]], labels[dst[p]], start[p], arrival[p], weight[p])])[0]

    def out_positions_enabled(self, vertex: Vertex, t: float, t_omega: float) -> List[int]:
        """Out-edges of ``vertex`` with ``start >= t`` and ``arrival <= t_omega``.

        Positions, by ``(start, arrival, position)``.
        """
        _, _, starts, arrivals, _ = self._columns
        run = self._run(self._store.out_adjacency(), vertex, t, t_omega)
        enabled = [p for p in run if arrivals[p] <= t_omega]
        # The CSR orders equal starts by descending position.
        if len({starts[p] for p in enabled}) < len(enabled):
            enabled.sort(key=lambda p: (starts[p], arrivals[p], p))
        return enabled

    def in_positions_at_arrival(self, vertex: Vertex, arrival: float) -> List[int]:
        """In-edges of ``vertex`` arriving exactly at ``arrival``, by ``(start, position)``."""
        return self._run(self._store.in_adjacency(), vertex, arrival, arrival)

    def in_positions_up_to(self, vertex: Vertex, t_omega: float) -> List[int]:
        """In-edges of ``vertex`` with ``arrival <= t_omega``, by ``(arrival, start, position)``."""
        return self._run(self._store.in_adjacency(), vertex, -math.inf, t_omega)

    def has_incident_in(self, window: TimeWindow, vertex: Vertex) -> bool:
        """Whether ``vertex`` has any incident edge inside ``window``.

        Equivalent to ``vertex in index.subgraph(window).vertices``
        without materialising the subgraph.
        """
        _, _, starts, arrivals, _ = self._columns
        t_alpha, t_omega = window.t_alpha, window.t_omega
        out = self._run(self._store.out_adjacency(), vertex, t_alpha, t_omega)
        if any(arrivals[p] <= t_omega for p in out):
            return True
        into = self._run(self._store.in_adjacency(), vertex, -math.inf, t_omega)
        return any(starts[p] >= t_alpha for p in into)

    def __len__(self) -> int:
        return self._store.num_edges


#: graph -> shared index; weak keys, and the index itself holds no
#: reference back to the graph, so entries die with their graph.
_SHARED_INDICES: "weakref.WeakKeyDictionary[TemporalGraph, TemporalEdgeIndex]" = (
    weakref.WeakKeyDictionary()
)


def edge_index_for(
    graph: TemporalGraph, create: bool = True
) -> Optional[TemporalEdgeIndex]:
    """The process-wide shared :class:`TemporalEdgeIndex` of ``graph``.

    Sliding sweeps share it so the ``O(M log M)`` build is paid once
    per graph.  With ``create=False`` the call only reports an existing
    index (``None`` otherwise) --
    used by paths that should stay ``O(M)`` when nothing sliding-shaped
    has touched the graph yet.  A graph's columnar store is built once
    and never replaced, so a cached index stays valid until the graph
    is dropped.
    """
    index = _SHARED_INDICES.get(graph)
    if index is None and create:
        index = TemporalEdgeIndex(graph)
        _SHARED_INDICES[graph] = index
    return index
