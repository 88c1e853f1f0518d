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

import weakref
from bisect import bisect_left, bisect_right
from typing import Dict, Iterator, List, Optional, Tuple

from repro.temporal.edge import TemporalEdge, Vertex
from repro.temporal.graph import TemporalGraph
from repro.temporal.window import TimeWindow


class TemporalEdgeIndex:
    """Sorted-edge index supporting fast window extraction.

    Parameters
    ----------
    graph:
        The temporal graph to index.  The index is a thin object layer
        over the graph's shared :class:`ColumnarEdgeStore`: the bulk
        queries delegate to the store's batched passes, while the
        per-vertex adjacency views (the incremental repair loop's scan
        structures) stay object-level and are built lazily.
    """

    __slots__ = (
        "_store",
        "_edges",
        "_ranks",
        "_starts",
        "_vertices",
        "_arrival_order",
        "_arrivals_sorted",
        "_out_by_source",
        "_in_by_target",
    )

    def __init__(self, graph: TemporalGraph) -> None:
        store = graph.columnar()
        self._store = store
        # The graph's own edge objects in the store's stable (start,
        # arrival, position) order -- the order of
        # graph.chronological_edges() -- so every list the index hands
        # out shares them.
        edges = graph.edges
        self._edges: List[TemporalEdge] = [
            edges[p] for p in store.positions_by_start().tolist()
        ]
        self._ranks = store.start_ranks()
        self._starts = store.sorted_starts()
        self._vertices = graph.vertices
        # Arrival-sorted view: ranks into _edges ordered by (arrival,
        # start, graph position); drives the per-target in-edge lists.
        self._arrival_order: List[int] = self._ranks[
            store.positions_by_arrival()
        ].tolist()
        self._arrivals_sorted = store.sorted_arrivals()
        # Lazy per-vertex adjacency used by the incremental repair loop.
        self._out_by_source: Optional[Dict[Vertex, Tuple[List[float], List[TemporalEdge]]]] = None
        self._in_by_target: Optional[Dict[Vertex, Tuple[List[float], List[TemporalEdge]]]] = None

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def _at(self, positions) -> List[TemporalEdge]:
        """The indexed edges at graph insertion ``positions``."""
        edges = self._edges
        return [edges[r] for r in self._ranks[positions].tolist()]

    def edges_in(self, window: TimeWindow) -> List[TemporalEdge]:
        """All edges with ``start >= t_alpha`` and ``arrival <= t_omega``.

        Chronological order; one batched pass over the store.
        """
        return self._at(self._store.window_positions(window.t_alpha, window.t_omega))

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
        i = bisect_left(self._starts, t)
        if i == len(self._starts):
            return None
        return float(self._starts[i])

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
        added, removed = self._store.delta_positions(
            old_window.as_tuple(), new_window.as_tuple()
        )
        return self._at(added), self._at(removed)

    # ------------------------------------------------------------------
    # Per-vertex views (the incremental repair loop's scan structures)
    # ------------------------------------------------------------------
    def _source_adjacency(self) -> Dict[Vertex, Tuple[List[float], List[TemporalEdge]]]:
        if self._out_by_source is None:
            grouped: Dict[Vertex, List[TemporalEdge]] = {}
            # _edges is already (start, arrival, position)-sorted, so the
            # per-source sublists inherit ascending-start order.
            for e in self._edges:
                grouped.setdefault(e.source, []).append(e)
            self._out_by_source = {
                v: ([e.start for e in edges], edges) for v, edges in grouped.items()
            }
        return self._out_by_source

    def _target_adjacency(self) -> Dict[Vertex, Tuple[List[float], List[TemporalEdge]]]:
        if self._in_by_target is None:
            grouped: Dict[Vertex, List[TemporalEdge]] = {}
            # Walk the arrival-sorted view so the per-target sublists
            # are ordered by (arrival, start, graph position) -- the
            # exact tie-break order of Algorithm 1's parent choice.
            for j in self._arrival_order:
                e = self._edges[j]
                grouped.setdefault(e.target, []).append(e)
            self._in_by_target = {
                v: ([e.arrival for e in edges], edges) for v, edges in grouped.items()
            }
        return self._in_by_target

    def out_edges_enabled(
        self, vertex: Vertex, t: float, t_omega: float
    ) -> Iterator[TemporalEdge]:
        """Out-edges of ``vertex`` with ``start >= t`` and ``arrival <= t_omega``.

        Bisects the per-source ascending-start array and stops at the
        first start past ``t_omega`` -- the repair loop's out-scan.
        """
        entry = self._source_adjacency().get(vertex)
        if entry is None:
            return
        starts, edges = entry
        i = bisect_left(starts, t)
        while i < len(starts) and starts[i] <= t_omega:
            e = edges[i]
            if e.arrival <= t_omega:
                yield e
            i += 1

    def in_edges_at_arrival(
        self, vertex: Vertex, arrival: float
    ) -> Iterator[TemporalEdge]:
        """In-edges of ``vertex`` arriving exactly at ``arrival``.

        Yielded in ``(start, graph position)`` order -- the run feeding
        the canonical parent-edge choice after an incremental repair.
        """
        entry = self._target_adjacency().get(vertex)
        if entry is None:
            return
        arrivals, edges = entry
        i = bisect_left(arrivals, arrival)
        while i < len(arrivals) and arrivals[i] == arrival:
            yield edges[i]
            i += 1

    def in_edges_up_to(
        self, vertex: Vertex, t_omega: float
    ) -> Iterator[TemporalEdge]:
        """In-edges of ``vertex`` with ``arrival <= t_omega`` (arrival order)."""
        entry = self._target_adjacency().get(vertex)
        if entry is None:
            return
        arrivals, edges = entry
        hi = bisect_right(arrivals, t_omega)
        for i in range(hi):
            yield edges[i]

    def has_incident_in(self, window: TimeWindow, vertex: Vertex) -> bool:
        """Whether ``vertex`` has any incident edge inside ``window``.

        Equivalent to ``vertex in index.subgraph(window).vertices``
        without materialising the subgraph.
        """
        entry = self._source_adjacency().get(vertex)
        if entry is not None:
            starts, edges = entry
            i = bisect_left(starts, window.t_alpha)
            while i < len(starts) and starts[i] <= window.t_omega:
                if edges[i].arrival <= window.t_omega:
                    return True
                i += 1
        entry = self._target_adjacency().get(vertex)
        if entry is not None:
            arrivals, edges = entry
            hi = bisect_right(arrivals, window.t_omega)
            for i in range(hi):
                if edges[i].start >= window.t_alpha:
                    return True
        return False

    def __len__(self) -> int:
        return len(self._edges)


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
