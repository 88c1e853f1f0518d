"""Temporal path algorithms (the substrate from Xuan et al. / Wu et al.).

The paper builds on single-source temporal path computations: *foremost*
(earliest-arrival) paths define ``MST_a`` and the reachable set ``V_r``;
*shortest* (minimum-weight) paths appear inside the transformed graph's
metric closure.  This module provides reference implementations that are
correct for arbitrary (including zero) edge durations.  They serve both
as a library feature and as independent oracles against which the
paper's optimised Algorithms 1 and 2 are tested.

Apart from :func:`earliest_arrival_times`, which runs the columnar
store's scatter-min sweep, the functions are label-setting
(Dijkstra-style) over arrival times, which is valid because arrival
times along a time-respecting path are non-decreasing.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Set, Tuple

from repro.temporal.edge import TemporalEdge, Vertex
from repro.temporal.graph import TemporalGraph
from repro.temporal.window import TimeWindow


def _ascending_adjacency(graph: TemporalGraph) -> Dict[Vertex, List[TemporalEdge]]:
    """Out-edges per vertex sorted by ascending start time (graph-cached)."""
    return graph.ascending_adjacency()


def earliest_arrival_times(
    graph: TemporalGraph,
    source: Vertex,
    window: Optional[TimeWindow] = None,
) -> Dict[Vertex, float]:
    """Earliest arrival time ``Ã(v)`` from ``source`` to every reachable ``v``.

    The source itself is reported with arrival ``t_alpha``.  Vertices not
    reachable through a time-respecting path within the window are
    absent from the result.

    Arrival times are reported as floats, and the result dict is built
    in canonical ``(arrival, columnar intern id)`` order.  The sweep is
    the columnar store's chunked scatter-min relaxation
    (:meth:`ColumnarEdgeStore.earliest_arrival`), which is correct for
    zero-duration edges, unlike the one-pass Algorithm 1; it is
    property-tested against the heap-based label-setting sweep frozen
    as :func:`repro.perf.legacy.legacy_earliest_arrival`.
    """
    if window is None:
        window = TimeWindow.unbounded()
    if source not in graph.vertices:
        return {}
    store = graph.columnar()
    return dict(store.earliest_arrival(source, window.t_alpha, window.t_omega))


def earliest_arrival_path(
    graph: TemporalGraph,
    source: Vertex,
    target: Vertex,
    window: Optional[TimeWindow] = None,
) -> Optional[List[TemporalEdge]]:
    """A foremost (earliest-arrival) path ``source -> target``.

    Returns the list of temporal edges of one optimal path, ``[]`` when
    ``target == source``, and ``None`` when the target is unreachable
    within the window.  The path's arrival time equals
    ``earliest_arrival_times(...)[target]``.
    """
    if window is None:
        window = TimeWindow.unbounded()
    if source not in graph.vertices or target not in graph.vertices:
        return None
    if source == target:
        return []
    adjacency = _ascending_adjacency(graph)
    starts = graph.ascending_starts()
    arrival: Dict[Vertex, float] = {source: window.t_alpha}
    parent: Dict[Vertex, TemporalEdge] = {}
    settled: Set[Vertex] = set()
    heap: List[Tuple[float, int, Vertex]] = [(window.t_alpha, 0, source)]
    counter = 1
    while heap:
        t, _, u = heapq.heappop(heap)
        if u in settled or t > arrival.get(u, math.inf):
            continue
        if u == target:
            break
        settled.add(u)
        idx = bisect_left(starts[u], t)
        for edge in adjacency[u][idx:]:
            if edge.arrival > window.t_omega:
                continue
            if edge.arrival < arrival.get(edge.target, math.inf):
                arrival[edge.target] = edge.arrival
                parent[edge.target] = edge
                heapq.heappush(heap, (edge.arrival, counter, edge.target))
                counter += 1
    if target not in parent:
        return None
    path: List[TemporalEdge] = []
    current = target
    while current != source:
        edge = parent[current]
        path.append(edge)
        current = edge.source
    path.reverse()
    return path


def reachable_set(
    graph: TemporalGraph,
    source: Vertex,
    window: Optional[TimeWindow] = None,
) -> Set[Vertex]:
    """All vertices reachable from ``source`` within the window (incl. source)."""
    return set(earliest_arrival_times(graph, source, window))


def latest_departure_times(
    graph: TemporalGraph,
    target: Vertex,
    window: Optional[TimeWindow] = None,
) -> Dict[Vertex, float]:
    """Latest time one can leave each vertex and still reach ``target``.

    The symmetric counterpart of earliest arrival: traverses in-edges
    backwards with a max-heap.  ``target`` itself is reported with
    departure ``t_omega``.
    """
    if window is None:
        window = TimeWindow.unbounded()
    if target not in graph.vertices:
        return {}
    in_adjacency: Dict[Vertex, List[TemporalEdge]] = {v: [] for v in graph.vertices}
    for edge in graph.edges:
        in_adjacency[edge.target].append(edge)
    for edges in in_adjacency.values():
        edges.sort(key=lambda e: e.arrival)
    arrivals: Dict[Vertex, List[float]] = {
        v: [e.arrival for e in edges] for v, edges in in_adjacency.items()
    }
    departure: Dict[Vertex, float] = {target: window.t_omega}
    settled: Set[Vertex] = set()
    heap: List[Tuple[float, int, Vertex]] = [(-window.t_omega, 0, target)]
    counter = 1
    while heap:
        neg_t, _, v = heapq.heappop(heap)
        t = -neg_t
        if v in settled or t < departure.get(v, -math.inf):
            continue
        settled.add(v)
        # Relax every in-edge arriving no later than our departure from v.
        hi = bisect_right(arrivals[v], t)
        for edge in in_adjacency[v][:hi]:
            if edge.start < window.t_alpha:
                continue
            if edge.start > departure.get(edge.source, -math.inf):
                departure[edge.source] = edge.start
                heapq.heappush(heap, (-edge.start, counter, edge.source))
                counter += 1
    return departure


def fastest_path_durations(
    graph: TemporalGraph,
    source: Vertex,
    window: Optional[TimeWindow] = None,
) -> Dict[Vertex, float]:
    """Minimum elapsed time (arrival - departure) from ``source`` to each vertex.

    Implemented by the standard reduction: for every distinct departure
    time ``t`` of an out-edge of ``source``, run an earliest-arrival
    sweep restricted to departures at or after ``t`` and keep the best
    span per target.  The source is reported with duration 0.
    """
    if window is None:
        window = TimeWindow.unbounded()
    departures = sorted(
        {
            e.start
            for e in graph.out_edges(source)
            if e.start >= window.t_alpha and e.arrival <= window.t_omega
        }
    )
    best: Dict[Vertex, float] = {source: 0.0}
    for t in departures:
        sub_window = TimeWindow(t, window.t_omega)
        arrivals = earliest_arrival_times(graph, source, sub_window)
        for vertex, arr in arrivals.items():
            if vertex == source:
                continue
            span = arr - t
            if span < best.get(vertex, math.inf):
                best[vertex] = span
    return best


def shortest_path_distances(
    graph: TemporalGraph,
    source: Vertex,
    window: Optional[TimeWindow] = None,
) -> Dict[Vertex, float]:
    """Minimum total edge weight of a time-respecting path to each vertex.

    Runs Dijkstra over ``(vertex, arrival-time)`` states -- equivalent to
    shortest paths in the paper's transformed graph but computed on the
    fly.  Intended for moderate graphs (tests, oracles); the production
    path for minimum-weight structures is the Section 4 pipeline.
    """
    if window is None:
        window = TimeWindow.unbounded()
    if source not in graph.vertices:
        return {}
    adjacency = _ascending_adjacency(graph)
    starts = graph.ascending_starts()
    # State = (vertex, arrival time at vertex).  dist maps states to the
    # cheapest cost of reaching that state.
    dist: Dict[Tuple[Vertex, float], float] = {(source, window.t_alpha): 0.0}
    best: Dict[Vertex, float] = {source: 0.0}
    heap: List[Tuple[float, int, Vertex, float]] = [(0.0, 0, source, window.t_alpha)]
    counter = 1
    while heap:
        cost, _, u, t = heapq.heappop(heap)
        if cost > dist.get((u, t), math.inf):
            continue
        idx = bisect_left(starts[u], t)
        for edge in adjacency[u][idx:]:
            if edge.arrival > window.t_omega:
                continue
            state = (edge.target, edge.arrival)
            new_cost = cost + edge.weight
            if new_cost < dist.get(state, math.inf):
                dist[state] = new_cost
                if new_cost < best.get(edge.target, math.inf):
                    best[edge.target] = new_cost
                heapq.heappush(heap, (new_cost, counter, edge.target, edge.arrival))
                counter += 1
    return best
