"""Temporal path algorithms (the substrate from Xuan et al. / Wu et al.).

The paper builds on single-source temporal path computations: *foremost*
(earliest-arrival) paths define ``MST_a`` and the reachable set ``V_r``;
*shortest* (minimum-weight) paths appear inside the transformed graph's
metric closure.  This module provides reference implementations that are
correct for arbitrary (including zero) edge durations.

Apart from :func:`earliest_arrival_times`, which runs the columnar
store's scatter-min sweep, the functions are label-setting
(Dijkstra-style) over arrival times, which is valid because arrival
times along a time-respecting path are non-decreasing.  They walk the
store's CSR layouts by intern id -- as Algorithm 2 does, so Algorithms
1 and 2 are tested against frozen object-level oracles instead.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.temporal.edge import TemporalEdge, Vertex
from repro.temporal.graph import TemporalGraph
from repro.temporal.window import TimeWindow


def _departures(store: Any, u: int, t: Any) -> List[int]:
    """Positions of ``u``'s out-edges starting at ``t`` or later, by (start, position)."""
    offsets, positions, starts = store.out_adjacency()
    end = offsets[u + 1]
    start_of = store.python_values("starts")
    run = positions[bisect_left(starts, t, offsets[u], end) : end]
    return sorted(run, key=lambda p: (start_of[p], p))


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
    as ``legacy_earliest_arrival`` in the test oracle ``tests/legacy.py``.
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
    store = graph.columnar()
    arrivals = store.python_values("arrivals")
    targets = store.python_values("targets")
    src, dst = store.vertex_ids[source], store.vertex_ids[target]
    arrival: Dict[int, float] = {src: window.t_alpha}
    parent: Dict[int, int] = {}
    settled: Set[int] = set()
    heap: List[Tuple[float, int, int]] = [(window.t_alpha, 0, src)]
    counter = 1
    while heap:
        t, _, u = heapq.heappop(heap)
        if u in settled or t > arrival.get(u, math.inf):
            continue
        if u == dst:
            break
        settled.add(u)
        for p in _departures(store, u, t):
            a = arrivals[p]
            if a > window.t_omega:
                continue
            v = targets[p]
            if a < arrival.get(v, math.inf):
                arrival[v] = a
                parent[v] = p
                heapq.heappush(heap, (a, counter, v))
                counter += 1
    if dst not in parent:
        return None
    sources = store.python_values("sources")
    path: List[int] = []
    current = dst
    while current != src:
        path.append(parent[current])
        current = sources[path[-1]]
    path.reverse()
    return graph.edges_at(np.array(path, dtype=np.int64))


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
    store = graph.columnar()
    offsets, positions, arrivals = store.in_adjacency()
    arrival_of = store.python_values("arrivals")
    starts = store.python_values("starts")
    sources = store.python_values("sources")
    dst = store.vertex_ids[target]
    departure: Dict[int, float] = {dst: window.t_omega}
    settled: Set[int] = set()
    heap: List[Tuple[float, int, int]] = [(-window.t_omega, 0, dst)]
    counter = 1
    while heap:
        neg_t, _, v = heapq.heappop(heap)
        t = -neg_t
        if v in settled or t < departure.get(v, -math.inf):
            continue
        settled.add(v)
        # Relax v's in-edges arriving by t, by (arrival, position).
        run = positions[offsets[v] : bisect_right(arrivals, t, offsets[v], offsets[v + 1])]
        for p in sorted(run, key=lambda p: (arrival_of[p], p)):
            s = starts[p]
            if s < window.t_alpha:
                continue
            u = sources[p]
            if s > departure.get(u, -math.inf):
                departure[u] = s
                heapq.heappush(heap, (-s, counter, u))
                counter += 1
    labels = store.vertex_labels
    return {labels[v]: t for v, t in departure.items()}


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
    store = graph.columnar()
    arrivals = store.python_values("arrivals")
    targets = store.python_values("targets")
    weights = store.python_values("weights")
    src = store.vertex_ids[source]
    # State = (vertex id, arrival time at vertex).  dist maps states to
    # the cheapest cost of reaching that state.
    dist: Dict[Tuple[int, float], float] = {(src, window.t_alpha): 0.0}
    best: Dict[int, float] = {src: 0.0}
    heap: List[Tuple[float, int, int, float]] = [(0.0, 0, src, window.t_alpha)]
    counter = 1
    while heap:
        cost, _, u, t = heapq.heappop(heap)
        if cost > dist.get((u, t), math.inf):
            continue
        for p in _departures(store, u, t):
            a = arrivals[p]
            if a > window.t_omega:
                continue
            v = targets[p]
            state = (v, a)
            new_cost = cost + weights[p]
            if new_cost < dist.get(state, math.inf):
                dist[state] = new_cost
                if new_cost < best.get(v, math.inf):
                    best[v] = new_cost
                heapq.heappush(heap, (new_cost, counter, v, a))
                counter += 1
    labels = store.vertex_labels
    return {labels[v]: cost for v, cost in best.items()}
