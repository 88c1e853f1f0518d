"""Byte-identity of the CSR walks against frozen object-level oracles.

Algorithm 2 (:func:`repro.core.msta.msta_stack`), the
:mod:`repro.temporal.paths` sweeps, ``TemporalGraph.out_edges`` /
``in_edges`` and the store's incident-edge test
(:meth:`ColumnarEdgeStore.has_incident_in`, which the sliding engine
asks of every window's root) walk the columnar store's CSR layouts.
Each is checked here against a frozen copy of the code it replaced,
which keeps its own per-vertex lists of edge objects (the ``_scalar_alg1`` pattern of
``tests/test_property_columnar.py``): parent dicts with their key
order, arrival and departure dicts with theirs, returned paths and
edge sequences, and budget ticks.

The graphs carry zero durations, equal-start and equal-arrival ties,
exact parallel duplicates, isolated vertices, non-int labels, and
timestamps float64 cannot order exactly (ints above ``2**53``, one set
beyond int64, ``Fraction``s), next to plain floats and ints.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Dict, List, Optional, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import BudgetExceededError
from repro.core.msta import msta_stack
from repro.core.spanning_tree import TemporalSpanningTree
from repro.datasets.registry import load_dataset
from repro.resilience.budget import NULL_BUDGET, Budget
from repro.temporal.edge import TemporalEdge, Vertex, make_edge
from repro.temporal.graph import TemporalGraph
from repro.temporal.paths import (
    earliest_arrival_path,
    earliest_arrival_times,
    fastest_path_durations,
    latest_departure_times,
    shortest_path_distances,
)
from repro.temporal.window import TimeWindow


# ----------------------------------------------------------------------
# Frozen oracles: the walks as they stood on per-vertex object lists
# ----------------------------------------------------------------------
def _out_lists(graph: TemporalGraph, key) -> Dict[Vertex, List[TemporalEdge]]:
    """Out-edges per vertex (every vertex a key), stably sorted by ``key``."""
    adjacency: Dict[Vertex, List[TemporalEdge]] = {v: [] for v in graph.vertices}
    for edge in graph.edges:
        adjacency[edge.source].append(edge)
    for out_list in adjacency.values():
        out_list.sort(key=key)
    return adjacency


def frozen_msta_stack(graph, root, window, budget=None):
    """Algorithm 2 over the descending-start object adjacency."""
    adjacency = _out_lists(graph, lambda e: -e.start)
    position: Dict[Vertex, int] = {v: 0 for v in graph.vertices}
    arrival: Dict[Vertex, float] = {}
    parent: Dict[Vertex, TemporalEdge] = {}
    inf = float("inf")
    stack: List[Tuple[Optional[TemporalEdge], Vertex, float]] = [
        (None, root, window.t_alpha)
    ]
    tick = budget if budget is not None else NULL_BUDGET
    while stack:
        tick.checkpoint()
        edge_in, v, t_arr = stack.pop()
        if t_arr >= arrival.get(v, inf):
            continue
        arrival[v] = t_arr
        if edge_in is not None:
            parent[v] = edge_in
        out_edges = adjacency[v]
        pos = position[v]
        while pos < len(out_edges) and out_edges[pos].start >= t_arr:
            edge = out_edges[pos]
            pos += 1
            if edge.arrival > window.t_omega or edge.start < window.t_alpha:
                continue
            if edge.arrival < arrival.get(edge.target, inf):
                stack.append((edge, edge.target, edge.arrival))
        position[v] = pos
    return parent


def frozen_earliest_arrival_path(graph, source, target, window):
    if source not in graph.vertices or target not in graph.vertices:
        return None
    if source == target:
        return []
    adjacency = _out_lists(graph, lambda e: e.start)
    starts = {v: [e.start for e in edges] for v, edges in adjacency.items()}
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


def frozen_latest_departure_times(graph, target, window):
    if target not in graph.vertices:
        return {}
    in_adjacency: Dict[Vertex, List[TemporalEdge]] = {v: [] for v in graph.vertices}
    for edge in graph.edges:
        in_adjacency[edge.target].append(edge)
    for edges in in_adjacency.values():
        edges.sort(key=lambda e: e.arrival)
    arrivals = {v: [e.arrival for e in edges] for v, edges in in_adjacency.items()}
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
        hi = bisect_right(arrivals[v], t)
        for edge in in_adjacency[v][:hi]:
            if edge.start < window.t_alpha:
                continue
            if edge.start > departure.get(edge.source, -math.inf):
                departure[edge.source] = edge.start
                heapq.heappush(heap, (-edge.start, counter, edge.source))
                counter += 1
    return departure


def frozen_fastest_path_durations(graph, source, window):
    out_edges = [e for e in graph.edges if e.source == source]
    departures = sorted(
        {
            e.start
            for e in out_edges
            if e.start >= window.t_alpha and e.arrival <= window.t_omega
        }
    )
    best: Dict[Vertex, float] = {source: 0.0}
    for t in departures:
        arrivals = earliest_arrival_times(graph, source, TimeWindow(t, window.t_omega))
        for vertex, arr in arrivals.items():
            if vertex == source:
                continue
            span = arr - t
            if span < best.get(vertex, math.inf):
                best[vertex] = span
    return best


def frozen_shortest_path_distances(graph, source, window):
    if source not in graph.vertices:
        return {}
    adjacency = _out_lists(graph, lambda e: e.start)
    starts = {v: [e.start for e in edges] for v, edges in adjacency.items()}
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


class FrozenIndexViews:
    """The incident-edge test over per-vertex object lists.

    The out lists are ordered by ``(start, arrival, position)``, the in
    lists by ``(arrival, start, position)`` -- by the edges' exact
    values, not their float64 columns.
    """

    def __init__(self, graph: TemporalGraph) -> None:
        chronological = sorted(graph.edges, key=lambda e: (e.start, e.arrival))
        by_arrival = sorted(graph.edges, key=lambda e: (e.arrival, e.start))
        out: Dict[Vertex, List[TemporalEdge]] = {}
        for e in chronological:
            out.setdefault(e.source, []).append(e)
        into: Dict[Vertex, List[TemporalEdge]] = {}
        for e in by_arrival:
            into.setdefault(e.target, []).append(e)
        self._out = {v: ([e.start for e in es], es) for v, es in out.items()}
        self._in = {v: ([e.arrival for e in es], es) for v, es in into.items()}

    def has_incident_in(self, window, vertex):
        entry = self._out.get(vertex)
        if entry is not None:
            starts, edges = entry
            i = bisect_left(starts, window.t_alpha)
            while i < len(starts) and starts[i] <= window.t_omega:
                if edges[i].arrival <= window.t_omega:
                    return True
                i += 1
        entry = self._in.get(vertex)
        if entry is not None:
            arrivals, edges = entry
            hi = bisect_right(arrivals, window.t_omega)
            for i in range(hi):
                if edges[i].start >= window.t_alpha:
                    return True
        return False


# ----------------------------------------------------------------------
# Graphs
# ----------------------------------------------------------------------
#: Time encodings: grid step ``x`` -> timestamp.  ``big`` ints share one
#: float64 value (2**60 + x rounds to 2**60), ``huge`` ones do not fit
#: int64, and ``mixed`` draws floats, ints and ``Fraction``s of equal
#: or close values into one column.
_TIMES = {
    "float": lambda x, pick: x / 2,
    "int": lambda x, pick: x,
    "big": lambda x, pick: 2**60 + x,
    "huge": lambda x, pick: 2**70 + x,
    "fraction": lambda x, pick: Fraction(x, 3),
    "mixed": lambda x, pick: (x / 2, Fraction(x, 2), x // 2)[pick],
}

_LABELS = {
    "int": lambda i: i,
    "str": lambda i: f"v{i}",
    "tuple": lambda i: ("v", i),
}


@st.composite
def walk_cases(draw, max_vertices=7, max_edges=24):
    """``(edges, extras, window, column_built)`` over one time encoding."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    encode = _TIMES[draw(st.sampled_from(sorted(_TIMES)))]
    label = _LABELS[draw(st.sampled_from(sorted(_LABELS)))]
    extras = [label(i) for i in range(n + draw(st.integers(0, 2)))]
    edges = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_edges))):
        u = label(draw(st.integers(min_value=0, max_value=n - 1)))
        v = label(draw(st.integers(min_value=0, max_value=n - 1)))
        x = draw(st.integers(min_value=0, max_value=12))
        duration = draw(st.sampled_from([0, 0, 1, 2, 4]))
        start = encode(x, draw(st.integers(0, 2)))
        arrival = encode(x + duration, draw(st.integers(0, 2)))
        if arrival < start:
            start, arrival = arrival, start
        weight = draw(st.sampled_from([0, 1, 2, 3.5]))
        edges.append(make_edge(u, v, start, arrival, weight))
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            edges.append(edges[-1])  # an exact parallel duplicate
    times = sorted({t for e in edges for t in (e.start, e.arrival)})
    if not times or draw(st.booleans()):
        window = TimeWindow(0, math.inf)
    else:
        bounds = sorted(draw(st.lists(st.sampled_from(times), min_size=2, max_size=2)))
        window = TimeWindow(*bounds)
    return edges, extras, window, draw(st.booleans())


def _graph(edges, extras, column_built):
    """The graph under test: from columns or from edge objects."""
    if column_built:
        columns = tuple(zip(*edges)) or ((),) * 5
        return TemporalGraph.from_columns(*columns, vertices=extras)
    return TemporalGraph(edges, vertices=extras)


def _typed(edges):
    """Edges as typed data: a float and an equal int differ."""
    return [tuple(map(repr, e)) for e in edges]


def _items(mapping):
    """A dict as typed data, in key order."""
    return [
        (repr(k), _typed([v])[0] if isinstance(v, TemporalEdge) else repr(v))
        for k, v in mapping.items()
    ]


def _ticks(solve, limit):
    """``(outcome, trip expansions, budget expansions)`` under a limit."""
    budget = Budget(max_expansions=limit)
    try:
        result = solve(budget)
    except BudgetExceededError as exc:
        return "tripped", exc.expansions, budget.expansions
    return _items(result), None, budget.expansions


# ----------------------------------------------------------------------
# The walks against their oracles
# ----------------------------------------------------------------------
@settings(max_examples=250, deadline=None)
@given(case=walk_cases())
def test_alg2_matches_frozen_stack(case):
    """Parent dict, key order and edges; budget trips at the same pop."""
    edges, extras, window, column_built = case
    graph = _graph(edges, extras, column_built)
    twin = TemporalGraph(edges, vertices=extras)
    for root in extras:
        got = msta_stack(graph, root, window)
        expected = frozen_msta_stack(twin, root, window)
        assert isinstance(got, TemporalSpanningTree)
        assert _items(got.parent_edge) == _items(expected)
    root = extras[0]
    full = Budget()
    frozen_msta_stack(twin, root, window, full)
    for limit in sorted({0, 1, full.expansions // 2, full.expansions, 10**6}):
        assert _ticks(
            lambda b: msta_stack(graph, root, window, budget=b).parent_edge, limit
        ) == _ticks(lambda b: frozen_msta_stack(twin, root, window, b), limit)
    if column_built:
        # Only the tree's edges were built.
        assert graph._edges is None


@settings(max_examples=150, deadline=None)
@given(case=walk_cases())
def test_path_sweeps_match_frozen_sweeps(case):
    edges, extras, window, column_built = case
    graph = _graph(edges, extras, column_built)
    twin = TemporalGraph(edges, vertices=extras)
    for source in extras:
        for target in extras:
            got = earliest_arrival_path(graph, source, target, window)
            expected = frozen_earliest_arrival_path(twin, source, target, window)
            assert (got is None) == (expected is None)
            if got is not None:
                assert _typed(got) == _typed(expected)
        assert _items(latest_departure_times(graph, source, window)) == _items(
            frozen_latest_departure_times(twin, source, window)
        )
        assert _items(shortest_path_distances(graph, source, window)) == _items(
            frozen_shortest_path_distances(twin, source, window)
        )
        assert _items(fastest_path_durations(graph, source, window)) == _items(
            frozen_fastest_path_durations(twin, source, window)
        )
    # A vertex outside the graph.
    assert earliest_arrival_path(graph, "absent", extras[0], window) is None
    assert latest_departure_times(graph, "absent", window) == {}
    assert shortest_path_distances(graph, "absent", window) == {}


@settings(max_examples=150, deadline=None)
@given(case=walk_cases())
def test_index_views_match_frozen_views(case):
    """The store's incident-edge test, for every vertex and probe window."""
    edges, extras, window, column_built = case
    store = _graph(edges, extras, column_built).columnar()
    frozen = FrozenIndexViews(TemporalGraph(edges, vertices=extras))
    times = sorted({t for e in edges for t in (e.start, e.arrival)}) + [math.inf]
    probes = [window]
    probes += [TimeWindow(t, window.t_omega) for t in times if t <= window.t_omega]
    probes += [TimeWindow(window.t_alpha, t) for t in times if t >= window.t_alpha]
    for v in extras + ["absent"]:
        for probe in probes:
            assert store.has_incident_in(v, probe.t_alpha, probe.t_omega) == (
                frozen.has_incident_in(probe, v)
            ), (v, probe)


@settings(max_examples=100, deadline=None)
@given(case=walk_cases())
def test_incident_edges_in_insertion_order(case):
    edges, extras, _, column_built = case
    graph = _graph(edges, extras, column_built)
    for v in extras + ["absent"]:
        assert _typed(graph.out_edges(v)) == _typed(e for e in edges if e.source == v)
        assert _typed(graph.in_edges(v)) == _typed(e for e in edges if e.target == v)


def test_csr_orders_times_exactly_where_float64_ties_them():
    """Distinct big-int starts that share one float64 value stay ordered."""
    base = 2**60
    edges = [
        make_edge("a", "b", base + 3, base + 9, 1),
        make_edge("a", "c", base + 1, base + 9, 1),
        make_edge("a", "d", base + 2, base + 2, 1),
    ]
    graph = TemporalGraph(edges)
    store = graph.columnar()
    assert float(base + 1) == float(base + 3)
    offsets, positions, starts = store.out_adjacency()
    a = store.vertex_ids["a"]
    run = slice(offsets[a], offsets[a + 1])
    assert list(positions[run]) == [1, 2, 0]
    assert list(starts[run]) == [base + 1, base + 2, base + 3]


@pytest.mark.parametrize("name", ["phone", "epinions"])
def test_alg2_matches_frozen_stack_on_datasets(name):
    """Zero-duration dataset graphs, full window and a windowed cut."""
    graph = load_dataset(name, scale=0.5, seed=0).with_durations(0.0)
    twin = TemporalGraph(graph.edges, vertices=graph.vertices)
    store = graph.columnar()
    t_start, t_end = graph.time_span()
    windows = [
        TimeWindow.unbounded(),
        TimeWindow(t_start + 0.4 * (t_end - t_start), t_start + 0.6 * (t_end - t_start)),
    ]
    sample = store.positions_by_start()[:: max(1, graph.num_edges // 5)]
    roots = sorted({e.source for e in store.edges_at(sample)}, key=repr)
    for window in windows:
        for root in roots:
            got = msta_stack(graph, root, window)
            expected = frozen_msta_stack(twin, root, window)
            assert _items(got.parent_edge) == _items(expected)
