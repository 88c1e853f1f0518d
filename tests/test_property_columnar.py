"""Identity suite for the columnar temporal-graph core.

Every query the :class:`repro.temporal.columnar.ColumnarEdgeStore`
answers is checked against the scalar object-level code it replaced,
frozen in :mod:`repro.perf.legacy`, and the contract is not "close
enough" but *byte-identical output*: same values, same types, same
ordering, all the way up through the MST_a / MST_w solvers.

CI re-runs this file next to ``test_property_kernels.py`` and fails
the job if any test here is skipped.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.errors import UnreachableRootError, ZeroDurationError
from repro.core.msta import msta_chronological, msta_stack
from repro.core.mstw import minimum_spanning_tree_w
from repro.core.postprocess import closure_tree_to_temporal
from repro.core.transformation import transform_temporal_graph
from repro.perf.legacy import (
    legacy_earliest_arrival,
    legacy_extract_window,
    legacy_transform,
    scalar_pruned_dst,
)
from repro.steiner.instance import prepare_instance
from repro.temporal.edge import TemporalEdge
from repro.temporal.graph import TemporalGraph
from repro.temporal.index import TemporalEdgeIndex
from repro.temporal.paths import earliest_arrival_times
from repro.temporal.window import TimeWindow


@st.composite
def graphs(draw, max_vertices=8, max_edges=24):
    """Random temporal multigraphs exercising the nasty cases.

    Parallel edges, self-loops, zero durations, and *mixed numeric
    types*: timestamps and weights are drawn as ints or floats, because
    the store's ``arrivals_are_float``/``weights_are_float`` fast paths
    must fall back to the edge objects exactly when a graph carries
    non-float values.
    """
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    as_float = draw(st.booleans())
    edges = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_edges))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        start = draw(st.integers(min_value=0, max_value=30))
        duration = draw(st.integers(min_value=0, max_value=5))
        weight = draw(st.integers(min_value=0, max_value=9))
        if as_float:
            edges.append(
                TemporalEdge(u, v, float(start), float(start + duration), float(weight))
            )
        else:
            edges.append(TemporalEdge(u, v, start, start + duration, weight))
    return TemporalGraph(edges, vertices=range(n))


@st.composite
def windows(draw):
    lo = draw(st.integers(min_value=0, max_value=30))
    length = draw(st.integers(min_value=0, max_value=30))
    return TimeWindow(float(lo), float(lo + length))


def _fresh(graph: TemporalGraph) -> TemporalGraph:
    """A same-edges graph with no cached store (forces a clean build)."""
    return TemporalGraph(graph.edges, vertices=graph.vertices)


def _legacy_positions(graph: TemporalGraph, window: TimeWindow):
    """Insertion positions of the edges ``legacy_extract_window`` keeps."""
    kept = legacy_extract_window(graph, window).edges
    positions = [
        p
        for p, e in enumerate(graph.edges)
        if e.within(window.t_alpha, window.t_omega)
    ]
    assert [graph.edges[p] for p in positions] == list(kept)
    return positions


def _transform_fingerprint(tg):
    d = tg.digraph
    return (
        tuple(d.labels()),
        tuple(d.iter_labeled_edges()),
        tg.root_label,
        tuple(sorted((repr(v), tuple(i)) for v, i in tg.arrival_instances.items())),
        tuple(sorted(tg.solid_origin.items(), key=lambda kv: repr(kv[0]))),
        tg.skipped_edges,
    )


@settings(max_examples=60, deadline=None)
@given(graph=graphs(), window=windows())
def test_window_queries_identical(graph, window):
    store = _fresh(graph).columnar()
    expected = _legacy_positions(graph, window)
    graph_order = [
        int(p)
        for p in store.window_positions_graph_order(window.t_alpha, window.t_omega)
    ]
    assert graph_order == expected
    # Chronological order: the legacy window's edges, stably sorted by
    # (start, arrival) -- ties keep insertion order.
    chronological = sorted(
        expected, key=lambda p: (graph.edges[p].start, graph.edges[p].arrival)
    )
    positions = [int(p) for p in store.window_positions(window.t_alpha, window.t_omega)]
    assert positions == chronological
    assert store.count_in(window.t_alpha, window.t_omega) == len(expected)


@settings(max_examples=60, deadline=None)
@given(graph=graphs(), old=windows(), new=windows())
def test_delta_identical(graph, old, new):
    added, removed = TemporalEdgeIndex(_fresh(graph)).delta(old, new)
    in_old = set(_legacy_positions(graph, old))
    in_new = set(_legacy_positions(graph, new))

    def chronological(positions):
        ordered = sorted(
            positions,
            key=lambda p: (graph.edges[p].start, graph.edges[p].arrival, p),
        )
        return [tuple(graph.edges[p]) for p in ordered]

    assert [tuple(e) for e in added] == chronological(in_new - in_old)
    assert [tuple(e) for e in removed] == chronological(in_old - in_new)


@settings(max_examples=60, deadline=None)
@given(graph=graphs(), window=windows(), source=st.integers(min_value=0, max_value=7))
def test_earliest_arrival_identical(graph, window, source):
    g = _fresh(graph)
    got = list(earliest_arrival_times(g, source, window).items())
    # The heap sweep's labels in the canonical (arrival, intern id)
    # float form earliest_arrival_times reports.
    ids = g.columnar().vertex_ids
    raw = legacy_earliest_arrival(graph, source, window)
    expected = [
        (v, float(t)) for v, t in sorted(raw.items(), key=lambda kv: (kv[1], ids[kv[0]]))
    ]
    assert got == expected
    assert all(type(t) is float for _, t in got)


@settings(max_examples=60, deadline=None)
@given(graph=graphs(), window=windows(), root=st.integers(min_value=0, max_value=7))
def test_transformation_identical(graph, window, root):
    root = root % graph.num_vertices
    got = transform_temporal_graph(_fresh(graph), root, window, use_cache=False)
    expected = legacy_transform(graph, root, window)
    assert _transform_fingerprint(got) == _transform_fingerprint(expected)


@settings(max_examples=40, deadline=None)
@given(graph=graphs(), window=windows())
def test_restricted_identical(graph, window):
    g = _fresh(graph)
    g.columnar()  # warm store: restricted() answers from it
    sub = g.restricted(window.t_alpha, window.t_omega)
    expected = legacy_extract_window(graph, window)
    assert [tuple(e) for e in sub.edges] == [tuple(e) for e in expected.edges]
    assert sorted(map(repr, sub.vertices)) == sorted(map(repr, expected.vertices))


@settings(max_examples=25, deadline=None)
@given(graph=graphs(), window=windows(), root=st.integers(min_value=0, max_value=7))
def test_msta_identical(graph, window, root):
    """Algorithms 1 and 2 see the same window through the store."""
    root = root % graph.num_vertices

    def one(algorithm, g):
        try:
            tree = algorithm(g, root, window)
        except (UnreachableRootError, ZeroDurationError) as exc:
            return type(exc).__name__
        return sorted((repr(v), tuple(e)) for v, e in tree.parent_edge.items())

    warm = _fresh(graph)
    warm.columnar()
    sub = warm.restricted(window.t_alpha, window.t_omega)
    legacy = legacy_extract_window(graph, window)
    for algorithm in (msta_chronological, msta_stack):
        assert one(algorithm, sub) == one(algorithm, legacy)


def _scalar_mstw(graph, root, window):
    """``minimum_spanning_tree_w``'s pipeline over the scalar oracles."""
    reachable = legacy_earliest_arrival(graph, root, window)
    terminals = sorted((v for v in reachable if v != root), key=repr)
    if not terminals:
        return "unreachable"
    transformed = legacy_transform(graph, root, window)
    prepared = prepare_instance(transformed.dst_instance(terminals=terminals))
    closure_tree = scalar_pruned_dst(prepared, 2)
    tree = closure_tree_to_temporal(transformed, prepared, closure_tree)
    return (
        tree.total_weight,
        sorted((repr(v), tuple(e)) for v, e in tree.parent_edge.items()),
        len(terminals),
        transformed.num_vertices,
        transformed.num_edges,
        closure_tree.cost,
    )


@settings(max_examples=15, deadline=None)
@given(graph=graphs(max_vertices=6, max_edges=16), root=st.integers(min_value=0, max_value=5))
def test_mstw_solver_identical(graph, root):
    root = root % graph.num_vertices
    window = TimeWindow.unbounded()
    try:
        result = minimum_spanning_tree_w(
            _fresh(graph), root, window, level=2, algorithm="pruned"
        )
    except UnreachableRootError:
        got = "unreachable"
    else:
        got = (
            result.tree.total_weight,
            sorted((repr(v), tuple(e)) for v, e in result.tree.parent_edge.items()),
            result.num_terminals,
            result.transformed_vertices,
            result.transformed_edges,
            result.closure_tree_cost,
        )
    assert got == _scalar_mstw(graph, root, window)
