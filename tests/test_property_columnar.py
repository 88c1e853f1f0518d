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
import numpy as np
from hypothesis import given, settings

from repro.core.errors import UnreachableRootError, ZeroDurationError
from repro.core.numeric import is_zero
from repro.core.sliding import iter_windows
from repro.core.msta import msta_chronological, msta_stack
from repro.core.mstw import minimum_spanning_tree_w
from repro.core.postprocess import closure_tree_to_temporal
from repro.core.transformation import transform_temporal_graph
from repro.incremental import SlidingEngine
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

from tests.conftest import (
    assert_matches_rooted_oracle,
    random_temporal,
    rooted_fingerprint,
    whole_fingerprint,
)


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
    assert_matches_rooted_oracle(_fresh(graph), root, window)


@st.composite
def reach_cases(draw, max_vertices=7, max_edges=22):
    """Graphs, roots and windows aimed at the reach-only construction.

    Besides :func:`graphs`' cases (zero durations, int timestamps,
    self-loops), every draw may add edges into the root, equal-weight
    parallel duplicates that differ only in their start, and fan-in
    edges into an existing target copy, and may pick an isolated root
    that reaches nothing.  Windows start
    anywhere, so a vertex often has in-window instances before the
    root can reach it.
    """
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    root = draw(st.integers(min_value=0, max_value=n))  # n: isolated
    as_float = draw(st.booleans())
    num = float if as_float else int
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_edges))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if draw(st.integers(min_value=0, max_value=5)) == 0:
            v = root % n  # an edge into the root
        start = draw(st.integers(min_value=0, max_value=20))
        duration = draw(st.integers(min_value=0, max_value=4))
        weight = draw(st.integers(min_value=0, max_value=4))
        rows.append((u, v, start, start + duration, weight))
        if draw(st.booleans()):
            # Same target copy and weight, another start: when both
            # starts see the same source copy, one static edge whose
            # representative is the earliest-starting duplicate.
            other = draw(st.integers(min_value=0, max_value=start + duration))
            rows.append((u, v, other, start + duration, weight))
        if draw(st.booleans()):
            # Fan-in: another source into the same target copy, so
            # in-lists hold several solid edges whose order matters.
            w = draw(st.integers(min_value=0, max_value=n - 1))
            other = draw(st.integers(min_value=0, max_value=start + duration))
            rows.append((w, v, other, start + duration, weight + 1))
    edges = [
        TemporalEdge(u, v, num(s), num(a), num(w)) for u, v, s, a, w in rows
    ]
    graph = TemporalGraph(edges, vertices=range(n + 1))
    window = draw(st.one_of(st.none(), windows()))
    return graph, root, window


@settings(max_examples=150, deadline=None)
@given(case=reach_cases())
def test_reach_only_transformation_matches_rooted_oracle(case):
    graph, root, window = case
    transformed, terminals = assert_matches_rooted_oracle(_fresh(graph), root, window)
    # Chronological edge order over the parent graph equals the
    # transformation of the window subgraph in that order.
    window = window or TimeWindow.unbounded()
    subgraph = TemporalGraph(
        TemporalEdgeIndex(graph).edges_in(window), vertices=graph.vertices
    )
    assert_matches_rooted_oracle(
        subgraph, root, window, got=transform_temporal_graph(
            _fresh(graph), root, window, chronological=True
        )
    )
    # The default terminal set is V_r, in the digraph's order.
    assert sorted(transformed.dst_instance().terminals) == sorted(
        ("dummy", v) for v in terminals
    )


@settings(max_examples=60, deadline=None)
@given(graph=graphs())
def test_chronological_order_and_zero_flag_match_object_scans(graph):
    expected = [
        tuple(map(repr, e))
        for e in sorted(graph.edges, key=lambda e: (e.start, e.arrival))
    ]
    zero = any(is_zero(e.duration) for e in graph.edges)
    for warm in (False, True):
        g = _fresh(graph)
        if warm:
            g.columnar()  # float timestamps: answered from the store
        assert [tuple(map(repr, e)) for e in g.chronological_edges()] == expected
        assert g.has_zero_duration_edge() is zero


def test_engine_over_parent_graph_matches_cold_pipeline():
    """SlidingEngine transforms the parent graph; a cold pass the subgraph.

    Forward then backward sweeps: the engine's trees, and the
    transformation and prepared instance its pipeline builds from the
    parent graph, are compared against the per-window pipeline over the
    window's own subgraph.
    """
    for seed in range(6):
        graph = random_temporal(seed, n=14, m=60, zero_duration=seed % 3 == 2)
        windows = list(iter_windows(graph, 14, 2))
        index = TemporalEdgeIndex(graph)
        engine = SlidingEngine(graph, 0, index=index)
        for window in windows + windows[::-1]:
            warm = engine.measure_mstw(window)
            active = index.subgraph(window)
            try:
                cold = minimum_spanning_tree_w(active, 0, window, level=2)
            except UnreachableRootError:
                assert warm.tree is None
                continue
            assert warm.tree.parent_edge == cold.tree.parent_edge
            transformed = transform_temporal_graph(
                graph, 0, window, chronological=True
            )
            prepared = prepare_instance(
                transformed.dst_instance(
                    terminals=sorted(transformed.reached(), key=repr)
                )
            )
            cold_transformed = transform_temporal_graph(active, 0, window)
            terminals = sorted(cold_transformed.reached(), key=repr)
            cold_prepared = prepare_instance(
                cold_transformed.dst_instance(terminals=terminals)
            )
            assert rooted_fingerprint(prepared.instance, transformed) == (
                rooted_fingerprint(cold_prepared.instance, cold_transformed)
            )
            assert np.array_equal(prepared.closure.dist, cold_prepared.closure.dist)
            assert whole_fingerprint(transformed) == whole_fingerprint(
                cold_transformed
            )


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
