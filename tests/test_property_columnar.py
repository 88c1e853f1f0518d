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

import gc
import math
import pickle
import tracemalloc
from array import array
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro import minimum_spanning_tree_a
from repro.core.errors import (
    BudgetExceededError,
    GraphFormatError,
    UnreachableRootError,
    ZeroDurationError,
)
from repro.core.numeric import is_zero
from repro.core.sliding import iter_windows
from repro.core.msta import msta_chronological, msta_stack
from repro.core.mstw import minimum_spanning_tree_w
from repro.core.postprocess import closure_tree_to_temporal
from repro.core.transformation import transform_temporal_graph
from repro.datasets.registry import DATASETS, load_dataset
from repro.incremental import SlidingEngine
from repro.resilience.budget import NULL_BUDGET, Budget
from repro.perf.legacy import (
    legacy_earliest_arrival,
    legacy_extract_window,
    legacy_transform,
    scalar_pruned_dst,
)
from repro.steiner.instance import prepare_instance
from repro.temporal.columnar import EA_CHUNK
from repro.temporal.edge import TemporalEdge, make_edge
from repro.temporal.generators import (
    layered_temporal_graph,
    preferential_temporal_graph,
    reachable_temporal_graph,
    uniform_temporal_graph,
)
from repro.temporal.graph import TemporalGraph
from repro.temporal.index import TemporalEdgeIndex
from repro.temporal.io import from_string
from repro.temporal.paths import earliest_arrival_times
from repro.temporal.window import TimeWindow

from tests.conftest import (
    assert_matches_rooted_oracle,
    exact_edges,
    legacy_load_dataset,
    legacy_store_columns,
    random_temporal,
    rooted_fingerprint,
    store_columns,
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
        engine = SlidingEngine(graph, 0)
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


# ----------------------------------------------------------------------
# Column-first construction (TemporalGraph.from_columns)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scale", [0.05, 0.3])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("name", sorted(DATASETS))
def test_load_dataset_matches_object_path(name, weighted, seed, scale):
    got = load_dataset(name, scale=scale, seed=seed, weighted=weighted)
    expected = legacy_load_dataset(name, scale, seed, weighted)
    assert got._edges is None  # no edge object before .edges is read
    assert exact_edges(got) == exact_edges(expected)
    assert got.vertices == expected.vertices
    assert store_columns(got.columnar()) == legacy_store_columns(expected)


def test_weighting_drops_isolated_vertices():
    """``with_weights``/``with_durations`` keep only edge endpoints.

    Pinned on purpose: keeping isolated vertices would change dataset
    sizes (and every digest built on them).
    """
    plain = load_dataset("enron", scale=0.05, seed=0)
    weighted = load_dataset("enron", scale=0.05, seed=0, weighted=True)
    endpoints = {v for e in plain.edges for v in (e.source, e.target)}
    assert (plain.num_vertices, weighted.num_vertices) == (22, 21)
    assert weighted.vertices == endpoints
    assert plain.with_durations(1.0).vertices == endpoints
    graph = TemporalGraph([TemporalEdge(0, 1, 1.0, 2.0, 1.0)], vertices=[0, 1, 2])
    assert graph.with_weights({(0, 1): 3.0}).vertices == {0, 1}
    assert graph.with_durations(0.0).vertices == {0, 1}


@pytest.mark.parametrize(
    "row",
    [
        (0, 1, math.nan, 2.0, 1.0),
        (0, 1, 1.0, math.nan, 1.0),
        (0, 1, 1.0, 2.0, math.nan),
        (0, 1, 3.0, 2.0, 1.0),
        (0, 1, 1.0, 2.0, -1.0),
        (0, 1, 3, 2, 1),
        (0, 1, 1, 2, -1),
    ],
)
def test_from_columns_rejects_what_make_edge_rejects(row):
    good = (1, 2, 0.5, 1.5, 1.0)
    columns = list(zip(good, row, good))
    with pytest.raises(GraphFormatError) as expected:
        make_edge(*row)
    with pytest.raises(GraphFormatError) as got:
        TemporalGraph.from_columns(*columns)
    assert str(got.value) == str(expected.value)


def test_from_columns_rejects_bad_shapes():
    with pytest.raises(GraphFormatError):
        TemporalGraph.from_columns([0, 1], [1], [1.0], [2.0], [1.0])
    with pytest.raises(GraphFormatError):
        TemporalGraph.from_columns([0], [2], [1.0], [2.0], [1.0], labels=["a", "b"])


def test_int_columns_keep_python_ints():
    graph = TemporalGraph.from_columns(
        [0, 1], [1, 2], [1, 3], np.array([2, 4]), [5, 7], vertices=[9]
    )
    assert [tuple(e) for e in graph.edges] == [(0, 1, 1, 2, 5), (1, 2, 3, 4, 7)]
    assert all(type(value) is int for e in graph.edges for value in e)
    store = graph.columnar()
    assert not (store.starts_are_float or store.arrivals_are_float)
    assert not store.weights_are_float
    assert store.vertex_labels == [0, 1, 2, 9]


def test_store_id_columns_are_read_only_and_never_alias_caller_arrays():
    sources, targets = np.array([0, 1]), np.array([1, 2])
    graph = TemporalGraph.from_columns(sources, targets, [1.0, 2.0], [2.0, 3.0], [1.0, 1.0])
    sources[0] = 5
    store = graph.columnar()
    assert store.sources.tolist() == [0, 1]
    assert not (store.sources.flags.writeable or store.targets.flags.writeable)
    # A copy with one column replaced shares the read-only id columns.
    copy = graph.with_weight_column([2.0, 3.0]).columnar()
    assert copy.sources is store.sources and copy.targets is store.targets


#: Vertex relabellings reaching every interning path: dict walk (text),
#: sorted ids (negative or far-apart ints) and the scatter-min table.
RELABELLINGS = {
    "text": lambda v: f"v{v}",
    "shifted": lambda v: 7 * v - 3,
    "sparse": lambda v: 10**12 + 10**6 * v,
    "plain": lambda v: v,
}


@st.composite
def column_graphs(draw):
    """Random edge columns over int or string labels, int or float values."""
    base = draw(graphs())
    relabel = RELABELLINGS[draw(st.sampled_from(sorted(RELABELLINGS)))]
    edges = [
        TemporalEdge(relabel(e.source), relabel(e.target), *e[2:]) for e in base.edges
    ]
    extras = [relabel(v) for v in range(draw(st.integers(0, 3)) + 8)]
    return edges, extras


@settings(max_examples=60, deadline=None)
@given(case=column_graphs())
def test_from_columns_equals_object_constructor(case):
    edges, extras = case
    columns = tuple(zip(*edges)) if edges else ((),) * 5
    got = TemporalGraph.from_columns(*columns, vertices=extras)
    expected = TemporalGraph(edges, vertices=extras)
    assert exact_edges(got) == exact_edges(expected)
    assert got.vertices == expected.vertices
    assert list(got.vertices) == list(expected.vertices)
    # Isolated vertices are interned in the order given.
    assert store_columns(got.columnar()) == legacy_store_columns(expected, extras)


@settings(max_examples=60, deadline=None)
@given(case=column_graphs())
def test_pickle_round_trip_from_both_constructors(case):
    """Every graph ships its store's columns; the clone's store equals it."""
    edges, extras = case
    columns = tuple(zip(*edges)) if edges else ((),) * 5
    warm = TemporalGraph(edges, vertices=extras)
    warm.columnar()
    for graph in (warm, TemporalGraph.from_columns(*columns, vertices=extras)):
        clone = pickle.loads(pickle.dumps(graph))
        assert exact_edges(clone) == exact_edges(graph)
        assert clone.vertices == graph.vertices
        assert store_columns(clone.columnar()) == store_columns(graph.columnar())


@settings(max_examples=60, deadline=None)
@given(graph=graphs(), offset=st.sampled_from([0.0, 0.25, 1e9]))
def test_time_helpers_match_object_scans(graph, offset):
    if offset:
        graph = TemporalGraph(
            [
                TemporalEdge(e.source, e.target, e.start + offset, e.arrival + offset, e.weight)
                for e in graph.edges
            ]
        )
    expected_instants = len({t for e in graph.edges for t in (e.start, e.arrival)})
    expected_span = (
        (min(e.start for e in graph.edges), max(e.arrival for e in graph.edges))
        if graph.edges
        else None
    )
    warm = _fresh(graph)
    warm.columnar()
    for candidate in (_fresh(graph), warm):
        assert candidate.distinct_time_instances() == expected_instants
        if expected_span is None:
            with pytest.raises(GraphFormatError):
                candidate.time_span()
        else:
            span = candidate.time_span()
            assert span == expected_span
            assert [type(t) for t in span] == [type(t) for t in expected_span]



# ----------------------------------------------------------------------
# Lazy edge objects: a column-built graph against an object-built one
# ----------------------------------------------------------------------
#: Timestamp/weight types: float64 stands in exactly for the first only.
#: The fractions are quarters, which float64 holds exactly, so window
#: bounds compare the same in both.
VALUE_TYPES = {
    "float": float,
    "int": int,
    "fraction": lambda value: Fraction(value, 4),
}


@st.composite
def typed_graphs(draw, max_vertices=7, max_edges=20):
    """``(edges, extras)``: one value type per graph, isolated extras."""
    num = VALUE_TYPES[draw(st.sampled_from(sorted(VALUE_TYPES)))]
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    edges = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_edges))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        start = draw(st.integers(min_value=0, max_value=30))
        duration = draw(st.integers(min_value=0, max_value=5))
        weight = draw(st.integers(min_value=0, max_value=9))
        edges.append(make_edge(u, v, num(start), num(start + duration), num(weight)))
    extras = list(range(n + draw(st.integers(min_value=0, max_value=2))))
    return edges, extras


def _column_built(edges, extras):
    columns = tuple(zip(*edges)) or ((),) * 5
    return TemporalGraph.from_columns(*columns, vertices=extras)


def _assert_same_graph(got, expected, extras=None):
    """Edges (typed), vertex set and intern ids all equal."""
    assert exact_edges(got) == exact_edges(expected)
    assert got.vertices == expected.vertices
    assert store_columns(got.columnar()) == legacy_store_columns(expected, extras)


def _export_oracle(edges, labels, ids):
    """The stdlib columns of ``edges``, value by value."""

    def column(values):
        if all(type(v) is float for v in values):
            return array("d", values)
        if all(type(v) is int for v in values):
            return array("q", values)
        return tuple(values)

    return {
        "labels": tuple(labels),
        "sources": array("q", [ids[e.source] for e in edges]),
        "targets": array("q", [ids[e.target] for e in edges]),
        "starts": column([e.start for e in edges]),
        "arrivals": column([e.arrival for e in edges]),
        "weights": column([e.weight for e in edges]),
    }


@settings(max_examples=80, deadline=None)
@given(case=typed_graphs(), window=windows())
def test_lazy_slices_match_object_graph(case, window):
    edges, extras = case
    t_alpha, t_omega = window.t_alpha, window.t_omega
    expected = TemporalGraph(edges, vertices=extras)
    chronological = sorted(edges, key=lambda e: (e.start, e.arrival))

    graph = _column_built(edges, extras)
    got = graph.chronological_slice(t_alpha, t_omega)
    assert [tuple(map(repr, e)) for e in got] == [
        tuple(map(repr, e)) for e in chronological if t_alpha <= e.start <= t_omega
    ]
    if graph.columnar().starts_are_float and graph.columnar().arrivals_are_float:
        assert graph._edges is None and graph._chronological is None

    sub = _column_built(edges, extras).restricted(t_alpha, t_omega)
    assert sub._edges is None
    _assert_same_graph(
        sub, TemporalGraph([e for e in edges if e.within(t_alpha, t_omega)])
    )


@settings(max_examples=80, deadline=None)
@given(
    case=typed_graphs(),
    duration=st.sampled_from([0.0, 1.0, 1, Fraction(1, 2)]),
    weights=st.lists(st.integers(min_value=0, max_value=9), min_size=20, max_size=20),
)
def test_lazy_copies_and_export_match_object_graph(case, duration, weights):
    edges, extras = case
    graph = _column_built(edges, extras)
    durations = graph.with_durations(duration)
    assert graph._edges is None and durations._edges is None
    _assert_same_graph(
        durations,
        TemporalGraph(
            [make_edge(e.source, e.target, e.start, e.start + duration, e.weight)
             for e in edges]
        ),
    )

    column = [float(w) for w in weights[: len(edges)]]
    reweighted = graph.with_weight_column(column)
    assert graph._edges is None and reweighted._edges is None
    _assert_same_graph(
        reweighted,
        TemporalGraph([e._replace(weight=w) for e, w in zip(edges, column)]),
    )

    store = graph.columnar()
    assert store.export_columns() == _export_oracle(
        edges, store.vertex_labels, store.vertex_ids
    )
    assert store_columns(store) == legacy_store_columns(
        TemporalGraph(edges, vertices=extras), extras
    )
    assert graph._edges is None
    _assert_same_graph(graph, TemporalGraph(edges, vertices=extras), extras)


def test_one_shot_queries_build_no_full_edge_set():
    """MST_a and MST_w on a 1% window build only the edges they walk."""
    graph = load_dataset("epinions", scale=2.0, seed=0, weighted=True)
    store = graph.columnar()
    t_start, t_end = graph.time_span()
    window = TimeWindow(
        t_start + 0.5 * (t_end - t_start), t_start + 0.51 * (t_end - t_start)
    )
    first = store.window_positions(window.t_alpha, window.t_omega)[:1]
    root = store.edges_at(first)[0].source
    tree = minimum_spanning_tree_a(graph, root, window)
    result = minimum_spanning_tree_w(graph, root, window, level=2)
    assert graph._edges is None and graph._chronological is None
    assert not hasattr(store, "edges")
    assert len(tree.parent_edge) >= 1
    # The same answers from an object-built copy.
    copy = TemporalGraph(graph.edges, vertices=graph.vertices)
    assert minimum_spanning_tree_a(copy, root, window).parent_edge == tree.parent_edge
    assert minimum_spanning_tree_w(copy, root, window, level=2).weight == result.weight


# ----------------------------------------------------------------------
# Typed load buffers: no per-row Python objects between draw and store
# ----------------------------------------------------------------------
def _recorded_from_columns(monkeypatch, load):
    """The column types ``load()`` hands ``TemporalGraph.from_columns``."""
    original = TemporalGraph.__dict__["from_columns"].__func__
    calls = []

    def recording(cls, *columns, **kwargs):
        calls.append(tuple(type(column) for column in columns))
        return original(cls, *columns, **kwargs)

    monkeypatch.setattr(TemporalGraph, "from_columns", classmethod(recording))
    load()
    assert calls
    return calls


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("name", sorted(DATASETS))
def test_datasets_hand_typed_columns_to_from_columns(monkeypatch, name, weighted):
    calls = _recorded_from_columns(
        monkeypatch, lambda: load_dataset(name, scale=0.05, weighted=weighted)
    )
    assert all(list not in types for types in calls)


@pytest.mark.parametrize(
    "generate",
    [
        lambda: uniform_temporal_graph(10, 30, seed=0),
        lambda: preferential_temporal_graph(10, 30, multiplicity=3, seed=0),
        lambda: reachable_temporal_graph(10, 5, seed=0),
        lambda: layered_temporal_graph([2, 3, 2], 4, seed=0),
    ],
    ids=["uniform", "preferential", "reachable", "layered"],
)
def test_generators_hand_typed_columns_to_from_columns(monkeypatch, generate):
    (types,) = _recorded_from_columns(monkeypatch, generate)
    assert types == (array,) * 5


def test_io_readers_hand_typed_value_columns_to_from_columns(monkeypatch):
    native = "0 1 1.0 2.0 3.0\na 0 2.5 4.0 1.0\n"
    konect = "0 1 2.0 5\n1 2\n"
    calls = _recorded_from_columns(
        monkeypatch,
        lambda: (from_string(native), from_string(konect, fmt="konect")),
    )
    # Labels may be ints or strings, so only the value columns are typed.
    assert [types[2:] for types in calls] == [(array,) * 3] * 2


def test_epinions_load_peaks_near_its_live_bytes():
    """Loading peaks at a small multiple of the graph it leaves behind.

    Traced peak over live bytes for epinions x5, weighted: 5.6x with
    per-row lists and ``(u, v)`` tuple keys, 3.75x with typed buffers
    and int keys (numpy 2.4, Python 3.11).
    """
    load_dataset("epinions", scale=0.05, weighted=True)  # import warm-up
    gc.collect()
    tracemalloc.start()
    try:
        graph = load_dataset("epinions", scale=5, weighted=True)
        peak = tracemalloc.get_traced_memory()[1]
        gc.collect()
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert graph.num_edges == 24_000
    assert peak <= 4.5 * live, (peak, live)


# ----------------------------------------------------------------------
# Window-time one-shot queries: Algorithm 1 from the store's columns,
# and an earliest-arrival sweep that starts at t_alpha
# ----------------------------------------------------------------------
def _scalar_alg1(graph, root, window, budget=None):
    """Algorithm 1's one-pass scan over edge objects: the frozen oracle.

    The loop ``msta_chronological`` ran on every graph before it read
    the store's columns, over the edges starting inside the window in
    ``(start, arrival, position)`` order.
    """
    tick = budget if budget is not None else NULL_BUDGET
    arrival = {root: window.t_alpha}
    parent = {}
    inf = float("inf")
    t_omega = window.t_omega
    scanned = 0
    for edge in sorted(graph.edges, key=lambda e: (e.start, e.arrival)):
        if not window.t_alpha <= edge.start <= t_omega:
            continue
        scanned += 1
        if not scanned & 1023:
            tick.checkpoint(1024)
        if (
            edge.start >= arrival.get(edge.source, inf)
            and edge.arrival < arrival.get(edge.target, inf)
            and edge.arrival <= t_omega
        ):
            arrival[edge.target] = edge.arrival
            parent[edge.target] = edge
    return parent


def _full_prefix_labels(store, src, t_alpha, t_omega):
    """``earliest_arrival_labels`` as it swept every edge before ``t_omega``."""
    hi = int(np.searchsorted(store.sorted_arrivals(), t_omega, side="right"))
    order = store.positions_by_arrival()[:hi]
    arr = store.sorted_arrivals()[:hi]
    st_ = store.starts_by_arrival_order()[:hi]
    srcs = store.sources[order]
    tgts = store.targets[order]
    lab = np.full(store.num_vertices, np.inf)
    lab[src] = t_alpha
    lo = 0
    while lo < hi:
        cut = min(lo + EA_CHUNK, hi)
        if cut < hi:
            cut = int(np.searchsorted(arr, arr[cut - 1], side="right"))
        s, a = st_[lo:cut], arr[lo:cut]
        u, v = srcs[lo:cut], tgts[lo:cut]
        while True:
            usable = (s >= lab[u]) & (a < lab[v])
            if not usable.any():
                break
            np.minimum.at(lab, v[usable], a[usable])
        lo = cut
    return lab


def _tree_items(parent):
    """A parent dict as typed data, in key order."""
    return [(repr(v), tuple(map(repr, e))) for v, e in parent.items()]


#: Start times on a half-unit grid, so starts and arrivals tie often.
_GRID = [x / 2 for x in range(21)]


@st.composite
def alg1_cases(draw, max_vertices=7, max_edges=24):
    """``(edges, extras, root, window)`` with every duration positive.

    Ties in start and in arrival, parallel duplicates, self-loops,
    isolated vertices, infinite arrivals, and window bounds that land
    on edge times or are unbounded.
    """
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    extras = list(range(n + draw(st.integers(min_value=0, max_value=2))))
    edges = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_edges))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        start = draw(st.sampled_from(_GRID))
        duration = draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, math.inf]))
        weight = float(draw(st.integers(min_value=0, max_value=5)))
        edges.append(make_edge(u, v, start, start + duration, weight))
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            edges.append(edges[-1])  # an exact parallel duplicate
    root = draw(st.sampled_from(extras))
    times = sorted({t for e in edges for t in (e.start, e.arrival)} | {0.0, 5.0})
    if draw(st.booleans()):
        window = TimeWindow.unbounded()
    else:
        bounds = sorted(draw(st.lists(st.sampled_from(times), min_size=2, max_size=2)))
        window = TimeWindow(*bounds)
    return edges, extras, root, window


@settings(max_examples=200, deadline=None)
@given(case=alg1_cases())
def test_alg1_columns_match_scalar_scan(case):
    """Column-path Algorithm 1 equals the scan: keys, key order, edges."""
    edges, extras, root, window = case
    graph = _column_built(edges, extras)
    twin = TemporalGraph(edges, vertices=extras)
    assert graph.float_time_store() is not None
    assert not graph.has_zero_duration_edge()
    got = msta_chronological(graph, root, window)
    expected = _scalar_alg1(twin, root, window)
    assert _tree_items(got.parent_edge) == _tree_items(expected)
    # Only the tree's edges are built on the column path.
    assert graph._edges is None
    # The object-built twin has no store, so it runs the scan.
    assert _tree_items(msta_chronological(twin, root, window).parent_edge) == (
        _tree_items(expected)
    )
    assert twin.columnar_or_none() is None


def _dataset_alg1_graph(name):
    """A dataset graph with positive durations, store-built, no edge tuple.

    Datasets with zero-duration edges get Table 2's unit durations.
    """
    graph = load_dataset(name, scale=0.5, seed=0)
    if graph.has_zero_duration_edge():
        graph = graph.with_durations(1.0)
    assert graph._edges is None and not graph.has_zero_duration_edge()
    return graph


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_alg1_columns_match_scalar_scan_on_datasets(name):
    graph = _dataset_alg1_graph(name)
    store = graph.columnar()
    twin = TemporalGraph(
        store.edges_at(np.arange(graph.num_edges)), vertices=graph.vertices
    )
    t_start, t_end = graph.time_span()
    span = t_end - t_start
    windows_ = [
        TimeWindow(t_start + 0.5 * span, t_start + 0.51 * span),
        TimeWindow(t_start + 0.6 * span, t_end),
        TimeWindow.unbounded(),
    ]
    for window in windows_:
        in_window = store.window_positions(window.t_alpha, window.t_omega)
        sample = in_window[:: max(1, len(in_window) // 6)]
        roots = {e.source for e in store.edges_at(sample)}
        for root in sorted(roots):
            got = msta_chronological(graph, root, window)
            expected = _scalar_alg1(twin, root, window)
            assert _tree_items(got.parent_edge) == _tree_items(expected)
            src = store.vertex_ids[root]
            assert np.array_equal(
                store.earliest_arrival_labels(src, window.t_alpha, window.t_omega),
                _full_prefix_labels(store, src, window.t_alpha, window.t_omega),
            )
    assert graph._edges is None


def test_alg1_budget_trips_alike_on_both_paths():
    """Same trip point and expansion count with and without columns."""
    graph = _dataset_alg1_graph("epinions")
    store = graph.columnar()
    twin = TemporalGraph(
        store.edges_at(np.arange(graph.num_edges)), vertices=graph.vertices
    )
    root = store.edges_at(store.positions_by_start()[:1])[0].source
    window = TimeWindow.unbounded()

    def run(solve, g, limit):
        budget = Budget(max_expansions=limit)
        try:
            solve(g, root, window, budget=budget)
        except BudgetExceededError as exc:
            return "tripped", exc.expansions, budget.expansions
        return "passed", None, budget.expansions

    assert graph.num_edges >= 2048
    for limit in (0, 1023, 1024, 2047, 2048, graph.num_edges, 10**9):
        column = run(msta_chronological, graph, limit)
        assert column == run(msta_chronological, twin, limit)
        assert column == run(_scalar_alg1, twin, limit)
    assert twin.columnar_or_none() is None


@st.composite
def sweep_cases(draw, max_vertices=7, max_edges=24):
    """``(edges, extras, source, window)`` aimed at the sweep's first edge.

    Durations may be zero.  A bounded window's ``t_alpha`` is an edge
    time, often an arrival, and edges with ``start == arrival ==
    t_alpha`` (plus ones arriving exactly at ``t_alpha``) are added.
    """
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    extras = list(range(n + draw(st.integers(min_value=0, max_value=2))))
    source = draw(st.sampled_from(extras))
    edges = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_edges))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        start = draw(st.sampled_from(_GRID))
        duration = draw(st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0]))
        edges.append(make_edge(u, v, start, start + duration, 1.0))
    if not edges or draw(st.booleans()):
        return edges, extras, source, TimeWindow.unbounded()
    times = sorted({t for e in edges for t in (e.start, e.arrival)})
    t_alpha = draw(st.sampled_from(times))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        # Often out of the source itself, so the sweep must use it.
        u = draw(st.sampled_from([source % n, draw(st.integers(0, n - 1))]))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        start = t_alpha - draw(st.sampled_from([0.0, 0.0, 0.5]))
        edges.insert(
            draw(st.integers(min_value=0, max_value=len(edges))),
            make_edge(u, v, start, t_alpha, 1.0),
        )
    t_omega = t_alpha + draw(st.sampled_from([0.0, 0.5, 2.0, 5.0, math.inf]))
    return edges, extras, source, TimeWindow(t_alpha, t_omega)


@settings(max_examples=200, deadline=None)
@given(case=sweep_cases())
def test_window_sweep_matches_full_prefix_sweep(case):
    edges, extras, source, window = case
    graph = _column_built(edges, extras)
    store = graph.columnar()
    src = store.vertex_ids[source]
    lab = store.earliest_arrival_labels(src, window.t_alpha, window.t_omega)
    assert np.array_equal(
        lab, _full_prefix_labels(store, src, window.t_alpha, window.t_omega)
    )
    reached = {
        store.vertex_labels[i]: t
        for i, t in enumerate(lab.tolist())
        if t < math.inf or i == src
    }
    assert reached == legacy_earliest_arrival(
        TemporalGraph(edges, vertices=extras), source, window
    )
