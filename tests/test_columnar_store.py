"""Unit tests for the columnar edge store and its cache discipline.

*Output identity* against the scalar code the store replaced is
property-tested in ``test_property_columnar.py``; this file pins down
the store's contracts one by one -- interning order, sort orders, the
per-graph store built once, the shared edge index cached per graph,
and the columnar pickle form.
"""

from __future__ import annotations

import gc
import pickle
from array import array

from repro.temporal.columnar import ColumnarEdgeStore
from repro.temporal.edge import TemporalEdge
from repro.temporal.graph import _COLUMNAR_STATE_TAG, TemporalGraph
from repro.temporal.index import _SHARED_INDICES, TemporalEdgeIndex, edge_index_for
from repro.temporal.window import TimeWindow


def small_graph() -> TemporalGraph:
    return TemporalGraph(
        [
            TemporalEdge("b", "c", 3.0, 5.0, 1.0),
            TemporalEdge("a", "b", 1.0, 2.0, 1.0),
            TemporalEdge("a", "c", 1.0, 4.0, 2.0),
            TemporalEdge("c", "a", 6.0, 7.0, 1.0),
        ],
        vertices=["isolated"],
    )


# ----------------------------------------------------------------------
# Store construction
# ----------------------------------------------------------------------
def test_interning_is_first_occurrence_order():
    store = small_graph().columnar()
    # Edge endpoints in insertion order, then the extras.
    assert store.vertex_labels == ["b", "c", "a", "isolated"]
    assert store.vertex_ids == {"b": 0, "c": 1, "a": 2, "isolated": 3}
    assert list(store.sources) == [0, 2, 2, 1]
    assert list(store.targets) == [1, 0, 1, 2]
    assert store.num_edges == 4
    assert store.num_vertices == 4


def test_sort_orders_and_ranks():
    store = small_graph().columnar()
    # (start, arrival, position): positions 1 (1,2), 2 (1,4), 0 (3,5), 3 (6,7)
    assert list(store.positions_by_start()) == [1, 2, 0, 3]
    assert list(store.sorted_starts()) == [1.0, 1.0, 3.0, 6.0]
    assert list(store.arrivals_by_start_order()) == [2.0, 4.0, 5.0, 7.0]
    # (arrival, start, position) happens to coincide here.
    assert list(store.positions_by_arrival()) == [1, 2, 0, 3]
    # start_ranks inverts positions_by_start.
    ranks = store.start_ranks()
    assert [int(ranks[p]) for p in store.positions_by_start()] == [0, 1, 2, 3]


def test_value_type_flags():
    float_graph = small_graph()
    int_graph = TemporalGraph([TemporalEdge(0, 1, 1, 2, 3)])
    mixed = TemporalGraph(
        [TemporalEdge(0, 1, 1.0, 2.0, 3.0), TemporalEdge(1, 0, 4, 5, 6)]
    )
    assert float_graph.columnar().arrivals_are_float
    assert float_graph.columnar().weights_are_float
    assert not int_graph.columnar().arrivals_are_float
    assert not int_graph.columnar().weights_are_float
    assert not mixed.columnar().arrivals_are_float
    assert not mixed.columnar().weights_are_float


def test_empty_store():
    store = ColumnarEdgeStore.from_edges(())
    assert store.num_edges == 0
    assert store.start_bounds(0.0, 10.0) == (0, 0)
    assert list(store.window_positions(0.0, 10.0)) == []
    assert store.count_in(0.0, 10.0) == 0
    assert store.edges_at(store.window_positions(0.0, 10.0)) == []


# ----------------------------------------------------------------------
# Queries (exact values; oracle identity lives in the property suite)
# ----------------------------------------------------------------------
def test_window_queries():
    store = small_graph().columnar()
    # Window [1, 4]: positions 1 (1->2) and 2 (1->4) qualify; position 0
    # starts at 3 but arrives at 5, outside.
    assert [int(p) for p in store.window_positions(1.0, 4.0)] == [1, 2]
    assert [int(p) for p in store.window_positions_graph_order(1.0, 4.0)] == [1, 2]
    assert store.count_in(1.0, 4.0) == 2
    assert [tuple(e) for e in store.edges_at(store.window_positions(1.0, 4.0))] == [
        ("a", "b", 1.0, 2.0, 1.0),
        ("a", "c", 1.0, 4.0, 2.0),
    ]


def test_delta_positions():
    store = small_graph().columnar()
    added, removed = store.delta_positions((1.0, 4.0), (1.0, 7.0))
    assert [int(p) for p in added] == [0, 3]
    assert [int(p) for p in removed] == []
    added, removed = store.delta_positions((1.0, 7.0), (3.0, 7.0))
    assert [int(p) for p in added] == []
    assert sorted(int(p) for p in removed) == [1, 2]


def test_earliest_arrival_kernel():
    store = small_graph().columnar()
    labels = store.earliest_arrival("a", 0.0, 10.0)
    assert labels == [("a", 0.0), ("b", 2.0), ("c", 4.0)]
    assert store.earliest_arrival("missing", 0.0, 10.0) == []


# ----------------------------------------------------------------------
# The per-graph store and the shared edge index
# ----------------------------------------------------------------------
def test_graph_store_is_built_once():
    graph = small_graph()
    assert graph.columnar_or_none() is None
    first = graph.columnar()
    assert graph.columnar() is first
    assert graph.columnar_or_none() is first
    graph.restricted(1.0, 4.0)  # store-backed queries never replace it
    assert graph.columnar() is first


def test_edge_index_cached_until_graph_dropped():
    graph = small_graph()
    index = edge_index_for(graph)
    assert isinstance(index, TemporalEdgeIndex)
    assert edge_index_for(graph) is index
    assert edge_index_for(graph, create=False) is index
    assert graph in _SHARED_INDICES
    before = len(_SHARED_INDICES)
    del graph
    gc.collect()
    assert len(_SHARED_INDICES) == before - 1


def test_edge_index_create_false_does_not_build():
    graph = small_graph()
    assert edge_index_for(graph, create=False) is None
    assert graph.columnar_or_none() is None


def test_edge_index_results_match_restricted():
    graph = small_graph()
    window = TimeWindow(1.0, 4.0)
    index = edge_index_for(graph)
    assert [tuple(e) for e in index.edges_in_graph_order(window)] == [
        tuple(e)
        for e in graph.edges
        if e.within(window.t_alpha, window.t_omega)
    ]
    assert index.count_in(window) == 2


# ----------------------------------------------------------------------
# Columnar pickling (TemporalGraph.__getstate__)
# ----------------------------------------------------------------------
def test_warm_graph_pickles_in_columnar_form():
    """A cached store ships as tagged column arrays."""
    graph = small_graph()
    graph.columnar()
    tag, columns = graph.__getstate__()
    assert tag == _COLUMNAR_STATE_TAG
    assert set(columns) >= {
        "labels", "sources", "targets", "starts", "arrivals", "weights",
    }
    clone = pickle.loads(pickle.dumps(graph))
    assert [tuple(e) for e in clone.edges] == [tuple(e) for e in graph.edges]
    assert clone.vertices == graph.vertices  # isolated vertex survives


def test_cold_graph_round_trips_through_columns():
    """A graph with no store builds one and ships the column layout."""
    graph = small_graph()
    assert graph.columnar_or_none() is None
    tag, columns = graph.__getstate__()
    assert tag == _COLUMNAR_STATE_TAG
    assert columns == graph.columnar().export_columns()
    clone = pickle.loads(pickle.dumps(graph))
    assert clone.edges == graph.edges
    assert clone.vertices == graph.vertices
    assert clone.columnar().vertex_labels == graph.columnar().vertex_labels


def test_legacy_state_still_loads():
    """Pickles written before the columnar form keep deserializing."""
    graph = small_graph()
    clone = TemporalGraph([])
    clone.__setstate__((graph.edges, graph.vertices))
    assert clone.edges == graph.edges
    assert clone.vertices == graph.vertices


def test_columnar_pickle_rebuilds_caches_lazily():
    graph = small_graph()
    graph.columnar()
    graph.chronological_edges()
    clone = pickle.loads(pickle.dumps(graph))
    # The store is rebuilt from the shipped columns, not smuggled
    # across; the object layouts stay lazy.
    store = clone.columnar_or_none()
    assert store is not None and store is not graph.columnar()
    assert clone._chronological is None
    assert store.vertex_labels == graph.columnar().vertex_labels
    assert list(store.sources) == list(graph.columnar().sources)
    assert list(store.positions_by_start()) == list(graph.columnar().positions_by_start())


def test_columnar_pickle_round_trips_value_types():
    """A warm graph ships stdlib columns; value types survive exactly."""
    graph = TemporalGraph(
        [
            TemporalEdge("a", "b", 1, 2, 3),          # ints stay ints
            TemporalEdge("b", "c", 2.5, 3.5, 4.25),   # floats stay floats
        ],
        vertices=["lonely"],
    )
    graph.columnar()
    tag, columns = graph.__getstate__()
    assert tag == _COLUMNAR_STATE_TAG
    assert type(columns["sources"]) is array
    assert type(columns["targets"]) is array
    clone = pickle.loads(pickle.dumps(graph))
    assert [tuple(e) for e in clone.edges] == [tuple(e) for e in graph.edges]
    assert clone.vertices == graph.vertices
    assert type(clone.edges[0].weight) is int
    assert type(clone.edges[1].weight) is float
