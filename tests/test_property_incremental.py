"""Property-based tests: engine sweeps equal cold recomputation.

Strategy: random temporal multigraphs (mixed and zero durations) paired
with random *slide sequences* -- window moves of varying delta
including slides larger than the window length (disjoint jumps) and
backward moves.  For every window in the sequence the engine's answer
must equal the cold per-window computation over the window's subgraph
exactly: parent edges and arrival maps *in order* (dict item order,
not just dict equality), and ``MST_w`` cost.

The sweep experiment's quick ``MST_a`` and ``MST_w`` rows are pinned
by sha256.
"""

import hashlib
import json

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.errors import UnreachableRootError
from repro.core.msta import minimum_spanning_tree_a
from repro.core.mstw import minimum_spanning_tree_w
from repro.experiments.sliding_tables import sweep_cell_value
from repro.incremental import SlidingEngine
from repro.temporal.edge import TemporalEdge
from repro.temporal.graph import TemporalGraph
from repro.temporal.index import TemporalEdgeIndex
from repro.temporal.window import TimeWindow

SPAN = 24  # timestamps are drawn from [0, SPAN]


@st.composite
def graphs_and_slides(
    draw, max_vertices=7, max_edges=20, max_windows=6, durations=st.just((0, 4))
):
    """``(graph, windows)``; ``durations`` draws the ``(min, max)`` duration.

    Times are ints or, for half the graphs, half-unit floats (every
    time and window boundary halved): float times take Algorithm 1's
    columnar path, int times its edge-object path.
    """
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    num_edges = draw(st.integers(min_value=1, max_value=max_edges))
    min_duration, max_duration = draw(durations)
    halve = draw(st.booleans())
    unit = 0.5 if halve else 1
    edges = []
    for _ in range(num_edges):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u == v:
            continue
        start = draw(st.integers(min_value=0, max_value=SPAN - 4))
        duration = draw(st.integers(min_value=min_duration, max_value=max_duration))
        weight = draw(st.integers(min_value=1, max_value=9))
        edges.append(
            TemporalEdge(u, v, start * unit, (start + duration) * unit, weight)
        )
    graph = TemporalGraph(edges, vertices=range(n))

    length = draw(st.integers(min_value=2, max_value=SPAN))
    start0 = draw(st.integers(min_value=0, max_value=SPAN - length))
    windows = [TimeWindow(start0, start0 + length)]
    num_slides = draw(st.integers(min_value=1, max_value=max_windows - 1))
    for _ in range(num_slides):
        # Deltas from small forward nudges through full disjoint jumps
        # to backward moves (negative): every regime the engine claims
        # to handle.
        delta = draw(st.integers(min_value=-SPAN, max_value=2 * SPAN))
        t_alpha = min(max(0, windows[-1].t_alpha + delta), SPAN - length)
        windows.append(TimeWindow(t_alpha, t_alpha + length))
    windows = [TimeWindow(w.t_alpha * unit, w.t_omega * unit) for w in windows]
    return graph, windows


def _ser(tree):
    """A tree's root, parent items and arrival items, in dict order."""
    if tree is None:
        return None
    return (
        tree.root,
        list(tree.parent_edge.items()),
        list(tree.arrival_times.items()),
    )


def _cold_msta(index, root, window):
    active = index.subgraph(window)
    if root not in active.vertices:
        return None
    return minimum_spanning_tree_a(active, root, window)


def _cold_mstw(index, root, window):
    active = index.subgraph(window)
    if root not in active.vertices:
        return None
    try:
        return minimum_spanning_tree_w(active, root, window, level=2).tree
    except UnreachableRootError:
        return None


@settings(max_examples=200, deadline=None)
@given(data=graphs_and_slides(durations=st.sampled_from([(1, 4), (0, 4), (0, 0)])))
def test_incremental_msta_equals_cold_on_any_slide_sequence(data):
    """Every MST_a window equals ``minimum_spanning_tree_a`` on its subgraph.

    A third of the graphs have positive durations only (the engine's
    parent-graph path); the others mix in zero-duration edges or have
    only those (its window-subgraph path).
    """
    graph, windows = data
    index = TemporalEdgeIndex(graph)
    engine = SlidingEngine(graph, 0)
    for window in windows:
        measurement = engine.measure_msta(window)
        assert _ser(measurement.tree) == _ser(_cold_msta(index, 0, window)), window
        assert measurement.caveat is None


@settings(max_examples=40, deadline=None)
@given(
    data=graphs_and_slides(
        max_edges=14, max_windows=4, durations=st.sampled_from([(0, 0), (0, 4)])
    )
)
def test_incremental_mstw_equals_cold_on_any_slide_sequence(data):
    """Every MST_w window equals ``minimum_spanning_tree_w`` on its subgraph.

    Half the graphs have only zero-duration edges; windows the root has
    no edge in give None on both sides.
    """
    graph, windows = data
    index = TemporalEdgeIndex(graph)
    engine = SlidingEngine(graph, 0)
    for window in windows:
        measurement = engine.measure_mstw(window)
        warm = measurement.tree
        cold = _cold_mstw(index, 0, window)
        assert _ser(warm) == _ser(cold), window
        assert measurement.caveat is None
        if cold is not None:
            assert warm.total_weight == cold.total_weight
    assert engine.stats == {"windows": len(windows)}


def test_zero_duration_windows_use_the_window_subgraph():
    """Algorithm 2 over the parent graph orders this tree differently.

    Both trees hold the same parent edges, but Algorithm 2 over the
    parent walks the edges in insertion order, the window subgraph in
    chronological order, so the parent dicts differ in key order.  The
    engine answers zero-duration graphs over the window subgraph and
    matches the cold tree item for item.
    """
    graph = TemporalGraph(
        [
            TemporalEdge(0, 2, 7, 9, 1),
            TemporalEdge(2, 0, 2, 4, 3),
            TemporalEdge(0, 1, 2, 3, 6),
            TemporalEdge(0, 1, 7, 7, 9),
        ],
        vertices=range(3),
    )
    window = TimeWindow(7, 10)
    cold = _cold_msta(TemporalEdgeIndex(graph), 0, window)
    over_parent = minimum_spanning_tree_a(graph, 0, window)
    assert dict(_ser(over_parent)[1]) == dict(_ser(cold)[1])
    assert _ser(over_parent) != _ser(cold)
    assert _ser(SlidingEngine(graph, 0).measure_msta(window).tree) == _ser(cold)


#: sha256 of ``json.dumps(rows)`` of the quick sweep experiment's cells.
SWEEP_ROW_PINS = {
    "msta": "d22d6b926df4b4089681eb1fa92c55b00b4698621eb82dc131fe93b417bb4e0f",
    "mstw": "e013693b219e14c7668a7c738a06b10254eff829e0d8b4dd604dc028368c331e",
}


def test_sweep_experiment_rows_are_pinned():
    for kind, digest in SWEEP_ROW_PINS.items():
        rows = sweep_cell_value(kind, quick=True)["rows"]
        assert len(rows) == 41
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest, kind
