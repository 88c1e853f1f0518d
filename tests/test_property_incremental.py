"""Property-based tests: engine sweeps equal cold recomputation.

Strategy: random temporal multigraphs paired with random *slide
sequences* -- window moves of varying delta including slides larger
than the window length (disjoint jumps) and backward moves, which the
``MST_a`` repair must answer by falling back to a cold solve.  For
every window in the sequence the engine's answer must equal the cold
per-window computation over the window's subgraph exactly: ``MST_a``
arrival maps, serialized trees, and ``MST_w`` cost.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.errors import UnreachableRootError
from repro.core.msta import minimum_spanning_tree_a
from repro.core.mstw import minimum_spanning_tree_w
from repro.incremental import SlidingEngine
from repro.temporal.edge import TemporalEdge
from repro.temporal.graph import TemporalGraph
from repro.temporal.index import TemporalEdgeIndex
from repro.temporal.window import TimeWindow

SPAN = 24  # timestamps are drawn from [0, SPAN]


@st.composite
def graphs_and_slides(
    draw, max_vertices=7, max_edges=20, max_windows=6, max_durations=st.just(4)
):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    num_edges = draw(st.integers(min_value=1, max_value=max_edges))
    max_duration = draw(max_durations)
    edges = []
    for _ in range(num_edges):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u == v:
            continue
        start = draw(st.integers(min_value=0, max_value=SPAN - 4))
        duration = draw(st.integers(min_value=0, max_value=max_duration))
        weight = draw(st.integers(min_value=1, max_value=9))
        edges.append(TemporalEdge(u, v, start, start + duration, weight))
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
    return graph, windows


def _ser(tree):
    if tree is None:
        return None
    return (tree.root, sorted(tree.parent_edge.items()))


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


@settings(max_examples=80, deadline=None)
@given(data=graphs_and_slides())
def test_incremental_msta_equals_cold_on_any_slide_sequence(data):
    graph, windows = data
    index = TemporalEdgeIndex(graph)
    engine = SlidingEngine(graph, 0, index=index)
    for window in windows:
        warm = engine.measure_msta(window).tree
        cold = _cold_msta(index, 0, window)
        assert _ser(warm) == _ser(cold), window
        if cold is not None:
            assert warm.arrival_times == cold.arrival_times


@settings(max_examples=40, deadline=None)
@given(
    data=graphs_and_slides(
        max_edges=14, max_windows=4, max_durations=st.sampled_from([0, 4])
    )
)
def test_incremental_mstw_equals_cold_on_any_slide_sequence(data):
    """Every MST_w window equals ``minimum_spanning_tree_w`` on its subgraph.

    Half the graphs have only zero-duration edges; windows the root has
    no edge in give None on both sides.  The ``MST_w`` sweep never
    advances the ``MST_a`` maintainer.
    """
    graph, windows = data
    index = TemporalEdgeIndex(graph)
    engine = SlidingEngine(graph, 0, index=index)
    for window in windows:
        measurement = engine.measure_mstw(window)
        warm = measurement.tree
        cold = _cold_mstw(index, 0, window)
        assert _ser(warm) == _ser(cold), window
        assert measurement.caveat is None
        if cold is not None:
            assert warm.total_weight == cold.total_weight
    assert engine.stats == {"windows": len(windows)}
    assert not any(engine.msta.stats.values())
