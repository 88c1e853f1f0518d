"""Property-based tests (hypothesis) for the ``MST_a`` algorithms.

Strategy: random temporal multigraphs with integer timestamps and
optionally zero durations; properties assert the core invariants the
paper proves -- agreement of Algorithms 1/2, Bhadra, and the
fixpoint oracle, plus the structural spanning-tree conditions.

Algorithm 1 scans only the edges that start inside the window (the
bisected start slice of the chronological order).  The window-slice
properties below pin it to :func:`full_scan_alg1`, the whole-list pass
it replaced: same arrivals and same parent edges on any durations,
with edges exactly on the window bounds, duplicate start times, and
zero-width and unbounded windows.  The cooperative budget now ticks
per scanned *in-window* edge (every 1024 of them), not per graph edge.
"""

import math

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.baselines.bhadra import bhadra_msta
from repro.baselines.brute_force import brute_force_earliest_arrival
from repro.core.msta import msta_chronological, msta_stack
from repro.resilience.budget import Budget
from repro.temporal.edge import TemporalEdge
from repro.temporal.graph import TemporalGraph
from repro.temporal.window import TimeWindow


def full_scan_alg1(graph, root, window):
    """Algorithm 1 over the *whole* chronological edge list (the oracle).

    Returns ``(arrival map, parent-edge map)`` exactly as the pre-slice
    pass computed them: every edge is tested against line 3, in
    chronological order.
    """
    arrival = {root: window.t_alpha}
    parent = {}
    inf = math.inf
    for edge in graph.chronological_edges():
        if (
            edge.start >= arrival.get(edge.source, inf)
            and edge.arrival < arrival.get(edge.target, inf)
            and edge.arrival <= window.t_omega
        ):
            arrival[edge.target] = edge.arrival
            parent[edge.target] = edge
    return arrival, parent


@st.composite
def temporal_graphs(draw, max_vertices=8, max_edges=24, allow_zero=True):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    num_edges = draw(st.integers(min_value=0, max_value=max_edges))
    edges = []
    for _ in range(num_edges):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u == v:
            continue
        start = draw(st.integers(min_value=0, max_value=20))
        if allow_zero:
            duration = draw(st.integers(min_value=0, max_value=4))
        else:
            duration = draw(st.integers(min_value=1, max_value=4))
        weight = draw(st.integers(min_value=1, max_value=9))
        edges.append(TemporalEdge(u, v, start, start + duration, weight))
    return TemporalGraph(edges, vertices=range(n))


@settings(max_examples=120, deadline=None)
@given(graph=temporal_graphs(allow_zero=False))
def test_alg1_matches_oracle_nonzero_durations(graph):
    tree = msta_chronological(graph, 0)
    assert tree.arrival_times == brute_force_earliest_arrival(graph, 0)


@settings(max_examples=120, deadline=None)
@given(graph=temporal_graphs(allow_zero=True))
def test_alg2_matches_oracle_any_durations(graph):
    tree = msta_stack(graph, 0)
    assert tree.arrival_times == brute_force_earliest_arrival(graph, 0)


@settings(max_examples=120, deadline=None)
@given(graph=temporal_graphs(allow_zero=True))
def test_bhadra_matches_alg2(graph):
    assert (
        bhadra_msta(graph, 0).arrival_times == msta_stack(graph, 0).arrival_times
    )


@settings(max_examples=80, deadline=None)
@given(graph=temporal_graphs(allow_zero=True))
def test_tree_structure_invariants(graph):
    tree = msta_stack(graph, 0)
    tree.validate(graph)
    # every non-root covered vertex has exactly one in-edge targeting it
    for v, edge in tree.parent_edge.items():
        assert edge.target == v
        assert edge.source in tree.vertices


@settings(max_examples=80, deadline=None)
@given(
    graph=temporal_graphs(allow_zero=True),
    t_alpha=st.integers(min_value=0, max_value=10),
    length=st.integers(min_value=0, max_value=15),
)
def test_windowed_agreement(graph, t_alpha, length):
    window = TimeWindow(t_alpha, t_alpha + length)
    expected = brute_force_earliest_arrival(graph, 0, window)
    assert msta_stack(graph, 0, window).arrival_times == expected


@settings(max_examples=80, deadline=None)
@given(graph=temporal_graphs(allow_zero=False))
def test_arrival_times_are_edge_arrivals_or_t_alpha(graph):
    tree = msta_chronological(graph, 0)
    arrivals = {e.arrival for e in graph.edges} | {0.0}
    assert set(tree.arrival_times.values()) <= arrivals


@settings(max_examples=60, deadline=None)
@given(graph=temporal_graphs(allow_zero=True))
def test_msta_minimises_max_arrival(graph):
    """Section 2.3: MST_a also minimises the maximum arrival time."""
    tree = msta_stack(graph, 0)
    oracle = brute_force_earliest_arrival(graph, 0)
    if len(oracle) > 1:
        assert tree.max_arrival_time == max(oracle.values())


# ----------------------------------------------------------------------
# Window-sliced Algorithm 1 == the full-scan oracle
# ----------------------------------------------------------------------
@st.composite
def graphs_and_windows(draw, dense_starts=False):
    """A graph plus a window whose bounds often sit on edge timestamps.

    ``dense_starts`` draws every start from a handful of values, so
    many edges share a start time (and ties reach the slice bounds).
    """
    n = draw(st.integers(min_value=2, max_value=7))
    top = 4 if dense_starts else 20
    edges = []
    for _ in range(draw(st.integers(min_value=0, max_value=24))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u == v:
            continue
        start = draw(st.integers(min_value=0, max_value=top))
        duration = draw(st.integers(min_value=0, max_value=3))
        edges.append(TemporalEdge(u, v, start, start + duration, 1))
    graph = TemporalGraph(edges, vertices=range(n))
    stamps = sorted({e.start for e in edges} | {e.arrival for e in edges} | {0})
    t_alpha = draw(
        st.sampled_from(stamps) | st.integers(min_value=-2, max_value=top + 4)
    )
    shape = draw(st.sampled_from(["bounded", "zero-width", "unbounded"]))
    if shape == "zero-width":
        t_omega = t_alpha
    elif shape == "unbounded":
        t_omega = math.inf
    else:
        later = [t for t in stamps if t >= t_alpha] or [t_alpha]
        t_omega = draw(
            st.sampled_from(later) | st.integers(min_value=t_alpha, max_value=top + 8)
        )
    return graph, TimeWindow(t_alpha, t_omega)


def _sliced_equals_full_scan(graph, window):
    tree = msta_chronological(graph, 0, window, check_durations=False)
    arrival, parent = full_scan_alg1(graph, 0, window)
    assert tree.arrival_times == arrival
    assert tree.parent_edge == parent


@settings(max_examples=200, deadline=None)
@given(case=graphs_and_windows())
def test_window_sliced_alg1_matches_full_scan(case):
    graph, window = case
    _sliced_equals_full_scan(graph, window)


@settings(max_examples=150, deadline=None)
@given(case=graphs_and_windows(dense_starts=True))
def test_window_sliced_alg1_matches_full_scan_duplicate_starts(case):
    graph, window = case
    _sliced_equals_full_scan(graph, window)


def test_window_slice_keeps_edges_on_the_bounds():
    """``start == t_alpha``, ``start == t_omega`` and ``arrival == t_omega``.

    Edges sitting exactly on a bound are inside the start slice; edges
    just outside it are not, and neither could relax anyway.
    """
    edges = [
        TemporalEdge(0, 1, 2, 3, 1),  # start == t_alpha
        TemporalEdge(1, 2, 3, 6, 1),  # arrival == t_omega
        TemporalEdge(2, 3, 6, 6, 1),  # start == t_omega (zero duration)
        TemporalEdge(0, 4, 6, 7, 1),  # start == t_omega, arrives too late
        TemporalEdge(0, 5, 1, 2, 1),  # starts before t_alpha
        TemporalEdge(0, 6, 2, 2, 1),  # zero duration on t_alpha
        TemporalEdge(6, 7, 2, 4, 1),  # duplicate start, chained off it
    ]
    graph = TemporalGraph(edges)
    window = TimeWindow(2, 6)
    assert [e.start for e in graph.chronological_slice(2, 6)] == [2, 2, 2, 3, 6, 6]
    tree = msta_chronological(graph, 0, window, check_durations=False)
    assert tree.arrival_times == {0: 2, 1: 3, 2: 6, 3: 6, 6: 2, 7: 4}
    _sliced_equals_full_scan(graph, window)
    for bounds in ((2, 2), (6, 6), (0, math.inf), (7, math.inf)):
        _sliced_equals_full_scan(graph, TimeWindow(*bounds))


def test_budget_ticks_per_in_window_edge():
    """The scan checkpoints every 1024 *scanned* edges -- in-window only."""
    edges = [TemporalEdge(0, 1, t, t + 1, 1) for t in range(3000)]
    graph = TemporalGraph(edges)
    narrow = Budget(max_expansions=10)
    msta_chronological(graph, 0, TimeWindow(100, 600), budget=narrow)
    assert narrow.expansions == 0
    wide = Budget.unlimited()
    msta_chronological(graph, 0, TimeWindow(0, 2099), budget=wide)
    assert wide.expansions == 2048
