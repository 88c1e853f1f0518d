"""Unit and equivalence tests for the sliding-window engine.

Covers :class:`repro.incremental.SlidingEngine` and the sweep front
doors over it (:func:`sliding_msta`, :func:`sliding_mstw`,
:func:`sweep`), plus the empty-window measurement contract.  Every
engine result is checked against a cold per-window loop over each
window's subgraph (:func:`cold_sweep`).
"""

import pytest

from repro.core.errors import ReproError, UnreachableRootError
from repro.core.msta import minimum_spanning_tree_a
from repro.core.mstw import minimum_spanning_tree_w
from repro.core.sliding import (
    SweepResult,
    WindowMeasurement,
    iter_windows,
    sliding_msta,
    sliding_mstw,
    sweep,
)
from repro.incremental import SlidingEngine
from repro.temporal.edge import TemporalEdge
from repro.temporal.graph import TemporalGraph
from repro.temporal.index import TemporalEdgeIndex
from repro.temporal.window import TimeWindow

from tests.conftest import random_temporal


def cold_tree(index, root, window, kind="msta", level=2):
    """The cold per-window tree: the window's subgraph, solved alone."""
    active = index.subgraph(window)
    if root not in active.vertices:
        return None
    if kind == "msta":
        return minimum_spanning_tree_a(active, root, window)
    try:
        return minimum_spanning_tree_w(active, root, window, level=level).tree
    except UnreachableRootError:
        return None


def cold_sweep(graph, root, window_length, step, kind="msta", level=2):
    """One cold :class:`WindowMeasurement` per window of the sweep."""
    index = TemporalEdgeIndex(graph)
    return [
        WindowMeasurement(window, cold_tree(index, root, window, kind, level))
        for window in iter_windows(graph, window_length, step)
    ]


def _ser(tree):
    """Order-independent serialization of a spanning tree (or None)."""
    if tree is None:
        return None
    return (tree.root, sorted(tree.parent_edge.items()))


def _in_window(edge, window):
    return edge.start >= window.t_alpha and edge.arrival <= window.t_omega


class TestDeltaExtraction:
    """Window extraction through the edge index."""

    def test_edges_in_matches_naive_filter(self, figure1):
        index = TemporalEdgeIndex(figure1)
        window = TimeWindow(2, 6)
        expected = {e for e in figure1.edges if _in_window(e, window)}
        assert set(index.edges_in(window)) == expected
        assert index.count_in(window) == len(expected)


class TestIncrementalMSTa:
    """``MST_a`` windows through the engine, in any slide order."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("window_length,step", [(12, 3), (8, 8), (20, 5)])
    def test_forward_sweep_matches_cold(self, seed, window_length, step):
        graph = random_temporal(seed, n=10, m=45)
        cold = cold_sweep(graph, 0, window_length, step)
        warm = sliding_msta(graph, 0, window_length, step)
        assert len(cold) == len(warm)
        for c, w in zip(cold, warm):
            assert c.window == w.window
            assert _ser(c.tree) == _ser(w.tree)
            if c.tree is not None:
                assert c.tree.arrival_times == w.tree.arrival_times

    def test_backward_slide_recomputes_cold(self):
        graph = random_temporal(2, n=10, m=45)
        index = TemporalEdgeIndex(graph)
        engine = SlidingEngine(graph, 0)
        w2, w1 = TimeWindow(10, 22), TimeWindow(4, 16)
        engine.measure_msta(w2)
        tree = engine.measure_msta(w1).tree  # backward: both boundaries decrease
        expected = minimum_spanning_tree_a(index.subgraph(w1), 0, w1)
        assert _ser(tree) == _ser(expected)


class TestSlidingEngine:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("level", [2, 3])
    def test_mstw_sweep_matches_cold(self, seed, level):
        graph = random_temporal(seed, n=10, m=45)
        cold = cold_sweep(graph, 0, 14, 4, kind="mstw", level=level)
        warm = sliding_mstw(graph, 0, 14, 4, level=level)
        assert len(cold) == len(warm)
        for c, w in zip(cold, warm):
            assert c.window == w.window
            assert c.coverage == w.coverage
            assert c.cost == pytest.approx(w.cost)
            assert c.makespan == w.makespan
            assert _ser(c.tree) == _ser(w.tree)

    def test_engine_stats_accumulate(self):
        graph = random_temporal(5, n=10, m=45)
        engine = SlidingEngine(graph, 0)
        windows = list(iter_windows(graph, 14, 4))
        for window in windows:
            engine.measure_mstw(window)
        assert engine.stats == {"windows": len(windows)}
        for window in windows:
            engine.measure_msta(window)
        assert engine.stats == {"windows": 2 * len(windows)}
        assert engine.msta.stats == {}

    def test_unknown_algorithm_rejected(self, figure1):
        engine = SlidingEngine(figure1, 0, algorithm="bogus")
        with pytest.raises(ValueError):
            engine.measure_mstw(TimeWindow(*figure1.time_span()))


class TestEngineParameterRouting:
    def test_sliding_msta_engines_agree(self, figure1):
        cold = cold_sweep(figure1, 0, 5, 2)
        warm = sliding_msta(figure1, 0, 5, 2)
        assert [_ser(m.tree) for m in cold] == [_ser(m.tree) for m in warm]

    def test_sliding_mstw_engines_agree(self, figure1):
        cold = cold_sweep(figure1, 0, 6, 3, kind="mstw")
        warm = sliding_mstw(figure1, 0, 6, 3)
        assert [_ser(m.tree) for m in cold] == [_ser(m.tree) for m in warm]

    def test_sweep_front_door(self, figure1):
        result = sweep(figure1, 0, 5, 2, kind="msta")
        assert isinstance(result, SweepResult)
        assert result.kind == "msta"
        assert result.stats == {"windows": len(result.measurements)}
        rows = result.rows()
        assert len(rows) == len(result.measurements)
        assert set(rows[0]) == {
            "t_alpha", "t_omega", "coverage", "cost", "makespan", "caveat",
        }
        assert result.series("cost") == [row["cost"] for row in rows]
        with pytest.raises(ReproError):
            sweep(figure1, 0, 5, kind="mst_q")


class TestEmptyWindowContract:
    def _gapped_graph(self):
        # Root only active early; a far-away burst keeps the span long.
        return TemporalGraph(
            [
                TemporalEdge(0, 1, 0, 1, 1),
                TemporalEdge(1, 2, 1, 2, 1),
                TemporalEdge(3, 4, 30, 31, 1),
            ],
            vertices=range(5),
        )

    @pytest.mark.parametrize("engine", ["cold", "incremental"])
    @pytest.mark.parametrize("kind", ["msta", "mstw"])
    def test_empty_windows_export_none_makespan(self, engine, kind):
        graph = self._gapped_graph()
        if engine == "cold":
            measurements = cold_sweep(graph, 0, 6, 6, kind=kind)
        else:
            measurements = sweep(graph, 0, 6, 6, kind=kind).measurements
        result = SweepResult(kind=kind, root=0, measurements=measurements)
        empty = [m for m in result.measurements if m.tree is None]
        assert empty, "expected at least one empty window"
        for m in empty:
            assert m.coverage == 0
            assert m.cost == 0.0
            assert m.makespan is None  # None, never NaN
        for row in result.rows():
            makespan = row["makespan"]
            assert makespan is None or makespan == makespan  # no NaN leaks

    def test_nan_arrival_never_leaks(self, figure1):
        # Even a pathological tree whose max arrival is NaN must export
        # None from the measurement layer.
        window = TimeWindow(*figure1.time_span())
        tree = minimum_spanning_tree_a(figure1, 0, window)
        m = WindowMeasurement(window, tree)
        assert m.makespan == m.makespan  # healthy tree: finite
        assert WindowMeasurement(window, None).makespan is None

    def test_caveat_defaults_to_none(self, figure1):
        for m in sliding_msta(figure1, 0, 5, 2):
            assert m.caveat is None
