"""Unit and equivalence tests for the incremental sliding-window stack.

Covers :mod:`repro.incremental` -- delta extraction
(:class:`TemporalEdgeIndex.delta`), ``MST_a`` maintenance
(:class:`IncrementalMSTa`), closure patching
(:func:`patch_prepared_instance`), and the composed
:class:`SlidingEngine` -- plus the empty-window measurement contract
and the budget-degradation caveats.  Every incremental result is
checked against the cold recomputation it claims to equal.
"""

import numpy as np
import pytest

from repro.core.errors import ReproError, UnreachableRootError
from repro.core.msta import minimum_spanning_tree_a
from repro.core.sliding import (
    SweepResult,
    WindowMeasurement,
    iter_windows,
    sliding_msta,
    sliding_mstw,
    sweep,
)
from repro.core.transformation import transform_temporal_graph
from repro.incremental import (
    IncrementalMSTa,
    SlidingEngine,
    patch_prepared_instance,
    sliding_msta_incremental,
    sliding_mstw_incremental,
)
from repro.resilience.budget import Budget
from repro.steiner.instance import prepare_instance
from repro.temporal.edge import TemporalEdge
from repro.temporal.graph import TemporalGraph
from repro.temporal.index import TemporalEdgeIndex, edge_index_for
from repro.temporal.window import TimeWindow

from tests.conftest import random_temporal


def _ser(tree):
    """Order-independent serialization of a spanning tree (or None)."""
    if tree is None:
        return None
    return (tree.root, sorted(tree.parent_edge.items()))


def _in_window(edge, window):
    return edge.start >= window.t_alpha and edge.arrival <= window.t_omega


class TestDeltaExtraction:
    WINDOWS = [
        (TimeWindow(0, 10), TimeWindow(2, 12)),
        (TimeWindow(0, 10), TimeWindow(0, 10)),
        (TimeWindow(0, 10), TimeWindow(10, 20)),
        (TimeWindow(0, 10), TimeWindow(25, 36)),  # disjoint full jump
        (TimeWindow(5, 15), TimeWindow(0, 10)),  # backward
        (TimeWindow(0, 36), TimeWindow(12, 20)),  # shrink
        (TimeWindow(12, 20), TimeWindow(0, 36)),  # grow
    ]

    @pytest.mark.parametrize("seed", range(6))
    def test_delta_matches_set_difference(self, seed):
        graph = random_temporal(seed, n=10, m=60)
        index = TemporalEdgeIndex(graph)
        for old, new in self.WINDOWS:
            added, removed = index.delta(old, new)
            in_old = set(index.edges_in(old))
            in_new = set(index.edges_in(new))
            assert set(added) == in_new - in_old, (old, new)
            assert set(removed) == in_old - in_new, (old, new)
            assert not (set(added) & set(removed))

    @pytest.mark.parametrize("seed", range(4))
    def test_delta_with_zero_duration_edges(self, seed):
        graph = random_temporal(seed, n=8, m=40, zero_duration=True)
        index = TemporalEdgeIndex(graph)
        # Slide boundaries landing exactly on the instantaneous edges.
        for old, new in [
            (TimeWindow(0, 5), TimeWindow(5, 10)),
            (TimeWindow(0, 5), TimeWindow(0, 5)),
            (TimeWindow(3, 7), TimeWindow(4, 8)),
        ]:
            added, removed = index.delta(old, new)
            in_old = set(index.edges_in(old))
            in_new = set(index.edges_in(new))
            assert set(added) == in_new - in_old
            assert set(removed) == in_old - in_new

    def test_identical_windows_yield_empty_delta(self, figure1):
        index = TemporalEdgeIndex(figure1)
        window = TimeWindow(*figure1.time_span())
        added, removed = index.delta(window, window)
        assert added == [] and removed == []

    def test_edges_in_matches_naive_filter(self, figure1):
        index = TemporalEdgeIndex(figure1)
        window = TimeWindow(2, 6)
        expected = {e for e in figure1.edges if _in_window(e, window)}
        assert set(index.edges_in(window)) == expected
        assert index.count_in(window) == len(expected)

    def test_edges_in_graph_order_matches_graph_scan(self):
        graph = random_temporal(3, n=9, m=50)
        index = TemporalEdgeIndex(graph)
        for window in [TimeWindow(0, 12), TimeWindow(7, 22), TimeWindow(30, 36)]:
            expected = tuple(e for e in graph.edges if _in_window(e, window))
            assert index.edges_in_graph_order(window) == expected

    def test_shared_index_is_per_graph(self, figure1, figure3):
        a = edge_index_for(figure1)
        assert edge_index_for(figure1) is a
        assert edge_index_for(figure3) is not a


class TestIncrementalMSTa:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("window_length,step", [(12, 3), (8, 8), (20, 5)])
    def test_forward_sweep_matches_cold(self, seed, window_length, step):
        graph = random_temporal(seed, n=10, m=45)
        cold = sliding_msta(graph, 0, window_length, step)
        warm = sliding_msta_incremental(graph, 0, window_length, step)
        assert len(cold) == len(warm)
        for c, w in zip(cold, warm):
            assert c.window == w.window
            assert _ser(c.tree) == _ser(w.tree)
            if c.tree is not None:
                assert c.tree.arrival_times == w.tree.arrival_times

    def test_incremental_slides_actually_happen(self):
        graph = random_temporal(1, n=10, m=45)
        inc = IncrementalMSTa(graph, 0)
        for window in iter_windows(graph, 12, 3):
            inc.advance(window)
        assert inc.stats["incremental_slides"] > 0
        assert inc.stats["cold_solves"] >= 1  # the first window

    def test_backward_slide_recomputes_cold(self):
        graph = random_temporal(2, n=10, m=45)
        index = TemporalEdgeIndex(graph)
        inc = IncrementalMSTa(graph, 0)
        w2, w1 = TimeWindow(10, 22), TimeWindow(4, 16)
        inc.advance(w2)
        tree = inc.advance(w1)  # backward: both boundaries decrease
        assert inc.stats["cold_solves"] == 2
        expected = minimum_spanning_tree_a(index.subgraph(w1), 0, w1)
        assert _ser(tree) == _ser(expected)

    def test_budget_drain_degrades_to_cold_with_caveat(self):
        graph = random_temporal(4, n=10, m=45)
        index = TemporalEdgeIndex(graph)
        inc = IncrementalMSTa(graph, 0)
        windows = list(iter_windows(graph, 14, 3))
        inc.advance(windows[0])
        tree = inc.advance(windows[1], budget=Budget(max_expansions=0).start())
        assert inc.stats["budget_fallbacks"] == 1
        assert inc.last_caveat is not None
        # The degraded window still produces the exact cold answer.
        expected = minimum_spanning_tree_a(
            index.subgraph(windows[1]), 0, windows[1]
        )
        assert _ser(tree) == _ser(expected)
        # A later unbudgeted slide clears the caveat again.
        inc.advance(windows[2])
        assert inc.last_caveat is None


class TestClosurePatch:
    def _prepared_for(self, graph, root, window, terminals):
        active = edge_index_for(graph).subgraph(window)
        transformed = transform_temporal_graph(active, root, window)
        prepared = prepare_instance(
            transformed.dst_instance(terminals=terminals)
        )
        return transformed, prepared

    def test_noop_patch_is_bitwise_identical(self, figure1):
        window = TimeWindow(*figure1.time_span())
        tree = minimum_spanning_tree_a(figure1, 0, window)
        terminals = sorted(v for v in tree.vertices if v != 0)
        transformed, prepared = self._prepared_for(figure1, 0, window, terminals)
        patched = patch_prepared_instance(
            transformed, prepared, transformed, terminals, set()
        )
        assert patched is not None
        assert np.array_equal(patched.closure.dist, prepared.closure.dist)
        assert np.array_equal(patched.closure.next_hop, prepared.closure.next_hop)

    def test_all_dirty_refuses(self, figure1):
        window = TimeWindow(*figure1.time_span())
        tree = minimum_spanning_tree_a(figure1, 0, window)
        terminals = sorted(v for v in tree.vertices if v != 0)
        transformed, prepared = self._prepared_for(figure1, 0, window, terminals)
        patched = patch_prepared_instance(
            transformed, prepared, transformed, terminals, set(figure1.vertices)
        )
        assert patched is None

    @pytest.mark.parametrize("seed", range(6))
    def test_engine_patched_closures_match_cold_bitwise(self, seed):
        """Patch each window's closure from the previous window's, as a
        forward sweep over the parent graph would, and compare it with
        the cold closure bit for bit."""
        graph = random_temporal(seed, n=12, m=70)
        index = edge_index_for(graph)
        patched_windows = 0
        previous = None
        for window in iter_windows(graph, 16, 2):
            transformed = transform_temporal_graph(
                graph, 0, window, chronological=True
            )
            terminals = sorted(transformed.reached(), key=repr)
            if not terminals:
                continue
            cold = prepare_instance(
                transformed.dst_instance(terminals=terminals)
            )
            prepared = None
            if previous is not None:
                prev_window, prev_transformed, prev_prepared = previous
                added, removed = index.delta(prev_window, window)
                changed = {v for e in added + removed for v in (e.source, e.target)}
                prepared = patch_prepared_instance(
                    prev_transformed, prev_prepared, transformed, terminals, changed
                )
            if prepared is None:
                prepared = cold
            else:
                patched_windows += 1
                assert np.array_equal(prepared.closure.dist, cold.closure.dist)
                assert np.array_equal(
                    prepared.closure.next_hop, cold.closure.next_hop
                )
            previous = (window, transformed, prepared)
        if seed == 0:
            # At least the first seed must exercise the patch path, or
            # the bitwise assertion above never ran.
            assert patched_windows > 0


class TestSlidingEngine:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("level", [2, 3])
    def test_mstw_sweep_matches_cold(self, seed, level):
        graph = random_temporal(seed, n=10, m=45)
        cold = sliding_mstw(graph, 0, 14, 4, level=level)
        warm = sliding_mstw_incremental(graph, 0, 14, 4, level=level)
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
        # MST_w windows never touch the MST_a maintainer.
        assert not any(engine.msta.stats.values())
        for window in windows:
            engine.measure_msta(window)
        assert engine.stats == {"windows": 2 * len(windows)}
        assert engine.msta.stats["cold_solves"] >= 1

    def test_budget_drain_degrades_with_caveat(self):
        graph = random_temporal(6, n=10, m=45)
        cold = sliding_msta(graph, 0, 14, 4)
        engine = SlidingEngine(graph, 0)
        warm = [
            engine.measure_msta(w, budget=Budget(max_expansions=0))
            for w in iter_windows(graph, 14, 4)
        ]
        # Output-identical despite every repair being cut off.
        for c, w in zip(cold, warm):
            assert _ser(c.tree) == _ser(w.tree)
        assert any(m.caveat for m in warm)
        assert engine.msta.stats["budget_fallbacks"] > 0

    def test_unknown_algorithm_rejected(self, figure1):
        engine = SlidingEngine(figure1, 0, algorithm="bogus")
        with pytest.raises(ValueError):
            engine.measure_mstw(TimeWindow(*figure1.time_span()))


class TestEngineParameterRouting:
    def test_sliding_msta_engines_agree(self, figure1):
        cold = sliding_msta(figure1, 0, 5, 2, engine="cold")
        warm = sliding_msta(figure1, 0, 5, 2, engine="incremental")
        assert [_ser(m.tree) for m in cold] == [_ser(m.tree) for m in warm]

    def test_sliding_mstw_engines_agree(self, figure1):
        cold = sliding_mstw(figure1, 0, 6, 3, engine="cold")
        warm = sliding_mstw(figure1, 0, 6, 3, engine="incremental")
        assert [_ser(m.tree) for m in cold] == [_ser(m.tree) for m in warm]

    def test_unknown_engine_rejected(self, figure1):
        with pytest.raises(ReproError):
            sliding_msta(figure1, 0, 5, engine="warmish")
        with pytest.raises(ReproError):
            sliding_mstw(figure1, 0, 5, engine="warmish")

    def test_sweep_front_door(self, figure1):
        result = sweep(figure1, 0, 5, 2, kind="msta")
        assert isinstance(result, SweepResult)
        assert result.kind == "msta" and result.engine == "incremental"
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
        result = sweep(self._gapped_graph(), 0, 6, 6, kind=kind, engine=engine)
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
