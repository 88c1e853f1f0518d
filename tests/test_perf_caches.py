"""Output-identity guarantees behind every PR-2 perf optimisation.

Each cache / hoisting change is only admissible if the optimised code
returns *exactly* what the unoptimised code returned.  These property
tests pin that down:

* the reach-only transformation against the rooted whole-𝔾 oracle
  as the window changes on one graph;
* end-to-end ``MST_w`` weight identity across repeated runs on one graph;
* the optimised level-``i`` solvers vs the verbatim pre-optimisation
  implementation (:mod:`tests.legacy`);
* the memoised per-source rows/orders vs their numpy originals.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.mstw import minimum_spanning_tree_w, prepare_mstw_instance
import repro.steiner.instance as steiner_instance
from tests.legacy import legacy_improved_dst
from repro.steiner.improved import improved_dst
from repro.steiner.pruned import pruned_dst
from repro.temporal.edge import TemporalEdge
from repro.temporal.graph import TemporalGraph
from repro.temporal.window import TimeWindow

from tests.conftest import assert_matches_rooted_oracle


@st.composite
def reachable_graphs(draw, max_vertices=6, max_extra=8):
    """Temporal graphs where every vertex is reachable from root 0."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    edges = []
    arrival = {0: 0}
    for v in range(1, n):
        parent = draw(st.sampled_from(sorted(arrival)))
        start = arrival[parent] + draw(st.integers(min_value=0, max_value=3))
        duration = draw(st.integers(min_value=0, max_value=2))
        weight = draw(st.integers(min_value=1, max_value=9))
        edges.append(TemporalEdge(parent, v, start, start + duration, weight))
        arrival[v] = start + duration
    extra = draw(st.integers(min_value=0, max_value=max_extra))
    for _ in range(extra):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u == v:
            continue
        start = draw(st.integers(min_value=0, max_value=12))
        duration = draw(st.integers(min_value=0, max_value=2))
        weight = draw(st.integers(min_value=1, max_value=9))
        edges.append(TemporalEdge(u, v, start, start + duration, weight))
    return TemporalGraph(edges, vertices=range(n))


class TestTransformationCache:
    @settings(max_examples=25, deadline=None)
    @given(graph=reachable_graphs())
    def test_window_change_invalidates(self, graph):
        """Consecutive windows on one graph each get their own answer."""
        for window in (TimeWindow(0, 3), TimeWindow(0, float("inf")), TimeWindow(0, 3)):
            assert_matches_rooted_oracle(graph, 0, window)


class TestPipelineCacheIdentity:
    @settings(max_examples=30, deadline=None)
    @given(
        graph=reachable_graphs(),
        level=st.integers(min_value=1, max_value=3),
    )
    def test_mstw_weight_identical_with_caches(self, graph, level):
        first = minimum_spanning_tree_w(graph, 0, level=level)
        # The second run reuses the graph's store and sort orders.
        second = minimum_spanning_tree_w(graph, 0, level=level)
        assert first.weight == second.weight
        assert first.tree.parent_edge == second.tree.parent_edge


class TestSolverEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(
        graph=reachable_graphs(),
        level=st.integers(min_value=1, max_value=3),
    )
    def test_improved_matches_legacy(self, graph, level):
        """The optimised Algorithm 4/5 returns the legacy solver's tree."""
        _, prepared = prepare_mstw_instance(graph, 0)
        old = legacy_improved_dst(prepared, level)
        new = improved_dst(prepared, level)
        assert new.cost == old.cost
        assert sorted(new.edges) == sorted(old.edges)
        assert new.covered == old.covered

    @settings(max_examples=25, deadline=None)
    @given(
        graph=reachable_graphs(),
        level=st.integers(min_value=1, max_value=3),
    )
    def test_pruned_matches_legacy(self, graph, level):
        """Algorithm 6 still agrees with the legacy solver (Theorem 9)."""
        _, prepared = prepare_mstw_instance(graph, 0)
        old = legacy_improved_dst(prepared, level)
        new = pruned_dst(prepared, level)
        assert new.cost == pytest.approx(old.cost)
        assert new.covered == old.covered

    @settings(max_examples=25, deadline=None)
    @given(
        graph=reachable_graphs(),
        level=st.integers(min_value=1, max_value=2),
        k=st.integers(min_value=1, max_value=4),
    )
    def test_partial_coverage_matches_legacy(self, graph, level, k):
        _, prepared = prepare_mstw_instance(graph, 0)
        old = legacy_improved_dst(prepared, level, k=k)
        new = improved_dst(prepared, level, k=k)
        assert new.cost == old.cost
        assert new.covered == old.covered


class TestRowMemoEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(graph=reachable_graphs())
    def test_cost_row_matches_closure(self, graph):
        _, prepared = prepare_mstw_instance(graph, 0)
        for source in range(prepared.num_vertices):
            row = prepared.cost_row(source)
            costs = prepared.closure.costs_from(source)
            assert row == [float(c) for c in costs]
            # Memoised: same list object on repeat.
            assert prepared.cost_row(source) is row

    @settings(max_examples=30, deadline=None)
    @given(graph=reachable_graphs())
    def test_sorted_terminals_matches_fresh_sort(self, graph):
        """Each terminal row is a fresh ``(cost, index)`` sort of the closure."""
        _, prepared = prepare_mstw_instance(graph, 0)
        for source in range(prepared.num_vertices):
            costs, ids = prepared.terminal_row(source)
            row = prepared.closure.costs_from(source).tolist()
            expected = sorted(prepared.terminals, key=lambda x: (row[x], x))
            assert ids == expected
            assert costs == [row[x] for x in expected]
            # Memoised: same pair on repeat.
            assert prepared.terminal_row(source) is prepared.terminal_row(source)

    def test_cost_row_memo_is_bounded(self, monkeypatch):
        """Eviction cap: the row memo never exceeds COST_ROW_MEMO_SIZE.

        The cap is shrunk to 3 so a small instance exercises eviction:
        the oldest entry leaves first, a fresh (equal) list is rebuilt
        on re-query, and recently-used entries survive insertion.
        """
        monkeypatch.setattr(steiner_instance, "COST_ROW_MEMO_SIZE", 3)
        graph = TemporalGraph(
            [
                TemporalEdge(0, v, t, t, 1.0)
                for t, v in enumerate(range(1, 6), start=1)
            ]
        )
        _, prepared = prepare_mstw_instance(graph, 0)
        assert prepared.num_vertices >= 5
        rows = [prepared.cost_row(s) for s in range(5)]
        assert len(prepared._cost_rows) == 3
        assert set(prepared._cost_rows) == {2, 3, 4}
        # Evicted source 0 is recomputed: equal values, new list object.
        rebuilt = prepared.cost_row(0)
        assert rebuilt == rows[0]
        assert rebuilt is not rows[0]
        # LRU, not FIFO: touching source 2 keeps it through an insert.
        prepared.cost_row(2)
        prepared.cost_row(1)
        assert 2 in prepared._cost_rows
        assert len(prepared._cost_rows) == 3

    def test_terminal_row_memo_is_bounded(self, monkeypatch):
        """The row LRU over the block is capped at TERMINAL_ROW_MEMO_SIZE.

        Rows are cut from one ``(n, T)`` block built once per instance;
        evicting a row drops only its lists, never the block, and a
        re-query cuts an equal row from the same block.
        """
        monkeypatch.setattr(steiner_instance, "TERMINAL_ROW_MEMO_SIZE", 3)
        graph = TemporalGraph(
            [
                TemporalEdge(0, v, t, t, 1.0)
                for t, v in enumerate(range(1, 6), start=1)
            ]
        )
        _, prepared = prepare_mstw_instance(graph, 0)
        assert prepared.num_vertices >= 5
        rows = [prepared.terminal_row(s) for s in range(5)]
        block = prepared.terminal_block()
        assert len(prepared._terminal_rows) == 3
        assert set(prepared._terminal_rows) == {2, 3, 4}
        rebuilt = prepared.terminal_row(0)
        assert rebuilt == rows[0]
        assert rebuilt is not rows[0]
        assert prepared.terminal_block() is block
        # LRU, not FIFO: touching source 2 keeps it through an insert.
        prepared.terminal_row(2)
        prepared.terminal_row(1)
        assert 2 in prepared._terminal_rows
        assert len(prepared._terminal_rows) == 3

    def test_terminal_block_shape_and_pickle(self):
        """The block is ``(n, T)``, built once, and never pickled."""
        import pickle

        graph = TemporalGraph(
            [
                TemporalEdge(0, v, t, t + 1, float(v))
                for t, v in enumerate(range(1, 6), start=1)
            ]
        )
        _, prepared = prepare_mstw_instance(graph, 0)
        cold = len(pickle.dumps(prepared))
        costs, ids = prepared.terminal_block()
        assert costs.shape == ids.shape
        assert costs.shape == (prepared.num_vertices, prepared.num_terminals)
        assert prepared.terminal_block()[0] is costs
        prepared.terminal_row(prepared.root)
        assert len(pickle.dumps(prepared)) == cold
        clone = pickle.loads(pickle.dumps(prepared))
        assert clone._terminal_block is None
        assert len(clone._terminal_rows) == 0
        assert clone.terminal_row(clone.root) == prepared.terminal_row(prepared.root)
