"""Tests for the Section 4.2 graph transformation (Figure 4 / Example 5)."""

import pytest

from repro.core import transformation
from repro.core.errors import UnreachableRootError
from repro.core.mstw import minimum_spanning_tree_w
from repro.core.transformation import (
    copy_label,
    dummy_label,
    transform_temporal_graph,
)
from tests.legacy import legacy_transform
from repro.temporal.edge import TemporalEdge
from repro.temporal.graph import TemporalGraph
from repro.temporal.paths import earliest_arrival_times
from repro.temporal.window import TimeWindow

from tests.conftest import assert_matches_rooted_oracle, random_temporal


class TestExample5:
    """The paper's worked transformation of Figure 1 into Figure 4."""

    @pytest.fixture
    def transformed(self, figure1):
        return transform_temporal_graph(figure1, 0)

    def test_vertex1_has_two_copies_and_dummy(self, transformed):
        g = transformed.digraph
        assert g.has_vertex(copy_label(1, 0))  # arrival 3 -> "1_1"
        assert g.has_vertex(copy_label(1, 1))  # arrival 5 -> "1_2"
        assert not g.has_vertex(copy_label(1, 2))
        assert g.has_vertex(dummy_label(1))
        assert transformed.arrival_instances[1] == [3, 5]

    def test_virtual_chain_for_vertex1(self, transformed):
        g = transformed.digraph
        c0, c1 = g.index_of(copy_label(1, 0)), g.index_of(copy_label(1, 1))
        d = g.index_of(dummy_label(1))
        assert (c1, 0.0) in g.out_neighbors(c0)
        assert (d, 0.0) in g.out_neighbors(c1)

    def test_solid_edge_from_copy_1_1(self, transformed):
        # Example 5: temporal edge (1,3,4,6,2) leaves copy 1_1 (time 3 <= 4)
        g = transformed.digraph
        src = g.index_of(copy_label(1, 0))
        arrival_instances = transformed.arrival_instances[3]
        j = arrival_instances.index(6)
        dst = g.index_of(copy_label(3, j))
        assert (dst, 2.0) in g.out_neighbors(src)

    def test_root_single_copy_no_dummy(self, transformed):
        g = transformed.digraph
        assert transformed.root_label == copy_label(0, 0)
        assert not g.has_vertex(dummy_label(0))
        assert transformed.arrival_instances[0] == [0.0]

    def test_lemma2_linear_size(self, transformed, figure1):
        # |V(G)| and |E(G)| are O(|E|)
        assert transformed.num_vertices <= 2 * figure1.num_edges + 1
        assert transformed.num_edges <= 2 * figure1.num_edges


class TestWindowHandling:
    def test_out_of_window_edges_skipped(self, figure1):
        t = transform_temporal_graph(figure1, 0, TimeWindow(0, 6))
        in_window = figure1.restricted(0, 6).num_edges
        solid = len(t.solid_origin)
        assert solid <= in_window

    def test_window_start_shifts_root_instance(self, figure1):
        t = transform_temporal_graph(figure1, 0, TimeWindow(2, 100))
        assert t.arrival_instances[0] == [2]

    def test_unusable_source_edges_counted(self):
        # edge from 1 departs before 1 can ever be reached
        g = TemporalGraph(
            [TemporalEdge(0, 1, 5, 6, 1), TemporalEdge(1, 2, 0, 1, 1)]
        )
        t = transform_temporal_graph(g, 0)
        assert t.skipped_edges == 1

    def test_edges_into_root_skipped(self):
        g = TemporalGraph(
            [TemporalEdge(0, 1, 0, 1, 1), TemporalEdge(1, 0, 2, 3, 1)]
        )
        t = transform_temporal_graph(g, 0)
        assert t.skipped_edges == 1
        assert len(t.solid_origin) == 1

    def test_self_loops_skipped(self):
        g = TemporalGraph(
            [TemporalEdge(0, 1, 0, 1, 1), TemporalEdge(1, 1, 2, 3, 1)]
        )
        t = transform_temporal_graph(g, 0)
        assert t.skipped_edges == 1


class TestStructuralInvariants:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("zero", [False, True])
    def test_every_solid_edge_time_consistent(self, seed, zero):
        g = random_temporal(seed, n=10, m=40, zero_duration=zero)
        t = transform_temporal_graph(g, 0)
        earliest = earliest_arrival_times(g, 0)
        for (src, dst, w), edge in t.solid_origin.items():
            _, u, i = src
            _, v, j = dst
            # the source copy's instance must not exceed the start time
            assert t.arrival_instances[u][i] <= edge.start
            # and the root reaches it: EA(u) <= its instance
            assert earliest[u] <= t.arrival_instances[u][i]
            # the target copy's instance equals the arrival
            assert t.arrival_instances[v][j] == edge.arrival
            assert w == edge.weight

    @pytest.mark.parametrize("seed", range(5))
    def test_copies_sorted_ascending(self, seed):
        g = random_temporal(seed)
        t = transform_temporal_graph(g, 0)
        for instants in t.arrival_instances.values():
            assert instants == sorted(instants)
            assert len(instants) == len(set(instants))

    def test_dummies_listed(self, figure1):
        t = transform_temporal_graph(figure1, 0)
        assert sorted(t.dummies()) == [dummy_label(v) for v in (1, 2, 3, 4, 5)]

    def test_unknown_root(self, figure1):
        with pytest.raises(UnreachableRootError):
            transform_temporal_graph(figure1, 99)


class TestReachOnly:
    """Only the part of 𝔾 the root reaches is built, in 𝔾's order."""

    def test_copies_below_earliest_arrival_are_left_out(self):
        # 1 is reached at 3 (EA(1) = 3), but 2 -> 1 arrives at 1 first:
        # copy 0 of vertex 1 exists in 𝔾 but the root cannot reach it.
        g = TemporalGraph(
            [
                TemporalEdge(2, 1, 0, 1, 1),
                TemporalEdge(0, 1, 2, 3, 1),
                TemporalEdge(1, 3, 4, 5, 1),
            ]
        )
        t, terminals = assert_matches_rooted_oracle(g, 0)
        assert terminals == [1, 3]
        assert t.digraph.labels() == [
            copy_label(0, 0),
            copy_label(1, 1),
            dummy_label(1),
            copy_label(3, 0),
            dummy_label(3),
        ]
        # The whole 𝔾 still counts copy 0 of vertex 1.
        assert t.arrival_instances[1] == [1, 3]
        assert t.num_vertices == 6
        assert t.digraph.in_neighbors(1) == [(0, 1)]

    def test_in_lists_keep_insertion_order(self):
        g = TemporalGraph(
            [
                TemporalEdge(0, 1, 0, 1, 1),
                TemporalEdge(0, 2, 0, 1, 1),
                TemporalEdge(2, 3, 2, 5, 4),
                TemporalEdge(1, 3, 3, 5, 2),
            ]
        )
        t, _ = assert_matches_rooted_oracle(g, 0)
        d = t.digraph
        target = d.index_of(copy_label(3, 0))
        assert [d.label_of(u) for u, _ in d.in_neighbors(target)] == [
            copy_label(2, 0),
            copy_label(1, 0),
        ]

    def test_root_reaching_nothing(self):
        g = TemporalGraph(
            [TemporalEdge(1, 2, 0, 1, 1), TemporalEdge(2, 0, 2, 3, 1)]
        )
        t, terminals = assert_matches_rooted_oracle(g, 0)
        assert terminals == []
        assert t.digraph.labels() == [copy_label(0, 0)]
        assert t.dst_instance().terminals == ()
        assert t.num_vertices == 3  # 2's copy and dummy, and the root copy
        with pytest.raises(UnreachableRootError):
            t.dst_instance(terminals=[2])

    def test_whole_counts_are_computed_only_when_read(self, monkeypatch):
        # A wide window whose root reaches one vertex: the query sorts
        # only that vertex's in-edges and never counts the whole 𝔾.
        edges = [TemporalEdge(0, 1, 0, 1, 2)] + [
            TemporalEdge(2 + i % 30, 2 + (7 * i + 1) % 30, i, i + 1, 1 + i % 3)
            for i in range(300)
        ]
        g = TemporalGraph(edges)
        whole_statistics = transformation._whole_statistics

        def forbidden(*args):
            raise AssertionError("the whole window's 𝔾 was counted")

        monkeypatch.setattr(transformation, "_whole_statistics", forbidden)
        result = minimum_spanning_tree_w(g, 0, level=2)
        assert result.num_terminals == 1
        assert result.transformed.digraph.num_vertices == 3

        calls = []

        def counting(*args):
            calls.append(args)
            return whole_statistics(*args)

        monkeypatch.setattr(transformation, "_whole_statistics", counting)
        legacy = legacy_transform(g, 0, TimeWindow.unbounded())
        assert result.transformed_edges == legacy.num_edges
        assert result.transformed_vertices == legacy.num_vertices
        assert result.transformed.skipped_edges == legacy.skipped_edges
        assert len(calls) == 1


class TestDSTInstanceCreation:
    def test_default_terminals(self, figure1):
        t = transform_temporal_graph(figure1, 0)
        inst = t.dst_instance()
        assert set(inst.terminals) == {dummy_label(v) for v in (1, 2, 3, 4, 5)}
        assert inst.root == t.root_label

    def test_explicit_terminals(self, figure1):
        t = transform_temporal_graph(figure1, 0)
        inst = t.dst_instance(terminals=[1, 3])
        assert set(inst.terminals) == {dummy_label(1), dummy_label(3)}

    def test_root_excluded_from_terminals(self, figure1):
        t = transform_temporal_graph(figure1, 0)
        inst = t.dst_instance(terminals=[0, 1])
        assert set(inst.terminals) == {dummy_label(1)}
