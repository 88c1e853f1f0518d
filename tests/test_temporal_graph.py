"""Unit tests for :mod:`repro.temporal.graph`."""

import pytest

from repro.core.errors import GraphFormatError
from repro.temporal.edge import TemporalEdge
from repro.temporal.graph import TemporalGraph, from_quintuples


class TestConstruction:
    def test_counts(self, figure1):
        assert figure1.num_vertices == 6
        assert figure1.num_edges == 10

    def test_isolated_vertices_preserved(self):
        g = TemporalGraph([TemporalEdge(0, 1, 0, 1, 1)], vertices=[0, 1, 9])
        assert 9 in g.vertices
        assert g.num_vertices == 3

    def test_rejects_arrival_before_start(self):
        with pytest.raises(GraphFormatError):
            TemporalGraph([TemporalEdge(0, 1, 5, 3, 1)])

    def test_rejects_negative_weight(self):
        with pytest.raises(GraphFormatError):
            TemporalGraph([TemporalEdge(0, 1, 1, 3, -2)])

    def test_accepts_raw_tuples(self):
        g = TemporalGraph([(0, 1, 1, 3, 2)])
        assert g.edges[0] == TemporalEdge(0, 1, 1, 3, 2)

    def test_parallel_edges_preserved(self):
        g = TemporalGraph(
            [TemporalEdge(0, 1, 0, 1, 1), TemporalEdge(0, 1, 2, 3, 1)]
        )
        assert g.num_edges == 2

    def test_len_and_iter(self, tiny_line):
        assert len(tiny_line) == 2
        assert list(tiny_line) == list(tiny_line.edges)

    def test_contains_vertex(self, tiny_line):
        assert 0 in tiny_line
        assert 99 not in tiny_line


class TestFormats:
    def test_chronological_sorted_by_start(self, figure1):
        starts = [e.start for e in figure1.chronological_edges()]
        assert starts == sorted(starts)

    def test_chronological_matches_example3_prefix(self, figure1):
        first_four = [tuple(e) for e in figure1.chronological_edges()[:4]]
        assert first_four == [
            (0, 1, 1, 3, 2),
            (0, 2, 1, 5, 4),
            (0, 2, 3, 6, 3),
            (0, 1, 4, 5, 1),
        ]

    def test_arrival_sorted(self, figure1):
        arrivals = [e.arrival for e in figure1.arrival_sorted_edges()]
        assert arrivals == sorted(arrivals)

    def test_sorted_adjacency_descending_starts(self, figure1):
        # Algorithm 2's sorted adjacency is the store's out-edge CSR,
        # read backwards from each vertex's end.
        store = figure1.columnar()
        offsets, positions, starts = store.out_adjacency()
        assert len(offsets) == figure1.num_vertices + 1
        for v in range(figure1.num_vertices):
            lo, hi = offsets[v], offsets[v + 1]
            backwards = [figure1.edges[p].start for p in positions[lo:hi]][::-1]
            assert backwards == sorted(backwards, reverse=True)
            assert backwards == list(starts[lo:hi])[::-1]

    def test_sorted_adjacency_covers_all_edges(self, figure1):
        offsets, positions, _ = figure1.columnar().out_adjacency()
        assert offsets[-1] == figure1.num_edges
        assert sorted(positions) == list(range(figure1.num_edges))

    def test_out_and_in_edges(self, figure1):
        assert len(figure1.out_edges(0)) == 4
        assert {e.target for e in figure1.out_edges(0)} == {1, 2}
        assert len(figure1.in_edges(1)) == 2
        assert figure1.in_edges(0) == []


class TestDerivedGraphs:
    def test_static_edges_distinct_pairs(self, figure1):
        static = figure1.static_edges()
        assert (0, 1) in static
        # the cheapest parallel weight is kept
        assert static[(0, 1)] == 1

    def test_restricted_window(self, figure1):
        sub = figure1.restricted(3, 7)
        assert all(e.start >= 3 and e.arrival <= 7 for e in sub.edges)
        assert sub.num_edges == 4

    def test_restricted_empty(self, figure1):
        assert figure1.restricted(100, 200).num_edges == 0

    def test_with_durations_one(self, figure1):
        g = figure1.with_durations(1)
        assert all(e.duration == 1 for e in g.edges)
        assert [e.start for e in g.edges] == [e.start for e in figure1.edges]

    def test_with_durations_zero(self, figure1):
        g = figure1.with_durations(0)
        assert g.has_zero_duration_edge()

    def test_with_durations_negative_rejected(self, figure1):
        with pytest.raises(GraphFormatError):
            figure1.with_durations(-1)

    def test_with_weights(self, tiny_line):
        g = tiny_line.with_weights({(0, 1): 10, (1, 2): 20})
        assert [e.weight for e in g.edges] == [10, 20]

    def test_with_weights_missing_pair(self, tiny_line):
        with pytest.raises(GraphFormatError):
            tiny_line.with_weights({(0, 1): 10})


class TestTimeHelpers:
    def test_time_span(self, figure1):
        assert figure1.time_span() == (1, 11)

    def test_time_span_empty_graph(self):
        with pytest.raises(GraphFormatError):
            TemporalGraph([]).time_span()

    def test_zero_duration_detection(self, figure1, figure3):
        assert not figure1.has_zero_duration_edge()
        assert figure3.has_zero_duration_edge()

    def test_distinct_time_instances(self, figure3):
        # starts {1,2,3,4} and arrivals {1,2,3,4}
        assert figure3.distinct_time_instances() == 4


class TestFromQuintuples:
    def test_five_tuples(self):
        g = from_quintuples([(0, 1, 1, 3, 2)])
        assert g.edges[0].weight == 2

    def test_four_tuples_default_weight(self):
        g = from_quintuples([(0, 1, 1, 3)])
        assert g.edges[0].weight == 1.0

    def test_bad_arity(self):
        with pytest.raises(GraphFormatError):
            from_quintuples([(0, 1, 1)])
