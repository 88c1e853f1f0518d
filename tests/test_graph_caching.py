"""Behavioural tests for TemporalGraph's cached derived structures."""

import pickle

import pytest

import repro.temporal.graph as graph_module
from repro.temporal.edge import TemporalEdge
from repro.temporal.graph import TemporalGraph


class TestCaching:
    def test_chronological_cached_identity(self, figure1):
        assert figure1.chronological_edges() is figure1.chronological_edges()

    def test_sorted_adjacency_cached_identity(self, figure1):
        store = figure1.columnar()
        assert store.out_adjacency() is store.out_adjacency()
        assert store.in_adjacency() is store.in_adjacency()

    def test_arrival_sorted_cached_identity(self, figure1):
        assert figure1.arrival_sorted_edges() is figure1.arrival_sorted_edges()

    def test_out_edges_consistent_with_adjacency(self, figure1):
        store = figure1.columnar()
        offsets, positions, _ = store.out_adjacency()
        for v in figure1.vertices:
            i = store.vertex_ids[v]
            run = positions[offsets[i] : offsets[i + 1]]
            assert sorted(map(tuple, figure1.out_edges(v))) == sorted(
                tuple(figure1.edges[p]) for p in run
            )

    def test_derived_graphs_do_not_share_caches(self, figure1):
        restricted = figure1.restricted(0, 6)
        assert restricted.chronological_edges() is not figure1.chronological_edges()
        assert len(restricted.chronological_edges()) < len(
            figure1.chronological_edges()
        )


class TestMemoisedDerivedState:
    """The zero-duration flag and the chronological start keys."""

    def test_zero_duration_flag_scans_once(self, figure3, monkeypatch):
        calls = []

        def counting_is_zero(x, eps=1e-9):
            calls.append(x)
            return abs(x) <= eps

        monkeypatch.setattr(graph_module, "is_zero", counting_is_zero)
        assert figure3.has_zero_duration_edge()
        scanned = len(calls)
        assert scanned > 0
        assert figure3.has_zero_duration_edge()
        assert len(calls) == scanned

    def test_slice_is_the_start_window_of_the_chronological_order(self, figure1):
        for t_alpha, t_omega in ((0, 6), (2, 2), (3, float("inf")), (99, 100)):
            expected = tuple(
                e
                for e in figure1.chronological_edges()
                if t_alpha <= e.start <= t_omega
            )
            assert figure1.chronological_slice(t_alpha, t_omega) == expected

    def test_pickle_resets_and_never_ships_derived_state(self, figure1):
        cold = pickle.dumps(figure1)
        figure1.has_zero_duration_edge()
        figure1.chronological_slice(0, 6)
        assert figure1._zero_duration is not None
        assert figure1._chronological is not None
        warm = pickle.dumps(figure1)
        assert len(warm) == len(cold)
        clone = pickle.loads(warm)
        assert clone._zero_duration is None
        assert clone._chronological is None
        assert clone.has_zero_duration_edge() == figure1.has_zero_duration_edge()
        assert clone.chronological_slice(0, 6) == figure1.chronological_slice(0, 6)


class TestImmutability:
    def test_edges_tuple_is_immutable(self, figure1):
        with pytest.raises((TypeError, AttributeError)):
            figure1.edges[0] = TemporalEdge(9, 9, 0, 1, 1)

    def test_vertices_frozenset(self, figure1):
        assert isinstance(figure1.vertices, frozenset)

    def test_with_durations_leaves_original_untouched(self, figure1):
        before = [tuple(e) for e in figure1.edges]
        figure1.with_durations(0)
        assert [tuple(e) for e in figure1.edges] == before

    def test_with_weights_leaves_original_untouched(self, tiny_line):
        before = [tuple(e) for e in tiny_line.edges]
        tiny_line.with_weights({(0, 1): 9, (1, 2): 9})
        assert [tuple(e) for e in tiny_line.edges] == before


class TestAdjacencyMutationSafety:
    def test_mutating_returned_lists_is_callers_problem_but_detectable(self, figure1):
        """The CSR adjacency is cached; the contract is read-only use.

        This test documents the sharing (it is intentional, for O(M)
        algorithm inputs) so any future defensive-copy change is
        deliberate.  Its arrays are read-only views, so a write raises.
        """
        adjacency = figure1.columnar().out_adjacency()
        again = figure1.columnar().out_adjacency()
        assert adjacency is again
        with pytest.raises(TypeError):
            adjacency.positions[0] = 1  # repro: ignore[cache-mutation]
