"""Tests for the DAG fast-path closure."""

import random

import numpy as np
import pytest

from repro.static.closure import build_metric_closure
from repro.static.dag import (
    build_metric_closure_auto,
    build_metric_closure_dag,
    topological_order,
)
from repro.static.digraph import StaticDigraph


def random_dag(seed, n=25, extra=40):
    rng = random.Random(seed)
    g = StaticDigraph(range(n))
    for v in range(1, n):
        g.add_edge(rng.randrange(v), v, rng.uniform(0.5, 9))
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u < v:  # edges only forward in index order: acyclic
            g.add_edge(u, v, rng.uniform(0.5, 9))
    return g


class TestTopologicalOrder:
    def test_line(self):
        g = StaticDigraph()
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        order = topological_order(g)
        assert order.index(0) < order.index(1) < order.index(2)

    def test_cycle_returns_none(self):
        g = StaticDigraph()
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 0, 1.0)
        assert topological_order(g) is None

    def test_self_loop_is_a_cycle(self):
        g = StaticDigraph()
        g.add_edge(0, 0, 1.0)
        assert topological_order(g) is None

    def test_respects_all_edges(self):
        g = random_dag(1)
        order = topological_order(g)
        position = {v: i for i, v in enumerate(order)}
        for u, v, _ in g.iter_edges():
            assert position[u] < position[v]


class TestDagClosure:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dijkstra_closure(self, seed):
        g = random_dag(seed)
        dag = build_metric_closure_dag(g)
        dij = build_metric_closure(g)
        assert np.allclose(dag.dist, dij.dist, equal_nan=False)

    def test_cycle_rejected(self):
        g = StaticDigraph()
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 0, 1.0)
        with pytest.raises(ValueError, match="cycle"):
            build_metric_closure_dag(g)

    def test_path_reconstruction(self):
        g = StaticDigraph()
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(0, 2, 5.0)
        closure = build_metric_closure_dag(g)
        assert closure.path(0, 2) == [0, 1, 2]
        assert closure.path_edges(0, 2) == [(0, 1, 1.0), (1, 2, 1.0)]
        assert closure.path(0, 0) == [0]
        assert closure.path(2, 0) == []

    @pytest.mark.parametrize("seed", range(4))
    def test_path_costs_match_distances(self, seed):
        g = random_dag(seed)
        closure = build_metric_closure_dag(g)
        for u in range(0, g.num_vertices, 5):
            for v in range(g.num_vertices):
                if closure.is_reachable(u, v) and u != v:
                    edges = closure.path_edges(u, v)
                    assert sum(w for _, _, w in edges) == pytest.approx(
                        closure.cost(u, v)
                    )

    def test_zero_weight_chains(self):
        g = StaticDigraph()
        g.add_edge(0, 1, 0.0)
        g.add_edge(1, 2, 0.0)
        closure = build_metric_closure_dag(g)
        assert closure.cost(0, 2) == 0.0


class TestAuto:
    def test_picks_dag_for_acyclic(self):
        from repro.static.dag import DagMetricClosure

        assert isinstance(build_metric_closure_auto(random_dag(3)), DagMetricClosure)

    def test_falls_back_on_cycles(self):
        from repro.static.closure import MetricClosure

        g = StaticDigraph()
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 0, 1.0)
        assert isinstance(build_metric_closure_auto(g), MetricClosure)


class TestEndToEnd:
    def test_transformed_graph_is_dag_for_positive_durations(self, figure1):
        from repro.core.transformation import transform_temporal_graph

        transformed = transform_temporal_graph(figure1, 0)
        assert topological_order(transformed.digraph) is not None

    def test_mstw_same_result_with_both_closures(self, figure1):
        from repro.core.transformation import transform_temporal_graph
        from repro.steiner.pruned import pruned_dst

        from tests.conftest import prepare_with

        transformed = transform_temporal_graph(figure1, 0)
        instance = transformed.dst_instance()
        cost_dag = pruned_dst(prepare_with(instance, "dag"), 2).cost
        cost_dij = pruned_dst(prepare_with(instance, "dijkstra"), 2).cost
        assert cost_dag == pytest.approx(cost_dij)
