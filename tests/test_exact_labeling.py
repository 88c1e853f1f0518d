"""Cross-certification of the two exact DST solvers."""

import math

import pytest

from repro.static.digraph import StaticDigraph
from repro.steiner.exact import exact_dst_cost
from repro.steiner.instance import DSTInstance, prepare_instance

from tests.exact_labeling import exact_dst_cost_labeling
from tests.test_steiner_algorithms import hub_instance, random_instance


class TestBasics:
    def test_hub_instance(self):
        prepared = hub_instance()
        assert exact_dst_cost_labeling(prepared) == 6.0

    def test_single_terminal_is_shortest_path(self):
        g = StaticDigraph()
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(0, 2, 5.0)
        prepared = prepare_instance(DSTInstance(g, 0, (2,)))
        assert exact_dst_cost_labeling(prepared) == 2.0

    def test_no_terminals(self):
        g = StaticDigraph()
        g.add_edge(0, 1, 1.0)
        prepared = prepare_instance(DSTInstance(g, 0, ()))
        assert exact_dst_cost_labeling(prepared) == 0.0

    def test_unreachable_is_inf(self):
        g = StaticDigraph(range(3))
        g.add_edge(0, 1, 1.0)
        prepared = prepare_instance(
            DSTInstance(g, 0, (2,)), require_reachable=False
        )
        assert math.isinf(exact_dst_cost_labeling(prepared))

    def test_terminal_cap(self):
        g = StaticDigraph()
        terminals = []
        for i in range(19):
            g.add_edge("r", i, 1.0)
            terminals.append(i)
        prepared = prepare_instance(DSTInstance(g, "r", tuple(terminals)))
        with pytest.raises(ValueError):
            exact_dst_cost_labeling(prepared)


class TestCrossCertification:
    @pytest.mark.parametrize("seed", range(12))
    def test_agrees_with_dreyfus_wagner(self, seed):
        prepared = random_instance(seed, n=12, m=35, k=4)
        assert exact_dst_cost_labeling(prepared) == pytest.approx(
            exact_dst_cost(prepared)
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_on_integer_weights(self, seed):
        prepared = random_instance(
            100 + seed, n=10, m=30, k=5, float_weights=False
        )
        assert exact_dst_cost_labeling(prepared) == pytest.approx(
            exact_dst_cost(prepared)
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_on_larger_terminal_sets(self, seed):
        prepared = random_instance(200 + seed, n=14, m=45, k=7)
        assert exact_dst_cost_labeling(prepared) == pytest.approx(
            exact_dst_cost(prepared)
        )
