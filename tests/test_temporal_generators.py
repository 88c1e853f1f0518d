"""Unit tests for :mod:`repro.temporal.generators`."""

import hashlib
import random

import pytest

from repro.temporal.generators import (
    layered_temporal_graph,
    preferential_temporal_graph,
    reachable_temporal_graph,
    uniform_temporal_graph,
)
from repro.temporal.paths import reachable_set
from repro.temporal.stats import compute_statistics


class TestUniform:
    def test_sizes(self):
        g = uniform_temporal_graph(20, 55, seed=1)
        assert g.num_vertices == 20
        assert g.num_edges == 55

    def test_deterministic_with_seed(self):
        a = uniform_temporal_graph(15, 30, seed=9)
        b = uniform_temporal_graph(15, 30, seed=9)
        assert a.edges == b.edges

    def test_different_seeds_differ(self):
        a = uniform_temporal_graph(15, 30, seed=1)
        b = uniform_temporal_graph(15, 30, seed=2)
        assert a.edges != b.edges

    def test_zero_duration_flag(self):
        g = uniform_temporal_graph(10, 20, zero_duration=True, seed=3)
        assert all(e.duration == 0 for e in g.edges)

    def test_nonzero_durations_by_default(self):
        g = uniform_temporal_graph(10, 20, seed=3)
        assert all(e.duration >= 1 for e in g.edges)

    def test_no_self_loops(self):
        g = uniform_temporal_graph(5, 200, seed=4)
        assert all(e.source != e.target for e in g.edges)

    def test_needs_two_vertices(self):
        with pytest.raises(ValueError):
            uniform_temporal_graph(1, 5)

    def test_accepts_random_instance(self):
        rng = random.Random(0)
        g = uniform_temporal_graph(8, 10, seed=rng)
        assert g.num_edges == 10


class TestPreferential:
    def test_multiplicity_shows_in_pi(self):
        low = preferential_temporal_graph(60, 300, multiplicity=1, seed=5)
        high = preferential_temporal_graph(60, 300, multiplicity=20, seed=5)
        assert (
            compute_statistics(high).max_multiplicity
            > compute_statistics(low).max_multiplicity
        )

    def test_hub_bias_skews_degree(self):
        flat = preferential_temporal_graph(100, 400, hub_bias=0.0, seed=6)
        skewed = preferential_temporal_graph(100, 400, hub_bias=0.95, seed=6)
        assert (
            compute_statistics(skewed).max_temporal_degree
            > compute_statistics(flat).max_temporal_degree
        )

    def test_edge_count_exact(self):
        g = preferential_temporal_graph(30, 123, multiplicity=7, seed=7)
        assert g.num_edges == 123


class TestReachable:
    @pytest.mark.parametrize("zero", [False, True])
    def test_all_vertices_reachable_from_root(self, zero):
        g = reachable_temporal_graph(25, 30, root=0, zero_duration=zero, seed=8)
        assert reachable_set(g, 0) == set(range(25))

    def test_custom_root(self):
        g = reachable_temporal_graph(12, 5, root=7, seed=9)
        assert reachable_set(g, 7) == set(range(12))

    def test_edge_count(self):
        g = reachable_temporal_graph(10, 13, seed=10)
        assert g.num_edges == 9 + 13  # backbone + extras


class TestLayered:
    def test_vertex_count(self):
        g = layered_temporal_graph([3, 4, 5], edges_per_layer=6, seed=11)
        assert g.num_vertices == 12
        assert g.num_edges == 12  # 2 gaps x 6

    def test_edges_cross_consecutive_layers(self):
        g = layered_temporal_graph([2, 3], edges_per_layer=10, seed=12)
        for e in g.edges:
            assert e.source < 2 and 2 <= e.target < 5

    def test_times_increase_with_layer(self):
        g = layered_temporal_graph([2, 2, 2], edges_per_layer=5, layer_gap=100, seed=13)
        layer0 = [e.start for e in g.edges if e.source < 2]
        layer1 = [e.start for e in g.edges if 2 <= e.source < 4]
        assert max(layer0) < min(layer1)


#: sha256 of ``repr(graph.columnar().export_columns())`` per generator
#: call and seed: the exact columns (intern order, values and value
#: types) each generator has always drawn.
GENERATOR_DIGESTS = {
    ("uniform", 0): "ab361f1a828e01d52b4e01eef219d9ab57d19090492b317fdb717d0d8e30d1e0",
    ("uniform", 1): "aafdedceae382e8f1d9d274bf8e9971c6b993832a8ec0c3c1fa9222992d27f1e",
    ("uniform-zero", 0): "3449660c64f90f88d2defb24485121eaa2ce8a47d063938d2d765803a9801503",
    ("uniform-zero", 1): "8e18a9d4bcaea9584f6220c55e5e2e8a60c48b6a908083d716e82a2ebe374ed0",
    ("reachable", 0): "a7e3341d06edf9a4066601711c54e765256214d4c20837ccefee852cd4ab2ca5",
    ("reachable", 1): "d7576d36668728921e255e89ccbd938d0321512b8fbe266a4663621abf5637d9",
    ("layered", 0): "278709431f89665dd57473e7cbda19b82c27e3a9330ff627d97e9da5a9a625f0",
    ("layered", 1): "798c3c443736ab3f02f829b1e1f7fb8ec957210168f81ec95d7a8eddbc11ccc1",
}

GENERATOR_CALLS = {
    "uniform": lambda seed: uniform_temporal_graph(20, 60, seed=seed),
    "uniform-zero": lambda seed: uniform_temporal_graph(
        12, 40, zero_duration=True, seed=seed
    ),
    "reachable": lambda seed: reachable_temporal_graph(15, 20, root=3, seed=seed),
    "layered": lambda seed: layered_temporal_graph([3, 4, 5], 8, seed=seed),
}


@pytest.mark.parametrize("name, seed", sorted(GENERATOR_DIGESTS))
def test_generator_columns_are_pinned(name, seed):
    graph = GENERATOR_CALLS[name](seed)
    export = repr(graph.columnar().export_columns()).encode()
    assert hashlib.sha256(export).hexdigest() == GENERATOR_DIGESTS[name, seed]
    assert {tuple(type(value) for value in edge) for edge in graph.edges} == {
        (int, int, float, float, float)
    }
