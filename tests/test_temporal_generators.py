"""Unit tests for :mod:`repro.temporal.generators`."""

import hashlib
import random

import pytest

from repro.datasets import synthetic
from repro.datasets.registry import load_dataset
from repro.temporal.generators import (
    layered_temporal_graph,
    preferential_temporal_graph,
    reachable_temporal_graph,
    uniform_temporal_graph,
)
from repro.temporal.paths import reachable_set
from repro.temporal.stats import compute_statistics

from tests.conftest import (
    _legacy_preferential,
    exact_edges,
    legacy_store_columns,
    store_columns,
)


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


# ----------------------------------------------------------------------
# Word consumption: the generators read ``getrandbits`` words the way
# ``randrange``/``randint`` do, so graphs and a passed ``Random``'s final
# state stay what the ``randrange`` calls made them.
# ----------------------------------------------------------------------
def _sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


#: Each generator that takes a seed, called with a ``random.Random``.
SEEDED_CALLS = {
    "uniform": lambda rng: uniform_temporal_graph(20, 60, seed=rng),
    "uniform-wide": lambda rng: uniform_temporal_graph(
        300, 400, time_range=70_000, max_duration=1000, max_weight=33, seed=rng
    ),
    "uniform-zero": lambda rng: uniform_temporal_graph(
        12, 40, zero_duration=True, seed=rng
    ),
    "preferential": lambda rng: preferential_temporal_graph(
        60, 300, multiplicity=4, seed=rng
    ),
    "preferential-dense": lambda rng: preferential_temporal_graph(4, 200, seed=rng),
    "reachable": lambda rng: reachable_temporal_graph(15, 20, root=3, seed=rng),
    "layered": lambda rng: layered_temporal_graph([3, 4, 5], 8, seed=rng),
    "slashdot": lambda rng: synthetic.slashdot_like(0.2, rng),
    "epinions": lambda rng: synthetic.epinions_like(0.2, rng),
    "facebook": lambda rng: synthetic.facebook_like(0.2, rng),
    "enron": lambda rng: synthetic.enron_like(0.2, rng),
    "hepph": lambda rng: synthetic.hepph_like(0.2, rng),
    "dblp": lambda rng: synthetic.dblp_like(0.2, rng),
}

#: sha256 of ``repr(rng.getstate())`` after each call, per seed, as the
#: ``randrange``/``randint`` draws left it.
FINAL_STATE_DIGESTS = {
    ("uniform", 0): "983a9a01b414d93ea846e766fb4031cf67d29639b0e27a29f7a19892a9a9ac15",
    ("uniform", 1): "9047d96f3f18d3585c949bfa790ff134f765c05d00f2a52f78141a11f1e85400",
    ("uniform-wide", 0): "32b1916e865d598264d488dc9348d33fc8a1a33facc8038bb8b97be09bd32368",
    ("uniform-wide", 1): "b45a0195f8c8440b4daf78e8ff84802a9206dc9f201d9b8eb12c588c51e56289",
    ("uniform-zero", 0): "22daeb90f434afe613ce27a327a3b70a16681afcf8996179f8d282e9b0090f8a",
    ("uniform-zero", 1): "da3a5e38aa1e954854df245a61d8ba3dbcb810597bd74753db6e3a492aa4f015",
    ("preferential", 0): "d4e6495c2164dcf5392086428823a071400dab47bff032c3304a7da792abdd16",
    ("preferential", 1): "308b9a22e8dd60823cfc08daacae9455683e56a11b2733734814ba3949c146ce",
    ("preferential-dense", 0): "880ad1108101ddb12261c64cd354cf58c796e2791d37e439abe592e52dadb62b",
    ("preferential-dense", 1): "2c5e805923e5d07ae5fd6d03c523b7f23680e3ce87a4d0db03405b8c318c6581",
    ("reachable", 0): "7be102bd1a4c8aa8313f3e811b97b925388bfbdc9d7e32d0bc0c758277351171",
    ("reachable", 1): "f15f0cb439f40f740fa4649746f7952f145a41b7b4d4efec75caa91f20010d4a",
    ("layered", 0): "2914f28f536a52b387b29eff9bae174feb4994ae13a46a077f7318c7617ddcb0",
    ("layered", 1): "338149305c57b611438edcfc78eb6215c4161535172b6fa0a7958519f8f5cc93",
    ("slashdot", 0): "bca4026f6a77104031c00e3c358ab2cf7cca211072bc9ee913a9c4be76a3d008",
    ("slashdot", 1): "e6d587b832ea83814878d0210134a14d2af2280ab01f48a9b744516ec7320197",
    ("epinions", 0): "be617c296c5946bc7080f8d3eac3dd7bd9f3ceb6fb98489475dadffb333e3d5c",
    ("epinions", 1): "98d1d41f6fe9edead2aff2305dcf1461c390efe775c9b4f42ded6247e3ec4100",
    ("facebook", 0): "be36771e435072ac1bfbe949aded99c086ce1f77b2cfacdafbe122083d265d9d",
    ("facebook", 1): "001bb3b0b55e413ccf96751cae793970f1f38c5b1c446fc2b82c3d6545e49f09",
    ("enron", 0): "357184f9156479b7fd3b865634af9481652cc306d1d7d4a21eaab3ffd99b61df",
    ("enron", 1): "bcee3390d10c1f82bb8860cb731e8557d6c3188f668830b457f11c37e959547b",
    ("hepph", 0): "c5d063f561bd750bc3c26058002777e546dc2fdcfec75eab6dc3eb1c50c7678a",
    ("hepph", 1): "92c9e169a431f27a6b5e86d52781cc5c565f9f6353daf0b21a82e0a8d942957e",
    ("dblp", 0): "f0680903e75e88b5bf8bceb433c59c461e7e732cef5ec3b251dd1806dcecf25c",
    ("dblp", 1): "1946c1491ad30d5b991c0d625b95452a5fc7dc9e40151bdfd1de5ba171175ac0",
}


@pytest.mark.parametrize("name, seed", sorted(FINAL_STATE_DIGESTS))
def test_passed_random_ends_in_the_pinned_state(name, seed):
    rng = random.Random(seed)
    SEEDED_CALLS[name](rng)
    assert _sha256(rng.getstate()) == FINAL_STATE_DIGESTS[name, seed]


@pytest.mark.parametrize(
    "seed, digest",
    [
        (0, "e6c8011db212b6d52b4b0f1b4b7be0904e189dc477c6235a3c8f5a33554b66bf"),
        (1, "8bf618c37617a9f890273855984a77f6fd21c97e66e02a839eab2227db0f0e89"),
    ],
)
def test_two_vertex_uniform_graph_is_pinned(seed, digest):
    """Two vertices draw ``randrange(1)``: a one-bit word, redrawn on 1."""
    graph = uniform_temporal_graph(2, 50, seed=seed)
    assert _sha256(graph.columnar().export_columns()) == digest
    assert {(e.source, e.target) for e in graph.edges} == {(0, 1), (1, 0)}


@pytest.mark.parametrize(
    "generate",
    [
        lambda: uniform_temporal_graph(5, 10, max_weight=0.5, seed=0),
        lambda: uniform_temporal_graph(5, 10, max_duration=0.5, seed=0),
        lambda: reachable_temporal_graph(5, 3, max_weight=0.5, seed=0),
        lambda: layered_temporal_graph([2, 2], 3, max_weight=0.5, seed=0),
        lambda: layered_temporal_graph([2, 0], 3, seed=0),
        lambda: preferential_temporal_graph(5, 10, multiplicity=0, seed=0),
    ],
    ids=[
        "uniform-weight",
        "uniform-duration",
        "reachable-weight",
        "layered-weight",
        "layered-empty-layer",
        "preferential-multiplicity",
    ],
)
def test_empty_draw_ranges_raise(generate):
    with pytest.raises(ValueError):
        generate()


def test_empty_ranges_without_draws_still_build():
    """A call that draws nothing never checks its ranges, as before."""
    assert uniform_temporal_graph(5, 0, max_weight=0.5).num_edges == 0
    zero = uniform_temporal_graph(5, 3, zero_duration=True, max_duration=0.5)
    assert zero.num_edges == 3
    assert layered_temporal_graph([2, 0], 0, seed=0).num_vertices == 2
    assert preferential_temporal_graph(5, 0, multiplicity=0).num_vertices == 5


@pytest.mark.parametrize("multiplicity", [1, 3])
@pytest.mark.parametrize("seed", [0, 1])
def test_dense_preferential_fallback_matches_frozen_loop(seed, multiplicity):
    """Four vertices have 12 static pairs, so 200 edges exhaust them and
    the loop's ``for``/``else`` branch reuses pairs."""
    got = preferential_temporal_graph(4, 200, multiplicity=multiplicity, seed=seed)
    expected = _legacy_preferential(4, 200, 1000.0, multiplicity, 0.75, False, seed)
    pairs = {(e.source, e.target) for e in got.edges}
    assert len(pairs) == 12
    if multiplicity == 1:  # one copy per drawn pair: a repeat is a reuse
        assert len(pairs) < got.num_edges
    assert exact_edges(got) == exact_edges(expected)
    assert store_columns(got.columnar()) == legacy_store_columns(expected)


@pytest.mark.parametrize(
    "seed, digest",
    [
        (0, "f2e996fd9902485113b3776ffbb9895b67248c7f4349b71e749b2d855a112cb1"),
        (1, "a8238e1bdde459b79ad73e0a9602c36dbd9a42462d75d15279d240823cce5228"),
    ],
)
def test_query_stream_graph_is_pinned(seed, digest):
    """The weighted epinions x25 graph the one-shot query benchmark loads."""
    graph = load_dataset("epinions", scale=25.0, seed=seed, weighted=True)
    assert _sha256(graph.columnar().export_columns()) == digest


@pytest.mark.parametrize("seed", [0, 1])
def test_phone_like_accepts_a_random(seed):
    """``phone_like`` seeds through ``_rng`` like every other dataset."""
    rng = random.Random(seed)
    graph = synthetic.phone_like(0.2, rng)
    assert exact_edges(graph) == exact_edges(synthetic.phone_like(0.2, seed))
    assert _sha256(rng.getstate()) == {
        0: "6e2988a4281e64cf00f74161210978fc23db0f0f4bb05646160e61e8267b1ee4",
        1: "bcc09a4357592e4d6f2174362e558c7bf2f9abcc935b1d21b2dd83b68573497e",
    }[seed]
