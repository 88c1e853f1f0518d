"""Shared fixtures: paper example graphs and random-graph helpers."""

from __future__ import annotations

import random

import pytest

from repro.datasets.paper_examples import figure1_graph, figure3_graph
from repro.static.closure import build_metric_closure
from repro.static.dag import build_metric_closure_auto, build_metric_closure_dag
from repro.steiner.instance import (
    prepare_instance,
    prepared_from_closure,
    rooted_instance,
)
from repro.temporal.edge import TemporalEdge
from repro.temporal.graph import TemporalGraph


@pytest.fixture
def figure1():
    """The paper's running example (Figures 1/2/4-7)."""
    return figure1_graph()


@pytest.fixture
def figure3():
    """The zero-duration graph G_0 of Figure 3 / Example 4."""
    return figure3_graph()


@pytest.fixture
def tiny_line():
    """0 -> 1 -> 2 with compatible times."""
    return TemporalGraph(
        [
            TemporalEdge(0, 1, 1, 2, 5),
            TemporalEdge(1, 2, 3, 4, 7),
        ]
    )


def random_temporal(
    seed: int,
    n: int = 12,
    m: int = 40,
    zero_duration: bool = False,
) -> TemporalGraph:
    """A small random temporal multigraph for cross-checking algorithms."""
    rng = random.Random(seed)
    edges = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        start = rng.randint(0, 30)
        duration = 0 if zero_duration else rng.randint(1, 5)
        weight = rng.randint(1, 9)
        edges.append(TemporalEdge(u, v, start, start + duration, weight))
    return TemporalGraph(edges, vertices=range(n))


#: Closure builders by name: ``prepare_instance`` picks ``"auto"``;
#: the other two force one closure kind.
CLOSURE_BUILDERS = {
    "auto": build_metric_closure_auto,
    "dag": build_metric_closure_dag,
    "dijkstra": build_metric_closure,
}


def prepare_with(instance, method, require_reachable=True):
    """``prepare_instance(instance)`` with the closure built by ``method``.

    ``"auto"`` is ``prepare_instance`` itself; the other builders close
    :func:`rooted_instance` through :func:`prepared_from_closure`, so a
    test can run one draw on both closure kinds.  ``"dag"`` raises
    ``ValueError`` on a cyclic rooted graph.
    """
    if method == "auto":
        return prepare_instance(instance, require_reachable)
    rooted = rooted_instance(instance)
    closure = CLOSURE_BUILDERS[method](rooted.graph)
    return prepared_from_closure(rooted, closure, require_reachable)


def _bits(value):
    """A value with its exact type: ``1`` and ``1.0`` must not compare equal."""
    return (type(value).__name__, repr(value))


def rooted_fingerprint(instance, transformed):
    """A DST instance over 𝔾 as plain data, down to bitwise weights.

    Labels, root, terminals, out- and in-adjacency order, and the
    temporal edge ``transformed`` maps every edge back to (``None`` for
    virtual edges).
    """
    graph = instance.graph
    n = graph.num_vertices
    out = tuple(
        tuple((v, _bits(w)) for v, w in graph.out_neighbors(u)) for u in range(n)
    )
    into = tuple(
        tuple((u, _bits(w)) for u, w in graph.in_neighbors(v)) for v in range(n)
    )
    origin = tuple(
        _bits(
            transformed.original_edge(graph.label_of(u), graph.label_of(v), w)
        )
        for u in range(n)
        for v, w in graph.out_neighbors(u)
    )
    return (
        tuple(graph.labels()),
        instance.root,
        instance.terminals,
        out,
        into,
        graph.num_edges,
        origin,
    )


def whole_fingerprint(transformed):
    """The fields of a transformation that describe the whole window's 𝔾."""
    return (
        transformed.root_label,
        transformed.num_vertices,
        transformed.num_edges,
        transformed.skipped_edges,
        tuple(
            (_bits(v), tuple(_bits(t) for t in instants))
            for v, instants in transformed.arrival_instances.items()
        ),
    )


def assert_matches_rooted_oracle(graph, root, window=None, got=None):
    """``transform_temporal_graph`` against the whole-𝔾 oracle, rooted.

    The oracle is the frozen object-loop transformation
    (:func:`tests.legacy.legacy_transform`) cut down by
    :func:`repro.steiner.instance.rooted_instance` to the reachable set
    ``V_r`` of the heap-based earliest-arrival sweep.  ``got``
    defaults to transforming ``graph``.  Returns the reach-only
    transformation and ``V_r`` without the root.
    """
    from repro.core.transformation import transform_temporal_graph
    from tests.legacy import legacy_earliest_arrival, legacy_transform
    from repro.steiner.instance import rooted_instance
    from repro.temporal.window import TimeWindow

    if window is None:
        window = TimeWindow.unbounded()
    if got is None:
        got = transform_temporal_graph(graph, root, window)
    legacy = legacy_transform(graph, root, window)
    terminals = sorted(
        (v for v in legacy_earliest_arrival(graph, root, window) if v != root),
        key=repr,
    )
    assert sorted(got.reached(), key=repr) == terminals
    expected = rooted_instance(legacy.dst_instance(terminals=terminals))
    instance = got.dst_instance(terminals=terminals)
    assert rooted_instance(instance) is instance
    assert rooted_fingerprint(instance, got) == rooted_fingerprint(expected, legacy)
    assert whole_fingerprint(got) == whole_fingerprint(legacy)
    return got, terminals


# ----------------------------------------------------------------------
# Frozen object-path dataset loading (oracle for the column-first path)
# ----------------------------------------------------------------------
def _legacy_preferential(
    num_vertices, num_edges, time_range, multiplicity, hub_bias, zero_duration, seed
):
    from repro.temporal.edge import make_edge

    rng = random.Random(seed)
    num_hubs = max(2, num_vertices // 20)

    def pick(biased):
        if biased:
            return rng.randrange(num_hubs)
        return rng.randrange(num_vertices)

    used = set()
    edges = []
    while len(edges) < num_edges:
        pair = None
        for attempt in range(20):
            biased = rng.random() < hub_bias and attempt < 10
            u = pick(biased)
            v = pick(biased and rng.random() < 0.5)
            if u != v and (u, v) not in used:
                pair = (u, v)
                break
        if pair is None:
            u = rng.randrange(num_vertices)
            v = rng.randrange(num_vertices - 1)
            if v >= u:
                v += 1
            pair = (u, v)
        used.add(pair)
        u, v = pair
        copies = min(rng.randint(1, multiplicity), num_edges - len(edges))
        base = rng.randint(0, max(1, int(time_range) - copies - 2))
        for j in range(copies):
            start = float(base + j)
            duration = 0.0 if zero_duration else 1.0
            edges.append(make_edge(u, v, start, start + duration, 1.0))
    return TemporalGraph(edges, vertices=range(num_vertices))


def _legacy_slashdot(scale, seed):
    n = max(10, int(500 * scale))
    return _legacy_preferential(n, int(2.7 * n), 10_000, 2, 0.4, False, seed)


def _legacy_epinions(scale, seed):
    from repro.temporal.edge import make_edge

    n = max(10, int(800 * scale))
    target_edges = int(6 * n)
    rng = random.Random(seed)
    seen = set()
    edges = []
    while len(edges) < target_edges:
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        if rng.random() < 0.5:
            u %= max(2, n // 25)
        if (u, v) in seen or u == v:
            continue
        seen.add((u, v))
        start = float(rng.randint(0, 10_000))
        edges.append(make_edge(u, v, start, start + 1.0, 1.0))
    return TemporalGraph(edges, vertices=range(n))


def _legacy_facebook(scale, seed):
    n = max(10, int(400 * scale))
    return _legacy_preferential(n, int(18 * n), 50_000, 24, 0.6, True, seed)


def _legacy_enron(scale, seed):
    n = max(10, int(450 * scale))
    return _legacy_preferential(n, int(13 * n), 40_000, 16, 0.85, True, seed)


def _legacy_hepph(scale, seed):
    n = max(10, int(150 * scale))
    return _legacy_preferential(n, int(60 * n), 2_000, 8, 0.5, True, seed)


def _legacy_dblp(scale, seed):
    from repro.temporal.edge import make_edge

    n = max(20, int(1200 * scale))
    rng = random.Random(seed)
    draws = []
    for _ in range(int(10 * n)):
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        start = float(rng.randint(0, 40))
        rng.randint(1, 10)  # the uniform generator's weight draw
        draws.append((u, v, start))
    years = [float(1990 + y) for y in range(25)]
    edges = [
        make_edge(u, v, years[int(s) % 25], years[int(s) % 25], 1.0)
        for u, v, s in draws
    ]
    return TemporalGraph(edges, vertices=range(n))


def _legacy_phone(scale, seed):
    from repro.temporal.edge import make_edge

    n = max(8, int(60 * scale))
    rng = random.Random(seed)
    edges = []
    for _ in range(int(220 * n)):
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        start = float(rng.randint(0, 400_000))
        duration = float(rng.randint(10, 600))
        edges.append(make_edge(u, v, start, start + duration, duration))
    return TemporalGraph(edges, vertices=range(n))


#: name -> (generator, native weights), as the registry had them.
_LEGACY_DATASETS = {
    "slashdot": (_legacy_slashdot, False),
    "epinions": (_legacy_epinions, False),
    "facebook": (_legacy_facebook, False),
    "enron": (_legacy_enron, False),
    "hepph": (_legacy_hepph, False),
    "dblp": (_legacy_dblp, False),
    "phone": (_legacy_phone, True),
}


def _legacy_weight_cascade(graph):
    import math
    from collections import Counter

    static_pairs = {edge.static_key() for edge in graph.edges}
    out_degree = Counter(u for u, _ in static_pairs)
    floor = math.log(2.0) / 64.0
    weights = {
        (u, v): max(math.log(out_degree[u]), floor) for (u, v) in static_pairs
    }
    # The edge-by-edge ``with_weights`` copy: no ``vertices=``, so
    # isolated vertices are dropped.
    return TemporalGraph(
        TemporalEdge(e.source, e.target, e.start, e.arrival, weights[e.static_key()])
        for e in graph.edges
    )


def legacy_load_dataset(name, scale, seed, weighted):
    """``load_dataset`` as the edge-object path computed it."""
    generator, native_weights = _LEGACY_DATASETS[name]
    base_seed = sorted(_LEGACY_DATASETS).index(name)
    graph = generator(scale, 100 * (base_seed + 1) + seed)
    if weighted and not native_weights:
        graph = _legacy_weight_cascade(graph)
    return graph


def legacy_store_columns(graph, extras=None):
    """A graph's store columns by the edge-by-edge interning loop.

    Labels are interned in first-occurrence order (endpoints, then the
    remaining ``extras``, by default ``graph.vertices``); the sort
    orders are stable sorts of
    the insertion positions by ``(start, arrival)`` and ``(arrival,
    start)``.
    """
    edges = graph.edges
    ids = {}
    sources, targets = [], []
    for e in edges:
        sources.append(ids.setdefault(e.source, len(ids)))
        targets.append(ids.setdefault(e.target, len(ids)))
    for label in graph.vertices if extras is None else extras:
        ids.setdefault(label, len(ids))
    positions = range(len(edges))
    return {
        "labels": list(ids),
        "sources": sources,
        "targets": targets,
        "starts_are_float": all(type(e.start) is float for e in edges),
        "arrivals_are_float": all(type(e.arrival) is float for e in edges),
        "weights_are_float": all(type(e.weight) is float for e in edges),
        "by_start": sorted(positions, key=lambda p: (edges[p].start, edges[p].arrival)),
        "by_arrival": sorted(
            positions, key=lambda p: (edges[p].arrival, edges[p].start)
        ),
    }


def store_columns(store):
    """The same fields read off a built ``ColumnarEdgeStore``."""
    return {
        "labels": list(store.vertex_labels),
        "sources": store.sources.tolist(),
        "targets": store.targets.tolist(),
        "starts_are_float": store.starts_are_float,
        "arrivals_are_float": store.arrivals_are_float,
        "weights_are_float": store.weights_are_float,
        "by_start": store.positions_by_start().tolist(),
        "by_arrival": store.positions_by_arrival().tolist(),
    }


def exact_edges(graph):
    """Edges as plain data, floats by ``float.hex`` and every value typed."""

    def exact(value):
        if type(value) is float:
            return ("float", value.hex())
        return (type(value).__name__, repr(value))

    return [tuple(exact(field) for field in edge) for edge in graph.edges]
