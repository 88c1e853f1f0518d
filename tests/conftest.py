"""Shared fixtures: paper example graphs and random-graph helpers."""

from __future__ import annotations

import random

import pytest

from repro.datasets.paper_examples import figure1_graph, figure3_graph
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
    (:func:`repro.perf.legacy.legacy_transform`) cut down by
    :func:`repro.steiner.instance.rooted_instance` to the reachable set
    ``V_r`` of the heap-based earliest-arrival sweep.  ``got``
    defaults to transforming ``graph``.  Returns the reach-only
    transformation and ``V_r`` without the root.
    """
    from repro.core.transformation import transform_temporal_graph
    from repro.perf.legacy import legacy_earliest_arrival, legacy_transform
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
