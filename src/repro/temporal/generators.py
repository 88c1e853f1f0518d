"""Random temporal graph generators.

These generators provide controlled workloads for tests, property-based
testing, and the synthetic stand-ins for the paper's datasets (see
:mod:`repro.datasets.synthetic` for the named dataset shapes).

All generators take an explicit ``seed`` (or a ``random.Random``) so
every experiment in the benchmark harness is reproducible.  They append
each drawn row to typed stdlib buffers (``array('q')`` vertex ids,
``array('d')`` values), so no per-row Python object outlives its loop
iteration, and build the graph once, through the validated
:meth:`TemporalGraph.from_columns`, which reads both buffers without
boxing them again.
"""

from __future__ import annotations

import random
from array import array
from typing import Sequence, Tuple, Union

from repro.temporal.graph import TemporalGraph

RandomLike = Union[int, random.Random, None]


#: ``(sources, targets, starts, arrivals, weights)`` edge columns: vertex
#: ids in ``array('q')``, values in ``array('d')``.
Columns = Tuple[array, array, array, array, array]


def _rng(seed: RandomLike) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def _columns() -> Columns:
    return array("q"), array("q"), array("d"), array("d"), array("d")


def _uniform_columns(
    num_vertices: int,
    num_edges: int,
    time_range: float,
    max_duration: float,
    zero_duration: bool,
    max_weight: float,
    rng: random.Random,
) -> Columns:
    """The edge columns :func:`uniform_temporal_graph` draws from ``rng``."""
    sources, targets, starts, arrivals, weights = columns = _columns()
    for _ in range(num_edges):
        u = rng.randrange(num_vertices)
        v = rng.randrange(num_vertices - 1)
        if v >= u:
            v += 1
        start = float(rng.randint(0, int(time_range)))
        duration = 0.0 if zero_duration else float(rng.randint(1, int(max_duration)))
        sources.append(u)
        targets.append(v)
        starts.append(start)
        arrivals.append(start + duration)
        weights.append(float(rng.randint(1, int(max_weight))))
    return columns


def uniform_temporal_graph(
    num_vertices: int,
    num_edges: int,
    time_range: float = 1000.0,
    max_duration: float = 10.0,
    zero_duration: bool = False,
    max_weight: float = 10.0,
    seed: RandomLike = None,
) -> TemporalGraph:
    """A temporal Erdos-Renyi-style multigraph.

    ``num_edges`` temporal edges are drawn with uniformly random distinct
    endpoints, integer start times in ``[0, time_range]``, durations in
    ``[1, max_duration]`` (or exactly 0 when ``zero_duration``), and
    integer weights in ``[1, max_weight]``.
    """
    if num_vertices < 2:
        raise ValueError("need at least two vertices")
    columns = _uniform_columns(
        num_vertices,
        num_edges,
        time_range,
        max_duration,
        zero_duration,
        max_weight,
        _rng(seed),
    )
    return TemporalGraph.from_columns(*columns, vertices=range(num_vertices))


def preferential_temporal_graph(
    num_vertices: int,
    num_edges: int,
    time_range: float = 1000.0,
    multiplicity: int = 1,
    zero_duration: bool = False,
    hub_bias: float = 0.75,
    seed: RandomLike = None,
) -> TemporalGraph:
    """A skewed-degree temporal multigraph resembling social networks.

    A fraction ``hub_bias`` of edge endpoints is drawn from a small hub
    set (as in scale-free communication networks).  Static pairs are
    sampled *without replacement*, and each pair receives a random
    number of parallel temporal edges up to ``multiplicity`` with
    increasing timestamps -- so ``multiplicity`` directly controls the
    paper's ``pi`` statistic (e.g. 742 for Facebook, 1074 for Enron).
    """
    if num_vertices < 2:
        raise ValueError("need at least two vertices")
    rng = _rng(seed)
    num_hubs = max(2, num_vertices // 20)

    def pick(biased: bool) -> int:
        if biased:
            return rng.randrange(num_hubs)
        return rng.randrange(num_vertices)

    # Static pairs keyed as ``u * num_vertices + v`` ints, not tuples.
    used = set()
    sources, targets, starts, arrivals, weights = columns = _columns()
    while len(starts) < num_edges:
        for attempt in range(20):
            # Fall back to unbiased picks once the hub pairs are used up.
            biased = rng.random() < hub_bias and attempt < 10
            u = pick(biased)
            v = pick(biased and rng.random() < 0.5)
            if u != v and u * num_vertices + v not in used:
                break
        else:
            # Distinct pairs are (nearly) exhausted -- dense request on a
            # small vertex set.  Reuse an existing pair with extra copies
            # so the requested edge count is still met.
            u = rng.randrange(num_vertices)
            v = rng.randrange(num_vertices - 1)
            if v >= u:
                v += 1
        used.add(u * num_vertices + v)
        copies = min(rng.randint(1, multiplicity), num_edges - len(starts))
        base = rng.randint(0, max(1, int(time_range) - copies - 2))
        duration = 0.0 if zero_duration else 1.0
        for j in range(copies):
            start = float(base + j)
            sources.append(u)
            targets.append(v)
            starts.append(start)
            arrivals.append(start + duration)
            weights.append(1.0)
    return TemporalGraph.from_columns(*columns, vertices=range(num_vertices))


def reachable_temporal_graph(
    num_vertices: int,
    extra_edges: int,
    root: int = 0,
    time_range: float = 1000.0,
    zero_duration: bool = False,
    max_weight: float = 10.0,
    seed: RandomLike = None,
) -> TemporalGraph:
    """A temporal graph in which every vertex is reachable from ``root``.

    First builds a random time-respecting backbone tree (each vertex is
    attached to an already-reached vertex with a departure no earlier
    than the parent's arrival), then adds ``extra_edges`` random edges.
    This is the workload used when an experiment requires ``V_r = V``
    (the Section 4 assumption).
    """
    if num_vertices < 2:
        raise ValueError("need at least two vertices")
    rng = _rng(seed)
    sources, targets, starts, arrivals, weights = columns = _columns()
    order = [v for v in range(num_vertices) if v != root]
    rng.shuffle(order)
    arrival = {root: 0.0}
    reached = [root]
    slack = max(1.0, time_range / (2 * num_vertices))
    for v in order:
        parent = rng.choice(reached)
        start = arrival[parent] + rng.random() * slack
        duration = 0.0 if zero_duration else rng.random() * slack + 0.01
        sources.append(parent)
        targets.append(v)
        starts.append(start)
        arrivals.append(start + duration)
        weights.append(float(rng.randint(1, int(max_weight))))
        arrival[v] = start + duration
        reached.append(v)
    for _ in range(extra_edges):
        u = rng.randrange(num_vertices)
        v = rng.randrange(num_vertices - 1)
        if v >= u:
            v += 1
        start = rng.random() * time_range
        duration = 0.0 if zero_duration else rng.random() * slack + 0.01
        sources.append(u)
        targets.append(v)
        starts.append(start)
        arrivals.append(start + duration)
        weights.append(float(rng.randint(1, int(max_weight))))
    return TemporalGraph.from_columns(*columns, vertices=range(num_vertices))


def layered_temporal_graph(
    layers: Sequence[int],
    edges_per_layer: int,
    layer_gap: float = 10.0,
    zero_duration: bool = False,
    max_weight: float = 10.0,
    seed: RandomLike = None,
) -> TemporalGraph:
    """A layered DAG-like temporal graph (flight/transport topology).

    ``layers[i]`` vertices form layer ``i``; edges connect consecutive
    layers with departure times inside the layer's time slot, so every
    layer-0 vertex is a natural root.  Useful for transport-schedule
    style examples and for exercising deep (high level-number) trees.
    """
    rng = _rng(seed)
    offsets = []
    total = 0
    for size in layers:
        offsets.append(total)
        total += size
    sources, targets, starts, arrivals, weights = columns = _columns()
    for i in range(len(layers) - 1):
        for _ in range(edges_per_layer):
            sources.append(offsets[i] + rng.randrange(layers[i]))
            targets.append(offsets[i + 1] + rng.randrange(layers[i + 1]))
            start = i * layer_gap + rng.random() * (layer_gap * 0.5)
            duration = 0.0 if zero_duration else rng.random() * (layer_gap * 0.4)
            starts.append(start)
            arrivals.append(start + duration)
            weights.append(float(rng.randint(1, int(max_weight))))
    return TemporalGraph.from_columns(*columns, vertices=range(total))
