"""Random temporal graph generators.

These generators provide controlled workloads for tests, property-based
testing, and the synthetic stand-ins for the paper's datasets (see
:mod:`repro.datasets.synthetic` for the named dataset shapes).

All generators take an explicit ``seed`` (or a ``random.Random``) so
every experiment in the benchmark harness is reproducible.

Word consumption.  An integer draw below ``n`` -- ``randrange(n)``,
or ``randint(a, b)`` as ``a + randrange(b - a + 1)`` -- is read straight
from ``getrandbits(n.bit_length())``, redrawn while the word is ``>= n``:
the loop of CPython's ``Random._randbelow_with_getrandbits``, unchanged
from Python 3.9 to 3.12.  So each generator yields the graph its
``randrange`` form yields, and a ``random.Random`` passed in ends in the
same state: the same words consumed, with ``random()``, ``choice`` and
``shuffle`` called in the same order.  An empty range raises
``ValueError``, as ``randrange`` does.  (A ``Random`` subclass that
overrides ``random()`` alone would make ``randrange`` draw through it;
these generators read ``getrandbits`` all the same.)

Each row's draws go into typed stdlib buffers (``array('q')`` for a
``u * n + v`` endpoint-pair key, ``array('d')`` for values), so no
per-row Python object outlives its loop iteration.  Columns that follow
from the draws -- source and target ids from the keys, arrivals as
starts plus durations, constant weights, the copies of a parallel-edge
burst -- are built after the loop in numpy passes.  The graph is built
once, through the validated :meth:`TemporalGraph.from_columns`.
"""

from __future__ import annotations

import operator
import random
from array import array
from typing import Sequence, Tuple, Union

import numpy as np

from repro.temporal.graph import TemporalGraph

RandomLike = Union[int, random.Random, None]


#: ``(sources, targets, starts, arrivals, weights)`` edge columns: vertex
#: ids in ``array('q')``, values in ``array('d')``.
Columns = Tuple[array, array, array, array, array]


def _rng(seed: RandomLike) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def _bits(n: int) -> Tuple[int, int]:
    """``(n, n.bit_length())``: the bound and word width of a draw below ``n``.

    ``randrange(n)`` draws ``getrandbits(k)`` words until one is below
    ``n``.  An empty range raises the ``ValueError`` ``randrange``
    raises; the bare loop would spin forever on it.
    """
    n = operator.index(n)
    if n <= 0:
        raise ValueError(f"empty range: no integer draw below {n}")
    return n, n.bit_length()


def _buffer(typecode: str, values: np.ndarray) -> array:
    """A numpy column as the typed stdlib buffer the generators hand on."""
    return array(typecode, values.astype(typecode, copy=False).tobytes())


def _split_pairs(pairs: array, n: int) -> Tuple[array, array]:
    """The source and target id buffers of ``u * n + v`` pair keys."""
    keys = np.frombuffer(pairs, dtype=np.int64)
    return _buffer("q", keys // n), _buffer("q", keys % n)


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
    pairs, starts, durations, weights = array("q"), array("d"), array("d"), array("d")
    if num_edges > 0:  # no draw, so no range to check
        nu, ku = _bits(num_vertices)
        nv, kv = _bits(num_vertices - 1)
        nt, kt = _bits(int(time_range) + 1)
        if not zero_duration:
            nd, kd = _bits(int(max_duration))
        nw, kw = _bits(int(max_weight))
    getrandbits = rng.getrandbits
    add_pair, add_start = pairs.append, starts.append
    add_duration, add_weight = durations.append, weights.append
    for _ in range(num_edges):
        u = getrandbits(ku)
        while u >= nu:
            u = getrandbits(ku)
        v = getrandbits(kv)
        while v >= nv:
            v = getrandbits(kv)
        if v >= u:
            v += 1
        t = getrandbits(kt)
        while t >= nt:
            t = getrandbits(kt)
        if not zero_duration:
            d = getrandbits(kd)
            while d >= nd:
                d = getrandbits(kd)
            add_duration(d + 1)
        w = getrandbits(kw)
        while w >= nw:
            w = getrandbits(kw)
        add_pair(u * nu + v)
        add_start(t)
        add_weight(w + 1)
    spans = 0.0 if zero_duration else np.frombuffer(durations)
    arrivals = _buffer("d", np.frombuffer(starts) + spans)
    return (*_split_pairs(pairs, num_vertices), starts, arrivals, weights)


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
    getrandbits, draw = rng.getrandbits, rng.random
    nu, ku = _bits(num_vertices)
    nh, kh = _bits(max(2, num_vertices // 20))  # the hub set
    nv, kv = _bits(num_vertices - 1)
    if num_edges > 0:  # no draw, so no range to check
        nm, km = _bits(multiplicity)
    latest = int(time_range) - 2
    # Static pairs keyed as ``u * nu + v`` ints, not tuples.
    used = set()
    add_used = used.add
    # One row per static pair: its key, first start and copies.
    pairs, bases, counts = array("q"), array("q"), array("q")
    add_pair, add_base, add_count = pairs.append, bases.append, counts.append
    total = 0
    while total < num_edges:
        for attempt in range(20):
            # Fall back to unbiased picks once the hub pairs are used up.
            if draw() < hub_bias and attempt < 10:
                u = getrandbits(kh)
                while u >= nh:
                    u = getrandbits(kh)
                biased = draw() < 0.5
            else:
                u = getrandbits(ku)
                while u >= nu:
                    u = getrandbits(ku)
                biased = False
            if biased:
                v = getrandbits(kh)
                while v >= nh:
                    v = getrandbits(kh)
            else:
                v = getrandbits(ku)
                while v >= nu:
                    v = getrandbits(ku)
            if u != v and u * nu + v not in used:
                break
        else:
            # Distinct pairs are (nearly) exhausted -- dense request on a
            # small vertex set.  Reuse an existing pair with extra copies
            # so the requested edge count is still met.
            u = getrandbits(ku)
            while u >= nu:
                u = getrandbits(ku)
            v = getrandbits(kv)
            while v >= nv:
                v = getrandbits(kv)
            if v >= u:
                v += 1
        key = u * nu + v
        add_used(key)
        copies = getrandbits(km)
        while copies >= nm:
            copies = getrandbits(km)
        copies = min(copies + 1, num_edges - total)
        nb = max(1, latest - copies) + 1
        kb = nb.bit_length()
        base = getrandbits(kb)
        while base >= nb:
            base = getrandbits(kb)
        add_pair(key)
        add_base(base)
        add_count(copies)
        total += copies
    # Pair ``i``'s copies are rows ``first[i] .. first[i] + copies - 1``,
    # starting at ``base, base + 1, ...``.
    repeats = np.frombuffer(counts, dtype=np.int64)
    first = np.cumsum(repeats) - repeats
    starts = np.repeat(np.frombuffer(bases, dtype=np.int64) - first, repeats)
    starts = (starts + np.arange(total)).astype(np.float64)
    keys = np.repeat(np.frombuffer(pairs, dtype=np.int64), repeats)
    return TemporalGraph.from_columns(
        _buffer("q", keys // nu),
        _buffer("q", keys % nu),
        _buffer("d", starts),
        _buffer("d", starts + (0.0 if zero_duration else 1.0)),
        _buffer("d", np.ones(total)),
        vertices=range(num_vertices),
    )


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
    getrandbits, draw = rng.getrandbits, rng.random
    nu, ku = _bits(num_vertices)
    nv, kv = _bits(num_vertices - 1)
    nw, kw = _bits(int(max_weight))
    sources, targets = array("q"), array("q")
    starts, arrivals, weights = array("d"), array("d"), array("d")
    add_source, add_target = sources.append, targets.append
    add_start, add_arrival, add_weight = (
        starts.append,
        arrivals.append,
        weights.append,
    )
    order = [v for v in range(num_vertices) if v != root]
    rng.shuffle(order)
    arrival = {root: 0.0}
    reached = [root]
    slack = max(1.0, time_range / (2 * num_vertices))
    for v in order:
        parent = rng.choice(reached)
        start = arrival[parent] + draw() * slack
        duration = 0.0 if zero_duration else draw() * slack + 0.01
        w = getrandbits(kw)
        while w >= nw:
            w = getrandbits(kw)
        add_source(parent)
        add_target(v)
        add_start(start)
        add_arrival(start + duration)
        add_weight(w + 1)
        arrival[v] = start + duration
        reached.append(v)
    for _ in range(extra_edges):
        u = getrandbits(ku)
        while u >= nu:
            u = getrandbits(ku)
        v = getrandbits(kv)
        while v >= nv:
            v = getrandbits(kv)
        if v >= u:
            v += 1
        start = draw() * time_range
        duration = 0.0 if zero_duration else draw() * slack + 0.01
        w = getrandbits(kw)
        while w >= nw:
            w = getrandbits(kw)
        add_source(u)
        add_target(v)
        add_start(start)
        add_arrival(start + duration)
        add_weight(w + 1)
    return TemporalGraph.from_columns(
        sources, targets, starts, arrivals, weights, vertices=range(num_vertices)
    )


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
    getrandbits, draw = rng.getrandbits, rng.random
    offsets = []
    total = 0
    for size in layers:
        offsets.append(total)
        total += size
    sources, targets = array("q"), array("q")
    starts, durations, weights = array("d"), array("d"), array("d")
    add_source, add_target = sources.append, targets.append
    add_start, add_duration, add_weight = (
        starts.append,
        durations.append,
        weights.append,
    )
    gaps = len(layers) - 1 if edges_per_layer > 0 else 0
    if gaps > 0:  # no draw, so no range to check
        nw, kw = _bits(int(max_weight))
        bits = [_bits(size) for size in layers]
    for i in range(gaps):
        (ns, ks), (nt, kt) = bits[i], bits[i + 1]
        for _ in range(edges_per_layer):
            u = getrandbits(ks)
            while u >= ns:
                u = getrandbits(ks)
            v = getrandbits(kt)
            while v >= nt:
                v = getrandbits(kt)
            add_source(offsets[i] + u)
            add_target(offsets[i + 1] + v)
            add_start(i * layer_gap + draw() * (layer_gap * 0.5))
            if not zero_duration:
                add_duration(draw() * (layer_gap * 0.4))
            w = getrandbits(kw)
            while w >= nw:
                w = getrandbits(kw)
            add_weight(w + 1)
    spans = 0.0 if zero_duration else np.frombuffer(durations)
    arrivals = _buffer("d", np.frombuffer(starts) + spans)
    return TemporalGraph.from_columns(
        sources, targets, starts, arrivals, weights, vertices=range(total)
    )
