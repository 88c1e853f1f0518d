"""Synthetic stand-ins for the paper's seven temporal networks.

Without network access (and with pure-Python runtimes), each KONECT
dataset is replaced by a scaled-down generator reproducing its
*structural regime* -- the properties the algorithms' costs actually
depend on: the ratio ``M/n``, the temporal multiplicity ``pi``
(parallel edges per static pair), zero vs. non-zero durations, and the
degree skew.  DESIGN.md records the substitution rationale.

The paper's regimes:

==========  =========================================================
Slashdot    sparse reply network, tiny ``pi``
Epinions    trust links, ``pi = 1`` (every static edge appears once)
Facebook    wall posts, heavy multiplicity (``pi`` in the hundreds)
Enron       email, hub-dominated with extreme max degree
HepPh       dense co-authorship, zero durations natural
DBLP        huge sparse co-authorship, zero durations, low ``pi``
Phone       tiny vertex set, enormous ``M/n``, weighted by duration
==========  =========================================================
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.temporal.graph import TemporalGraph
from repro.temporal.generators import (
    _bits,
    _rng,
    _split_pairs,
    _uniform_columns,
    preferential_temporal_graph,
)


def _read_only(column: np.ndarray) -> np.ndarray:
    """``column``, read-only, so the store shares it instead of copying."""
    column.flags.writeable = False
    return column


def slashdot_like(scale: float = 1.0, seed: int = 1) -> TemporalGraph:
    """Sparse reply network: M/n ~ 2.7, pi small."""
    n = max(10, int(500 * scale))
    return preferential_temporal_graph(
        n, int(2.7 * n), time_range=10_000, multiplicity=2, hub_bias=0.4, seed=seed
    )


def epinions_like(scale: float = 1.0, seed: int = 2) -> TemporalGraph:
    """Trust network with pi = 1: each static pair appears exactly once."""
    n = max(10, int(800 * scale))
    target_edges = int(6 * n)
    rng = _rng(seed)
    getrandbits, draw = rng.getrandbits, rng.random
    nu, ku = _bits(n)
    nv, kv = _bits(n - 1)
    nt, kt = _bits(10_001)
    hubs = max(2, n // 25)
    seen = set()
    add_seen = seen.add
    # Draws in order: each pair's key and start.
    pairs, starts = array("q"), array("q")
    add_pair, add_start = pairs.append, starts.append
    count = 0
    while count < target_edges:
        u = getrandbits(ku)
        while u >= nu:
            u = getrandbits(ku)
        v = getrandbits(kv)
        while v >= nv:
            v = getrandbits(kv)
        if v >= u:
            v += 1
        if draw() < 0.5:  # mild hub skew
            u %= hubs
        if u == v:
            continue
        key = u * n + v  # an int key per static pair, not a tuple
        if key in seen:
            continue
        add_seen(key)
        t = getrandbits(kt)
        while t >= nt:
            t = getrandbits(kt)
        add_pair(key)
        add_start(t)
        count += 1
    times = _read_only(np.frombuffer(starts, dtype=np.int64).astype(np.float64))
    return TemporalGraph.from_columns(
        *_split_pairs(pairs, n),
        times,
        _read_only(times + 1.0),
        _read_only(np.ones(count)),
        vertices=range(n),
    )


def facebook_like(scale: float = 1.0, seed: int = 3) -> TemporalGraph:
    """Wall posts: heavy per-pair multiplicity (paper pi = 742)."""
    n = max(10, int(400 * scale))
    return preferential_temporal_graph(
        n,
        int(18 * n),
        time_range=50_000,
        multiplicity=24,
        hub_bias=0.6,
        zero_duration=True,
        seed=seed,
    )


def enron_like(scale: float = 1.0, seed: int = 4) -> TemporalGraph:
    """Email: hub-dominated, extreme max temporal degree (paper 32552)."""
    n = max(10, int(450 * scale))
    return preferential_temporal_graph(
        n,
        int(13 * n),
        time_range=40_000,
        multiplicity=16,
        hub_bias=0.85,
        zero_duration=True,
        seed=seed,
    )


def hepph_like(scale: float = 1.0, seed: int = 5) -> TemporalGraph:
    """Dense co-authorship: very high M/n, zero durations natural."""
    n = max(10, int(150 * scale))
    return preferential_temporal_graph(
        n,
        int(60 * n),
        time_range=2_000,
        multiplicity=8,
        hub_bias=0.5,
        zero_duration=True,
        seed=seed,
    )


def dblp_like(scale: float = 1.0, seed: int = 6) -> TemporalGraph:
    """Huge sparse co-authorship: zero durations, coarse timestamps (years).

    Timestamps are quantised to a few distinct values (publication
    years) -- the property behind the paper's DBLP observation that
    same-year collaborators are mutually reachable only when durations
    are zero.
    """
    n = max(20, int(1200 * scale))
    sources, targets, draws, _, _ = _uniform_columns(
        n, int(10 * n), 40, 1, True, 10.0, _rng(seed)
    )
    # Read-only, so the store shares one array for starts and arrivals.
    times = _read_only(np.frombuffer(draws).astype(np.int64) % 25 + 1990.0)
    weights = _read_only(np.ones(len(times)))
    return TemporalGraph.from_columns(
        sources, targets, times, times, weights, vertices=range(n)
    )


def phone_like(scale: float = 1.0, seed: int = 7) -> TemporalGraph:
    """Call records: tiny vertex set, enormous M/n, duration weights.

    Mirrors the D4D Phone dataset: 1192 antennas with 10.7M calls in
    the paper; here a small vertex set with a very high edge multiple,
    weighted by call duration (the ``duration_voice_calls`` attribute).
    """
    n = max(8, int(60 * scale))
    rng = _rng(seed)
    getrandbits = rng.getrandbits
    nu, ku = _bits(n)
    nv, kv = _bits(n - 1)
    nt, kt = _bits(400_001)
    nd, kd = _bits(591)  # durations 10 .. 600
    pairs, starts, durations = array("q"), array("q"), array("q")
    add_pair, add_start, add_duration = pairs.append, starts.append, durations.append
    for _ in range(int(220 * n)):
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
        d = getrandbits(kd)
        while d >= nd:
            d = getrandbits(kd)
        add_pair(u * n + v)
        add_start(t)
        add_duration(d)
    times = _read_only(np.frombuffer(starts, dtype=np.int64).astype(np.float64))
    weights = _read_only(np.frombuffer(durations, dtype=np.int64) + 10.0)
    return TemporalGraph.from_columns(
        *_split_pairs(pairs, n),
        times,
        _read_only(times + weights),
        weights,
        vertices=range(n),
    )
