"""Struct-of-arrays edge storage: the columnar temporal-graph core.

Every hot kernel before this module walked ``TemporalEdge`` objects one
at a time -- an attribute access plus a Python-level comparison per
edge.  :class:`ColumnarEdgeStore` keeps the same edges as five parallel
columns (``sources``/``targets`` as interned integer ids, ``starts``/
``arrivals``/``weights`` as floats) together with two permutations of
the insertion positions -- one sorted by ``(start, arrival, position)``,
one by ``(arrival, start, position)`` -- and the rank arrays mapping
between the orders.  Window extraction, sliding-window deltas, the
earliest-arrival sweep, and the Section 4.2 transformation then run as
batched passes over these arrays.

The columns are numpy ``float64``/``int64`` arrays and queries use
``searchsorted``/boolean masks.  Outputs are property-tested against
the scalar object-level code frozen in :mod:`repro.perf.legacy`.

Stores are derived, immutable state: a :class:`TemporalGraph` builds
one lazily (``graph.columnar()``) and keeps it for its lifetime, so
structures derived from a store
(:func:`repro.temporal.index.edge_index_for`) can be cached per graph.

The sorted views handed out by the accessor methods
(:meth:`ColumnarEdgeStore.sorted_starts` and friends) are the *cached*
arrays, not copies -- mutating one corrupts every later query.  The
REP102 ``cache-mutation`` lint rule holds callers to that, exactly as
it does for the ``TemporalGraph`` adjacency accessors.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.temporal.edge import TemporalEdge, Vertex, make_edge

#: Arrival-chunk size of the vectorised earliest-arrival sweep: large
#: enough to amortise per-chunk numpy overhead, small enough that the
#: within-chunk fixpoint re-scan stays cheap.
EA_CHUNK = 4096


class ColumnarEdgeStore:
    """Immutable struct-of-arrays view of one edge tuple.

    Parameters
    ----------
    edges:
        The graph's edge tuple in insertion order.  The store keeps a
        reference (for materialising ``TemporalEdge`` objects back out)
        but never copies or mutates it.
    vertices:
        Optional extra vertices (isolated ones) interned after the edge
        endpoints.

    Vertex labels are interned to dense ids in first-occurrence order
    (edge sources/targets in insertion order, then the extras), so two
    stores built from the same graph agree on every id, which keeps
    outputs ordered by intern id identical across processes.
    """

    __slots__ = (
        "edges",
        "vertex_labels",
        "vertex_ids",
        "starts_are_float",
        "arrivals_are_float",
        "weights_are_float",
        "sources",
        "targets",
        "starts",
        "arrivals",
        "weights",
        "_start_order",
        "_arrival_order",
        "_starts_sorted",
        "_arrivals_sorted",
        "_arrival_by_start",
        "_start_by_arrival",
        "_start_rank",
    )

    def __init__(
        self,
        edges: Sequence[TemporalEdge],
        vertices: Optional[Iterable[Vertex]] = None,
    ) -> None:
        self.edges: Tuple[TemporalEdge, ...] = tuple(edges)

        ids: Dict[Vertex, int] = {}
        src_ids: List[int] = []
        dst_ids: List[int] = []
        starts: List[float] = []
        arrivals: List[float] = []
        weights: List[float] = []
        for e in self.edges:
            u = ids.get(e.source)
            if u is None:
                u = len(ids)
                ids[e.source] = u
            v = ids.get(e.target)
            if v is None:
                v = len(ids)
                ids[e.target] = v
            src_ids.append(u)
            dst_ids.append(v)
            starts.append(e.start)
            arrivals.append(e.arrival)
            weights.append(e.weight)
        if vertices is not None:
            for label in vertices:
                if label not in ids:
                    ids[label] = len(ids)
        self.vertex_ids: Dict[Vertex, int] = ids
        self.vertex_labels: List[Vertex] = list(ids)
        # Whether the float64 columns are *exact* stand-ins for the edge
        # objects' Python values (same value, same type).  Consumers
        # that must reproduce object-identical outputs (the Section 4.2
        # transformation) may read values straight off the columns when
        # the flag is set, and fall back to the edge objects when a
        # graph carries int (or other numeric) timestamps or weights.
        self.starts_are_float = all(type(s) is float for s in starts)
        self.arrivals_are_float = all(type(a) is float for a in arrivals)
        self.weights_are_float = all(type(w) is float for w in weights)

        self.sources = np.asarray(src_ids, dtype=np.int64)
        self.targets = np.asarray(dst_ids, dtype=np.int64)
        self.starts = np.asarray(starts, dtype=np.float64)
        self.arrivals = np.asarray(arrivals, dtype=np.float64)
        self.weights = np.asarray(weights, dtype=np.float64)
        # lexsort is stable, so full (start, arrival) ties keep the
        # insertion position as the final key -- the exact order the
        # object core's stable sorts produce.
        self._start_order = np.lexsort((self.arrivals, self.starts))
        self._arrival_order = np.lexsort((self.starts, self.arrivals))
        self._starts_sorted = self.starts[self._start_order]
        self._arrivals_sorted = self.arrivals[self._arrival_order]
        self._arrival_by_start = self.arrivals[self._start_order]
        self._start_by_arrival = self.starts[self._arrival_order]
        rank = np.empty(len(self.edges), dtype=np.int64)
        rank[self._start_order] = np.arange(len(self.edges), dtype=np.int64)
        self._start_rank = rank

    # ------------------------------------------------------------------
    # Shared-view accessors (REP102-protected: never mutate the result)
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_labels)

    def sorted_starts(self):
        """Start times in ``(start, arrival, position)`` order (shared)."""
        return self._starts_sorted

    def sorted_arrivals(self):
        """Arrival times in ``(arrival, start, position)`` order (shared)."""
        return self._arrivals_sorted

    def positions_by_start(self):
        """Insertion positions in ``(start, arrival, position)`` order."""
        return self._start_order

    def positions_by_arrival(self):
        """Insertion positions in ``(arrival, start, position)`` order."""
        return self._arrival_order

    def arrivals_by_start_order(self):
        """Arrival column permuted into start order (shared view)."""
        return self._arrival_by_start

    def starts_by_arrival_order(self):
        """Start column permuted into arrival order (shared view)."""
        return self._start_by_arrival

    def start_ranks(self):
        """Per-position rank within the start order (shared view)."""
        return self._start_rank

    # ------------------------------------------------------------------
    # Batched queries
    # ------------------------------------------------------------------
    def start_bounds(self, t_alpha: float, t_omega: float) -> Tuple[int, int]:
        """``[lo, hi)`` into the start order with ``t_alpha <= start <= t_omega``."""
        lo = int(np.searchsorted(self._starts_sorted, t_alpha, side="left"))
        hi = int(np.searchsorted(self._starts_sorted, t_omega, side="right"))
        return lo, hi

    def window_positions(self, t_alpha: float, t_omega: float):
        """Insertion positions of in-window edges, chronological order.

        Chronological means ``(start, arrival, position)`` -- the order
        :meth:`TemporalGraph.chronological_edges` and the sorted edge
        index use.  ``O(log M + candidates)``, vectorised.
        """
        lo, hi = self.start_bounds(t_alpha, t_omega)
        cand = self._start_order[lo:hi]
        return cand[self._arrival_by_start[lo:hi] <= t_omega]

    def window_positions_graph_order(self, t_alpha: float, t_omega: float):
        """Same membership as :meth:`window_positions`, insertion order."""
        return np.sort(self.window_positions(t_alpha, t_omega))

    def count_in(self, t_alpha: float, t_omega: float) -> int:
        """Number of in-window edges, nothing materialised."""
        lo, hi = self.start_bounds(t_alpha, t_omega)
        return int((self._arrival_by_start[lo:hi] <= t_omega).sum())

    def delta_positions(
        self,
        old_window: Tuple[float, float],
        new_window: Tuple[float, float],
    ) -> Tuple[Any, Any]:
        """``(added, removed)`` positions between two windows.

        The columnar form of ``TemporalEdgeIndex.delta``: each side is
        the union of a start-boundary slice of the start order and an
        arrival-boundary slice of the arrival order (disjoint by
        construction), re-sorted into chronological order via the rank
        array.  ``O(log M + |Delta|)``.
        """
        return (
            self._one_sided_positions(old_window, new_window),
            self._one_sided_positions(new_window, old_window),
        )

    def _one_sided_positions(
        self, frm: Tuple[float, float], to: Tuple[float, float]
    ):
        a1, o1 = frm
        a2, o2 = to
        parts = []
        if a2 < a1:
            lo = int(np.searchsorted(self._starts_sorted, a2, side="left"))
            hi = min(
                int(np.searchsorted(self._starts_sorted, a1, side="left")),
                int(np.searchsorted(self._starts_sorted, o2, side="right")),
            )
            if hi > lo:
                cand = self._start_order[lo:hi]
                parts.append(cand[self._arrival_by_start[lo:hi] <= o2])
        if o2 > o1:
            left = max(a1, a2)
            lo = int(np.searchsorted(self._arrivals_sorted, o1, side="right"))
            hi = int(np.searchsorted(self._arrivals_sorted, o2, side="right"))
            if hi > lo:
                cand = self._arrival_order[lo:hi]
                parts.append(cand[self._start_by_arrival[lo:hi] >= left])
        if not parts:
            return np.empty(0, dtype=np.int64)
        picked = np.concatenate(parts)
        return picked[np.argsort(self._start_rank[picked], kind="stable")]

    def earliest_arrival(
        self, source: Vertex, t_alpha: float, t_omega: float
    ) -> List[Tuple[Vertex, float]]:
        """Earliest-arrival labels from ``source``.

        Returns ``[(vertex, arrival), ...]`` for every vertex reachable
        through a time-respecting path inside ``[t_alpha, t_omega]``,
        ordered by ``(arrival, intern id)`` with float arrival times.

        The sweep walks the arrival-sorted columns in chunks, never
        splitting an arrival tie group.  Within a chunk it iterates a
        relaxation fixpoint: an edge is usable when it departs no
        earlier than its source's current label, and usable edges
        scatter-min their arrival into their target's label.  Later
        chunks only produce labels strictly above the chunk's arrival
        ceiling (tie groups are whole), so they can never enable an
        edge of an earlier chunk -- one forward pass suffices, even
        with zero-duration edges.
        """
        src = self.vertex_ids.get(source)
        if src is None:
            return []
        lab = self.earliest_arrival_labels(src, t_alpha, t_omega)
        reached_mask = lab < np.inf
        reached_mask[src] = True  # degenerate t_alpha = inf still reports source
        reached = np.flatnonzero(reached_mask)
        reached = reached[np.lexsort((reached, lab[reached]))]
        labels = self.vertex_labels
        return [
            (labels[i], t)
            for i, t in zip(reached.tolist(), lab[reached].tolist())
        ]

    def earliest_arrival_labels(self, src: int, t_alpha: float, t_omega: float):
        """The sweep behind :meth:`earliest_arrival`, as a label array.

        ``src`` is an intern id.  Returns a fresh float64 array over
        intern ids: the earliest arrival time from ``src`` inside
        ``[t_alpha, t_omega]``, ``inf`` where unreachable, and
        ``t_alpha`` at ``src`` itself.
        """
        hi = int(np.searchsorted(self._arrivals_sorted, t_omega, side="right"))
        order = self._arrival_order[:hi]
        arr = self._arrivals_sorted[:hi]
        st = self._start_by_arrival[:hi]
        srcs = self.sources[order]
        tgts = self.targets[order]
        lab = np.full(self.num_vertices, np.inf)
        lab[src] = t_alpha
        lo = 0
        while lo < hi:
            cut = min(lo + EA_CHUNK, hi)
            if cut < hi:
                cut = int(np.searchsorted(arr, arr[cut - 1], side="right"))
            s, a = st[lo:cut], arr[lo:cut]
            u, v = srcs[lo:cut], tgts[lo:cut]
            while True:
                # Strict ``a < lab[v]`` means an edge fires at most once:
                # after the scatter-min its target label is <= a.
                usable = (s >= lab[u]) & (a < lab[v])
                if not usable.any():
                    break
                np.minimum.at(lab, v[usable], a[usable])
            lo = cut
        return lab

    def edges_at(self, positions) -> List[TemporalEdge]:
        """Materialise ``TemporalEdge`` objects for insertion positions."""
        edges = self.edges
        return [edges[p] for p in positions.tolist()]

    # ------------------------------------------------------------------
    # Stdlib column export (pickling, shard payloads)
    # ------------------------------------------------------------------
    def _value_column(self, values: List[Any], exact: bool):
        """A shippable value column that round-trips value *and* type.

        ``array('d')`` when the store-wide flag proves every value is a
        Python float; ``array('q')`` when every value is a Python int
        fitting int64 (reading an ``array('q')`` yields exact ints
        back, so int-timestamp datasets ship as 8 bytes per value too).
        Anything else (Fractions, big ints, mixtures) falls back to a
        tuple of the original objects -- the downstream byte-identity
        guarantees lean on this exactness.
        """
        if exact:
            return array("d", values)
        if all(
            type(v) is int and -(2**63) <= v < 2**63 for v in values
        ):
            return array("q", values)
        return tuple(values)

    def export_columns(self) -> Dict[str, Any]:
        """The store's defining state as stdlib columns.

        Returns a dict of ``labels`` (interned vertex labels, intern-id
        order, including isolated extras) plus the five edge columns:
        ``sources``/``targets`` as ``array('q')`` of intern ids and
        ``starts``/``arrivals``/``weights`` as ``array('d')`` -- or
        tuples of the original Python values when the matching
        ``*_are_float`` flag is unset.  Only stdlib containers, so the
        payload format does not depend on the numpy version and rebuilds
        the identical edge tuple (:func:`edges_from_columns`).
        """
        edges = self.edges
        return {
            "labels": tuple(self.vertex_labels),
            "sources": array("q", self.sources.tolist()),
            "targets": array("q", self.targets.tolist()),
            "starts": self._value_column(
                [e.start for e in edges], self.starts_are_float
            ),
            "arrivals": self._value_column(
                [e.arrival for e in edges], self.arrivals_are_float
            ),
            "weights": self._value_column(
                [e.weight for e in edges], self.weights_are_float
            ),
        }

    def time_slice_columns(self, t_alpha: float, t_omega: float) -> Dict[str, Any]:
        """Columns for the edges inside ``[t_alpha, t_omega]`` only.

        The shard-payload primitive: membership and order match
        :meth:`window_positions_graph_order` (start >= t_alpha and
        arrival <= t_omega, insertion order), vertex labels are
        re-interned locally in first-occurrence order, and the value
        columns carry the slice's original Python values (exact arrays
        when the store-wide flags allow).  The result holds no
        ``TemporalEdge`` objects and no labels outside the slice, so a
        worker unpickling it never sees out-of-range edges.
        """
        picked = self.window_positions_graph_order(t_alpha, t_omega).tolist()
        edges = self.edges
        ids: Dict[Vertex, int] = {}
        labels: List[Vertex] = []
        sources = array("q")
        targets = array("q")
        starts: List[Any] = []
        arrivals: List[Any] = []
        weights: List[Any] = []
        for p in picked:
            e = edges[p]
            u = ids.get(e.source)
            if u is None:
                u = len(labels)
                ids[e.source] = u
                labels.append(e.source)
            v = ids.get(e.target)
            if v is None:
                v = len(labels)
                ids[e.target] = v
                labels.append(e.target)
            sources.append(u)
            targets.append(v)
            starts.append(e.start)
            arrivals.append(e.arrival)
            weights.append(e.weight)
        return {
            "labels": tuple(labels),
            "sources": sources,
            "targets": targets,
            "starts": self._value_column(starts, self.starts_are_float),
            "arrivals": self._value_column(arrivals, self.arrivals_are_float),
            "weights": self._value_column(weights, self.weights_are_float),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ColumnarEdgeStore(M={self.num_edges}, n={self.num_vertices})"
        )


def edges_from_columns(columns: Dict[str, Any]) -> List[TemporalEdge]:
    """Rebuild the edge list a column export describes, in order.

    Inverse of :meth:`ColumnarEdgeStore.export_columns` /
    :meth:`ColumnarEdgeStore.time_slice_columns`: intern ids are mapped
    back through ``labels`` and every edge goes through
    :func:`make_edge`, so a corrupted payload fails validation instead
    of entering a graph.
    """
    labels = columns["labels"]
    return [
        make_edge(labels[u], labels[v], start, arrival, weight)
        for u, v, start, arrival, weight in zip(
            columns["sources"],
            columns["targets"],
            columns["starts"],
            columns["arrivals"],
            columns["weights"],
        )
    ]
