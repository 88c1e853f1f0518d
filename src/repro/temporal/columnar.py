"""Struct-of-arrays edge storage: the columnar temporal-graph core.

Every hot kernel before this module walked ``TemporalEdge`` objects one
at a time -- an attribute access plus a Python-level comparison per
edge.  :class:`ColumnarEdgeStore` keeps the edges as five parallel
columns (``sources``/``targets`` as interned integer ids, ``starts``/
``arrivals``/``weights`` as floats) together with two permutations of
the insertion positions -- one sorted by ``(start, arrival, position)``,
one by ``(arrival, start, position)`` -- and the rank arrays mapping
between the orders.  Window extraction, the earliest-arrival sweep,
and the Section 4.2 transformation then run as batched passes over
these arrays.

Per-vertex walks (Algorithm 2, the path sweeps, the incident-edge test)
read a compressed sparse row (CSR) layout per direction instead.

The columns are numpy ``float64``/``int64`` arrays and queries use
``searchsorted``/boolean masks.  Outputs are property-tested against
the scalar object-level code frozen in the test oracle
``tests/legacy.py``.

The store holds no ``TemporalEdge`` objects.  A value column float64
cannot stand in for exactly (int or ``Fraction`` timestamps, say) also
keeps its Python values, so :meth:`ColumnarEdgeStore.edges_at` rebuilds
the exact edges of any positions from the columns alone.

Stores are derived, immutable state.  A graph built from columns
(:meth:`TemporalGraph.from_columns`) *is* its store until an algorithm
reads ``graph.edges``; one built from edge objects builds its store
lazily (``graph.columnar()``).  Either way the graph keeps it for its
lifetime, so structures derived from a store (the sort orders, the CSR
layouts) are built once per graph.

The sorted views handed out by the accessor methods
(:meth:`ColumnarEdgeStore.sorted_starts` and friends), the CSR layouts
and the kept Python values (:meth:`ColumnarEdgeStore.value_column`,
:meth:`ColumnarEdgeStore.python_values`) are the *cached* objects, not
copies -- mutating one corrupts every later query.  The REP102
``cache-mutation`` lint rule holds callers to that.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.temporal.edge import TemporalEdge, Vertex
from repro.temporal.graph import VALUE_COLUMNS, edge_rows

#: The store's slots built on first read (see ``ColumnarEdgeStore._sort``).
_SORTED_VIEWS = frozenset(
    {
        "_start_order",
        "_arrival_order",
        "_starts_sorted",
        "_arrivals_sorted",
        "_arrival_by_start",
        "_start_by_arrival",
        "_start_rank",
    }
)

#: Arrival-chunk size of the vectorised earliest-arrival sweep: large
#: enough to amortise per-chunk numpy overhead, small enough that the
#: within-chunk fixpoint re-scan stays cheap.
EA_CHUNK = 4096


class Adjacency(NamedTuple):
    """CSR: vertex ``v``'s edges are ``positions[offsets[v]:offsets[v + 1]]``.

    ``keys[i]`` is ``positions[i]``'s exact sort key, for ``bisect``.
    """

    offsets: Any
    positions: Any
    keys: Sequence[Any]


def _int_column(values: Sequence[Any]):
    """``values`` as a 1-D int64 array, or None if they are not all ints."""
    try:
        column = np.asarray(values)
    except (TypeError, ValueError, OverflowError):
        return None
    if column.ndim != 1 or column.dtype.kind not in "iu":
        return None
    return column.astype(np.int64, copy=False)


def _first_occurrence_ids(sources, targets) -> Tuple[Any, Any, Any]:
    """Dense ids for two int64 columns, in first-occurrence order.

    Endpoints are read interleaved (``sources[0], targets[0],
    sources[1], ...``), the order the edge-by-edge interning loop meets
    them.  Returns ``(source_ids, target_ids, first)`` where
    ``first`` lists, per id, the endpoint that id was first met at
    (:func:`_endpoint_at` reads it back).  Read-only columns that
    already are such ids (another store's) are returned as they are.

    Values in ``[0, 4 * endpoints + 4096)`` -- vertex numbers and intern
    ids -- get each value's first position from one scatter-min over a
    table indexed by value; other values are sorted (``np.unique``),
    about 15x slower at 240k endpoints.
    """
    both = np.empty(2 * len(sources), dtype=np.int64)
    both[0::2] = sources
    both[1::2] = targets
    if len(both) and both.min() >= 0 and both.max() < 4 * len(both) + 4096:
        first_at = np.full(int(both.max()) + 1, len(both), dtype=np.int64)
        np.minimum.at(first_at, both, np.arange(len(both), dtype=np.int64))
        values = np.flatnonzero(first_at < len(both))
        first = first_at[values]
        order = np.argsort(first)
        id_of = np.empty(len(first_at), dtype=np.int64)
        id_of[values[order]] = np.arange(len(values), dtype=np.int64)
        ids = id_of[both]
    else:
        _, first, inverse = np.unique(both, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty(len(first), dtype=np.int64)
        rank[order] = np.arange(len(first), dtype=np.int64)
        ids = rank[inverse.reshape(-1)]
    shared = not (sources.flags.writeable or targets.flags.writeable)
    if shared and np.array_equal(ids, both):
        return sources, targets, first[order]
    return ids[0::2].copy(), ids[1::2].copy(), first[order]


def _view(column) -> memoryview:
    """A read-only memoryview of a freshly built array."""
    column.flags.writeable = False
    return memoryview(column)


def sorted_distinct(values: Any) -> Any:
    """The distinct values of a 1-D array, ascending: one sort.

    Same result as ``np.unique(values)``, whose plain form imports
    ``numpy.ma`` on first use (a one-off ~10 ms and ~1.2 MB of RSS)
    for a masked-array check these columns never need.
    """
    ordered = np.sort(values)
    keep = np.ones(len(ordered), dtype=bool)
    keep[1:] = ordered[1:] != ordered[:-1]
    return ordered[keep]


def _endpoint_at(sources, targets, first) -> List[Any]:
    """The endpoint values at interleaved positions ``first``."""
    return [targets[p >> 1] if p & 1 else sources[p >> 1] for p in first.tolist()]


def _intern_labels(
    sources: Sequence[Vertex], targets: Sequence[Vertex]
) -> Tuple[List[Vertex], Any, Any]:
    """Intern endpoint label columns: ``(labels, source_ids, target_ids)``.

    Int labels are interned with array passes
    (:func:`_first_occurrence_ids`); any other label type falls back to a
    dict walk.  Both give the first-occurrence order, and ``labels``
    holds the first label object met for each id.
    """
    src = _int_column(sources)
    dst = _int_column(targets) if src is not None else None
    if dst is not None:
        src_ids, dst_ids, first = _first_occurrence_ids(src, dst)
        return _endpoint_at(sources, targets, first), src_ids, dst_ids
    ids: Dict[Vertex, int] = {}
    src_list: List[int] = []
    dst_list: List[int] = []
    for u, v in zip(sources, targets):
        src_list.append(ids.setdefault(u, len(ids)))
        dst_list.append(ids.setdefault(v, len(ids)))
    return (
        list(ids),
        np.asarray(src_list, dtype=np.int64),
        np.asarray(dst_list, dtype=np.int64),
    )


def _float_column(values: Sequence[Any]) -> Tuple[Any, Optional[Sequence[Any]]]:
    """``(read-only float64 array, kept)`` for one value column.

    ``kept`` is None when the array stands in exactly for the values:
    every value is a Python float, or the column is a float numpy or
    ``array('d')`` column (both read back as Python floats).  Otherwise
    it holds the Python values (numpy and stdlib arrays read back
    through ``tolist()``).  A read-only float64 array is shared, not
    copied.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        exact = True
    elif isinstance(values, array) and values.typecode == "d":
        exact = True
    else:
        if isinstance(values, (np.ndarray, array)):
            values = values.tolist()
        exact = set(map(type, values)) <= {float}
    if isinstance(values, np.ndarray) and values.dtype == np.float64 and not (
        values.flags.writeable
    ):
        column = values
    else:
        column = np.array(values, dtype=np.float64)
        column.flags.writeable = False
    return column, None if exact else tuple(values)


class ColumnarEdgeStore:
    """Immutable struct-of-arrays form of one graph's edges.

    Parameters
    ----------
    sources, targets:
        The edges' endpoints, one entry per edge in insertion order:
        vertex labels, or -- when ``labels`` is given -- integer indices
        into ``labels``.
    starts, arrivals, weights:
        The edges' values, one entry per edge: Python values, or numpy
        / stdlib arrays read back as Python values.
    vertices:
        Optional extra vertices (isolated ones) interned after the edge
        endpoints, in the order given.
    labels:
        The label table ``sources``/``targets`` index into.  Only the
        labels an edge uses are interned (plus ``vertices``).

    The store does not validate the columns
    (:meth:`TemporalGraph.from_columns` does).  Use :meth:`from_edges`
    to build a store from edge objects.

    Vertex labels are interned to dense ids in first-occurrence order
    (edge sources/targets in insertion order, then the extras), so two
    stores built from the same graph agree on every id, which keeps
    outputs ordered by intern id identical across processes.
    """

    __slots__ = (
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
        "_kept",
        "_start_order",
        "_arrival_order",
        "_starts_sorted",
        "_arrivals_sorted",
        "_arrival_by_start",
        "_start_by_arrival",
        "_start_rank",
        "_adjacencies",
    )

    def __init__(
        self,
        sources: Sequence[Any],
        targets: Sequence[Any],
        starts: Sequence[Any],
        arrivals: Sequence[Any],
        weights: Sequence[Any],
        vertices: Optional[Iterable[Vertex]] = None,
        labels: Optional[Sequence[Vertex]] = None,
    ) -> None:
        if labels is None:
            vertex_labels, src_ids, dst_ids = _intern_labels(sources, targets)
        else:
            src = np.asarray(sources, dtype=np.int64)
            dst = np.asarray(targets, dtype=np.int64)
            src_ids, dst_ids, first = _first_occurrence_ids(src, dst)
            vertex_labels = [labels[i] for i in _endpoint_at(src, dst, first)]
        ids: Dict[Vertex, int] = dict(zip(vertex_labels, range(len(vertex_labels))))
        if vertices is not None:
            for label in vertices:
                if label not in ids:
                    ids[label] = len(vertex_labels)
                    vertex_labels.append(label)
        self.vertex_ids: Dict[Vertex, int] = ids
        self.vertex_labels: List[Vertex] = vertex_labels
        # Read-only, so a store built from these id columns may share them.
        src_ids.flags.writeable = False
        dst_ids.flags.writeable = False
        self.sources = src_ids
        self.targets = dst_ids
        # Whether the float64 columns are *exact* stand-ins for the
        # edges' Python values (same value, same type).  Consumers that
        # must reproduce object-identical outputs (the Section 4.2
        # transformation) may read values straight off the columns when
        # the flag is set; for any other column (int or other numeric
        # values) the store keeps the Python values in ``_kept``.
        self._kept: Dict[str, Sequence[Any]] = {}
        for name, values in zip(VALUE_COLUMNS, (starts, arrivals, weights)):
            column, kept = _float_column(values)
            setattr(self, name, column)
            setattr(self, f"{name}_are_float", kept is None)
            if kept is not None:
                self._kept[name] = kept
        self._adjacencies: Dict[str, Adjacency] = {}

    def __getattr__(self, name: str) -> Any:
        # The sort orders and the views derived from them (the
        # ``_SORTED_VIEWS`` slots) are left unset until first read: a
        # graph used only for its id columns -- a dataset's unweighted
        # stand-in, which the weight cascade reads and drops -- never
        # pays for them, in time or in peak memory.  Python calls this
        # only for unset attributes.  Two threads racing here compute
        # equal arrays, so either's may win.
        if name not in _SORTED_VIEWS:
            raise AttributeError(name)
        self._sort()
        return object.__getattribute__(self, name)

    def _sort(self) -> None:
        # lexsort is stable, so full (start, arrival) ties keep the
        # insertion position as the final key -- the exact order the
        # object core's stable sorts produce.
        start_order = np.lexsort((self.arrivals, self.starts))
        arrival_order = np.lexsort((self.starts, self.arrivals))
        rank = np.empty(self.num_edges, dtype=np.int64)
        rank[start_order] = np.arange(self.num_edges, dtype=np.int64)
        self._starts_sorted = self.starts[start_order]
        self._arrivals_sorted = self.arrivals[arrival_order]
        self._arrival_by_start = self.arrivals[start_order]
        self._start_by_arrival = self.starts[arrival_order]
        self._start_rank = rank
        self._arrival_order = arrival_order
        self._start_order = start_order

    @classmethod
    def from_edges(
        cls,
        edges: Sequence[TemporalEdge],
        vertices: Optional[Iterable[Vertex]] = None,
    ) -> "ColumnarEdgeStore":
        """The store of an edge tuple: its columns read off the objects."""
        columns = tuple(zip(*edges)) or ((),) * 5
        return cls(*columns, vertices=vertices)

    # ------------------------------------------------------------------
    # Shared-view accessors (REP102-protected: never mutate the result)
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return len(self.sources)

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

    def out_adjacency(self) -> Adjacency:
        """Out-edges by source id, then start, then *descending* position (shared).

        Read backwards, a vertex's run is Algorithm 2's order: start
        descending, then position.
        """
        if "out" not in self._adjacencies:
            # A stable sort of the reversed columns puts later positions first.
            order = np.lexsort((self._exact_key("starts")[::-1], self.sources[::-1]))
            self._adjacencies["out"] = self._csr(
                self.sources, self.num_edges - 1 - order, "starts"
            )
        return self._adjacencies["out"]

    def in_adjacency(self) -> Adjacency:
        """In-edges by target id, then arrival, start and position (shared)."""
        if "in" not in self._adjacencies:
            order = np.lexsort(
                (self._exact_key("starts"), self._exact_key("arrivals"), self.targets)
            )
            self._adjacencies["in"] = self._csr(self.targets, order, "arrivals")
        return self._adjacencies["in"]

    def _csr(self, ids, positions, name: str) -> Adjacency:
        offsets = np.zeros(self.num_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(ids, minlength=self.num_vertices), out=offsets[1:])
        kept = self._kept.get(name)
        if kept is None:
            keys: Sequence[Any] = _view(getattr(self, name)[positions])
        else:
            keys = tuple(kept[p] for p in positions.tolist())
        return Adjacency(_view(offsets), _view(positions), keys)

    def _exact_key(self, name: str):
        # float64 may round an int above 2**53 or a Fraction into a false
        # tie, so kept values sort as int64 or by their dense ranks.
        kept = self._kept.get(name)
        key = getattr(self, name) if kept is None else _int_column(kept)
        if key is None:
            rank = {value: i for i, value in enumerate(sorted(set(kept)))}
            key = np.array([rank[value] for value in kept], dtype=np.int64)
        return key

    def python_values(self, name: str) -> Sequence[Any]:
        """Column ``name`` (ids or values) as a shared sequence of Python values."""
        kept = self._kept.get(name)
        return memoryview(getattr(self, name)) if kept is None else kept

    def value_column(self, name: str) -> Sequence[Any]:
        """Value column ``name`` (``"starts"``, ``"arrivals"`` or ``"weights"``).

        The float64 array when it stands in exactly for the Python
        values (the matching ``*_are_float`` flag), else the Python
        values the store kept.  Either is shared.
        """
        kept = self._kept.get(name)
        return getattr(self, name) if kept is None else kept

    # ------------------------------------------------------------------
    # Batched queries
    # ------------------------------------------------------------------
    def start_bounds(self, t_alpha: float, t_omega: float) -> Tuple[int, int]:
        """``[lo, hi)`` into the start order with ``t_alpha <= start <= t_omega``."""
        starts_sorted = self._starts_sorted
        lo = int(starts_sorted.searchsorted(t_alpha, "left"))
        hi = int(starts_sorted.searchsorted(t_omega, "right"))
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

    def has_incident_in(self, vertex: Vertex, t_alpha: Any, t_omega: Any) -> bool:
        """Whether ``vertex`` has an edge with ``start >= t_alpha`` and
        ``arrival <= t_omega``.

        Read off the vertex's two CSR runs, comparing the edges' exact
        values (the CSR keys and :meth:`python_values`), so the cost is
        the vertex's degree, not the window's size.
        """
        v = self.vertex_ids.get(vertex)
        if v is None:
            return False
        offsets, positions, keys = self.out_adjacency()
        lo = bisect_left(keys, t_alpha, offsets[v], offsets[v + 1])
        hi = bisect_right(keys, t_omega, lo, offsets[v + 1])
        arrivals = self.python_values("arrivals")
        if any(arrivals[p] <= t_omega for p in positions[lo:hi]):
            return True
        offsets, positions, keys = self.in_adjacency()
        hi = bisect_right(keys, t_omega, offsets[v], offsets[v + 1])
        starts = self.python_values("starts")
        return any(starts[p] >= t_alpha for p in positions[offsets[v] : hi])

    def earliest_arrival(
        self, source: Vertex, t_alpha: float, t_omega: float
    ) -> List[Tuple[Vertex, float]]:
        """Earliest-arrival labels from ``source``.

        Returns ``[(vertex, arrival), ...]`` for every vertex reachable
        through a time-respecting path inside ``[t_alpha, t_omega]``,
        ordered by ``(arrival, intern id)`` with float arrival times.

        The sweep walks the arrival-sorted columns from ``t_alpha`` to
        ``t_omega`` (an edge arriving before ``t_alpha`` also starts
        before it, so it can never depart from a label), in chunks that
        never split an arrival tie group.  Within a chunk it iterates a
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

        Only edges arriving in ``[t_alpha, t_omega]`` are swept, so the
        cost is the window's, not the history before it.  Skipping the
        earlier ones is exact: every label is ``t_alpha`` or more (or
        ``inf``), and an edge arriving before ``t_alpha`` starts before
        it (durations are non-negative), so it is never usable.  An
        edge with ``start == arrival == t_alpha`` is kept (``"left"``).
        """
        return self._arrival_sweep(src, t_alpha, t_omega)[0]

    def _arrival_sweep(self, src: int, t_alpha: float, t_omega: float):
        """``(labels, order, starts, arrivals, sources, targets)`` of the sweep.

        ``labels`` is :meth:`earliest_arrival_labels`; the other five
        are the swept edges (those arriving in ``[t_alpha, t_omega]``)
        in arrival order: insertion positions, times and endpoint ids.
        """
        arrivals_sorted = self._arrivals_sorted
        first = int(arrivals_sorted.searchsorted(t_alpha, "left"))
        hi = int(arrivals_sorted.searchsorted(t_omega, "right"))
        order = self._arrival_order[first:hi]
        arr = arrivals_sorted[first:hi]
        st = self._start_by_arrival[first:hi]
        srcs = self.sources[order]
        tgts = self.targets[order]
        lab = np.full(self.num_vertices, np.inf)
        lab[src] = t_alpha
        lo, hi = 0, len(order)
        while lo < hi:
            cut = min(lo + EA_CHUNK, hi)
            if cut < hi:
                cut = int(arr.searchsorted(arr[cut - 1], "right"))
            s, a = st[lo:cut], arr[lo:cut]
            u, v = srcs[lo:cut], tgts[lo:cut]
            while True:
                # Strict ``a < lab[v]`` means an edge fires at most once:
                # after the scatter-min its target label is <= a.
                fire = ((s >= lab[u]) & (a < lab[v])).nonzero()[0]
                if not len(fire):
                    break
                np.minimum.at(lab, v[fire], a[fire])
            lo = cut
        return lab, order, st, arr, srcs, tgts

    def foremost_parent_positions(self, src: int, t_alpha: float, t_omega: float):
        """Algorithm 1's tree edges, as insertion positions.

        Requires every duration to be positive.  ``src`` is the root's
        intern id.  Over the start slice ``[t_alpha, t_omega]``, an edge
        is *usable* when it departs no earlier than its source's
        earliest-arrival label and arrives by ``t_omega``.  The one-pass
        scan gives each reached vertex ``v`` as parent its first usable
        in-edge (start order) arriving at ``v``'s label, and inserts
        ``v`` where its first usable in-edge with a finite arrival is
        scanned; the result lists the parents in that insertion order.

        The usable edges are read off the sweep's own arrays: they are
        the swept edges that depart no earlier than their source's label
        (so no earlier than ``t_alpha``, and no later than their arrival,
        which is at most ``t_omega``), and the start ranks give their
        scan order.
        """
        lab, order, st, arr, srcs, tgts = self._arrival_sweep(src, t_alpha, t_omega)
        # The root is never relaxed, and an infinite arrival never
        # improves a label.
        usable = ((st >= lab[srcs]) & (arr < np.inf) & (tgts != src)).nonzero()[0]
        tgt, arr = tgts[usable], arr[usable]
        rank = self._start_rank[order[usable]]
        unseen = self.num_edges
        first = np.full(self.num_vertices, unseen, dtype=np.int64)
        np.minimum.at(first, tgt, rank)
        foremost = (arr == lab[tgt]).nonzero()[0]
        parent = np.full(self.num_vertices, unseen, dtype=np.int64)
        np.minimum.at(parent, tgt[foremost], rank[foremost])
        reached = (first < unseen).nonzero()[0]
        reached = reached[first[reached].argsort()]
        return self._start_order[parent[reached]]

    def values_at(self, name: str, positions) -> List[Any]:
        """The Python values of column ``name`` at insertion ``positions``."""
        kept = self._kept.get(name)
        if kept is None:
            values: List[Any] = getattr(self, name)[positions].tolist()
            return values
        return [kept[p] for p in positions.tolist()]

    def edges_at(self, positions) -> List[TemporalEdge]:
        """Build ``TemporalEdge`` objects for insertion positions.

        Labels are the interned label objects and values the edges'
        Python values.  Each call builds new objects; nothing is cached.
        :meth:`TemporalGraph.edges_at` reuses the graph's edge tuple
        instead when it has one.
        """
        labels = self.vertex_labels
        return edge_rows(
            zip(
                [labels[i] for i in self.sources[positions].tolist()],
                [labels[i] for i in self.targets[positions].tolist()],
                *(self.values_at(name, positions) for name in VALUE_COLUMNS),
            )
        )

    # ------------------------------------------------------------------
    # Stdlib column export (pickling)
    # ------------------------------------------------------------------
    def _export(self, name: str):
        """Column ``name`` as a shippable column that round-trips value *and* type.

        ``array('d')`` when the store-wide flag proves every value is a
        Python float; ``array('q')`` when every value is a Python int
        fitting int64 (reading an ``array('q')`` yields exact ints
        back, so int-timestamp datasets ship as 8 bytes per value too).
        Anything else (Fractions, big ints, mixtures) falls back to a
        tuple of the original objects -- the downstream byte-identity
        guarantees lean on this exactness.
        """
        kept = self._kept.get(name)
        if kept is None:
            return array("d", getattr(self, name).tobytes())
        if all(type(v) is int and -(2**63) <= v < 2**63 for v in kept):
            return array("q", kept)
        return tuple(kept)

    def export_columns(self) -> Dict[str, Any]:
        """The store's defining state as stdlib columns.

        Returns a dict of ``labels`` (interned vertex labels, intern-id
        order, including isolated extras) plus the five edge columns:
        ``sources``/``targets`` as ``array('q')`` of intern ids and
        ``starts``/``arrivals``/``weights`` as ``array('d')`` -- or
        tuples of the original Python values when the matching
        ``*_are_float`` flag is unset.  Only stdlib containers, so the
        payload format does not depend on the numpy version and rebuilds
        the identical graph (:meth:`TemporalGraph.from_columns`).
        """
        columns = {
            "labels": tuple(self.vertex_labels),
            "sources": array("q", self.sources.tobytes()),
            "targets": array("q", self.targets.tobytes()),
        }
        columns.update((name, self._export(name)) for name in VALUE_COLUMNS)
        return columns

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ColumnarEdgeStore(M={self.num_edges}, n={self.num_vertices})"
        )

