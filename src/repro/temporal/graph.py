"""The :class:`TemporalGraph` container and the paper's two input formats.

The paper's algorithms consume temporal graphs in two layouts:

* a **chronological edge list** -- all temporal edges sorted by
  non-decreasing start time (Algorithm 1's raw-stream input), and
* a **sorted adjacency edge list** -- per-vertex out-edge arrays sorted
  by *non-increasing* start time (Algorithm 2's input).

The first is built lazily and cached; the second is the columnar
store's out-edge CSR, read backwards.  A graph is immutable once built.

A graph built from columns (:meth:`TemporalGraph.from_columns`: the
generators, the loaders and pickles) holds only its
:class:`~repro.temporal.columnar.ColumnarEdgeStore`.  It builds
``TemporalEdge`` objects for the edges an algorithm returns or walks
as objects (Algorithm 1's window slice, a restricted window, a tree's
edges) and the whole edge tuple only when something reads
:attr:`TemporalGraph.edges`; that tuple is then kept.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import repeat
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    cast,
)

import numpy as np

from repro.core.errors import GraphFormatError
from repro.core.numeric import EPSILON, is_zero
from repro.temporal.edge import TemporalEdge, Vertex, make_edge

#: Tag marking the columnar ``__getstate__`` layout.  The legacy layout
#: is a 2-tuple whose first element is the edge *tuple*, so a string
#: tag in slot 0 is unambiguous and old pickles keep loading.
_COLUMNAR_STATE_TAG = "repro-columnar-v1"

#: The columnar store's value columns, in edge-field order.
VALUE_COLUMNS = ("starts", "arrivals", "weights")


class TemporalGraph:
    """An immutable directed temporal multigraph ``G = (V, E)``.

    Parameters
    ----------
    edges:
        The temporal edges.  Duplicates (parallel edges with different
        timestamps) are expected and preserved; the paper's ``pi``
        statistic measures exactly that multiplicity.
    vertices:
        Optional extra vertices that carry no incident edge.  Endpoints
        of ``edges`` are always included.

    Raises
    ------
    GraphFormatError
        If any edge arrives before it starts or has negative weight.
    """

    __slots__ = (
        "_edges",
        "_vertices",
        "_chronological",
        "_zero_duration",
        "_arrival_sorted",
        "_prepare_memo",
        "_columnar",
        "__weakref__",
    )

    def __init__(
        self,
        edges: Iterable[TemporalEdge],
        vertices: Optional[Iterable[Vertex]] = None,
    ) -> None:
        edge_list: List[TemporalEdge] = []
        vertex_set: Set[Vertex] = set(vertices) if vertices is not None else set()
        for edge in edges:
            if not isinstance(edge, TemporalEdge):
                edge = TemporalEdge(*edge)
            if not edge.is_valid():
                raise GraphFormatError(
                    f"invalid temporal edge {edge!r}: requires arrival >= start "
                    "and weight >= 0"
                )
            edge_list.append(edge)
            vertex_set.add(edge.source)
            vertex_set.add(edge.target)
        self._edges: Optional[Tuple[TemporalEdge, ...]] = tuple(edge_list)
        self._vertices: FrozenSet[Vertex] = frozenset(vertex_set)
        self._reset_derived()

    @classmethod
    def from_columns(
        cls,
        sources: Sequence[Any],
        targets: Sequence[Any],
        starts: Sequence[Any],
        arrivals: Sequence[Any],
        weights: Sequence[Any],
        vertices: Optional[Iterable[Vertex]] = None,
        labels: Optional[Sequence[Vertex]] = None,
    ) -> "TemporalGraph":
        """The graph whose ``i``-th edge is row ``i`` of five columns.

        ``sources``/``targets`` hold vertex labels, or -- when
        ``labels`` is given -- integer indices into ``labels``.  The
        value columns hold the edges' Python values (numpy arrays are
        read back as Python floats/ints).  ``vertices`` adds isolated
        vertices, as in the constructor.

        The graph's :class:`~repro.temporal.columnar.ColumnarEdgeStore`
        is built from the columns and is all the graph holds: no
        ``TemporalEdge`` object exists until an algorithm reads one.
        Whole columns are validated at once (no NaN, ``arrival >=
        start``, ``weight >= 0``); the first bad row raises the
        :class:`GraphFormatError` :func:`make_edge` raises for it.
        """
        graph = cls.__new__(cls)
        graph._assign_columns(
            sources, targets, starts, arrivals, weights, vertices, labels
        )
        return graph

    def _assign_columns(
        self,
        sources: Sequence[Any],
        targets: Sequence[Any],
        starts: Sequence[Any],
        arrivals: Sequence[Any],
        weights: Sequence[Any],
        vertices: Optional[Iterable[Vertex]],
        labels: Optional[Sequence[Vertex]],
    ) -> None:
        from repro.temporal.columnar import ColumnarEdgeStore

        lengths = {len(c) for c in (sources, targets, starts, arrivals, weights)}
        if len(lengths) > 1:
            raise GraphFormatError(
                f"edge columns differ in length: {sorted(lengths)}"
            )
        extras = None if vertices is None else list(vertices)
        if labels is not None:
            _check_label_ids(labels, sources)
            _check_label_ids(labels, targets)
        store = ColumnarEdgeStore(
            sources, targets, starts, arrivals, weights, extras, labels
        )
        _check_rows(store)
        # The constructor's vertex set, built in its insertion order:
        # the extras, then the endpoints as the edges first meet them.
        vertex_set: Set[Vertex] = set(extras) if extras is not None else set()
        vertex_set.update(store.vertex_labels)
        self._edges = None
        self._vertices = frozenset(vertex_set)
        self._reset_derived()
        self._columnar = store

    def _reset_derived(self) -> None:
        self._chronological: Optional[Tuple[TemporalEdge, ...]] = None
        self._zero_duration: Optional[bool] = None
        self._arrival_sorted: Optional[Tuple[TemporalEdge, ...]] = None
        self._prepare_memo: Optional[OrderedDict[Any, Any]] = None
        self._columnar: Optional[Any] = None

    # ------------------------------------------------------------------
    # Derived-state lifetime
    # ------------------------------------------------------------------
    def columnar(self) -> Any:
        """The graph's :class:`repro.temporal.columnar.ColumnarEdgeStore`.

        Built with the graph by :meth:`from_columns`, else lazily from the
        edge objects on first use; then kept for the graph's lifetime:
        every later call returns the same object, so state derived from
        the store may be cached per graph.
        """
        from repro.temporal.columnar import ColumnarEdgeStore

        store = self._columnar
        if store is None:
            store = ColumnarEdgeStore.from_edges(self.edges, self._vertices)
            self._columnar = store
        return store

    def columnar_or_none(self) -> Any:
        """The cached store if one was already built (no build triggered)."""
        return self._columnar

    def prepare_memo(self) -> OrderedDict[Any, Any]:
        """The per-graph memo slot used by ``prepare_mstw_instance``.

        The memo lives *on* the graph rather than in a module-level
        weak-keyed map because memoised results (transformed graphs,
        prepared DST instances) reference the graph they describe: a
        value->key reference inside a ``WeakKeyDictionary`` pins the
        entry forever, while a graph->memo->graph cycle is ordinary
        garbage the collector reclaims once the graph is dropped.
        :mod:`repro.core.mstw` owns the contents and the locking.
        """
        if self._prepare_memo is None:
            self._prepare_memo = OrderedDict()
        return self._prepare_memo

    def __getstate__(self) -> Tuple[Any, Any]:
        # Pickle only the defining state: the store's stdlib column
        # export (building the store if the graph has none), which
        # pickles several times smaller and faster than M
        # ``TemporalEdge`` NamedTuples.  The edge tuple, the lazy
        # layout caches and the prepare memo are per-process derived
        # state; shipping them (e.g. in a worker initializer payload)
        # would multiply the payload by the size of the closure
        # matrices.
        return (_COLUMNAR_STATE_TAG, self.columnar().export_columns())

    def __setstate__(self, state: Tuple[Any, Any]) -> None:
        if state[0] == _COLUMNAR_STATE_TAG:
            columns = state[1]
            # ``labels`` includes isolated vertices (the store interns
            # ``graph.vertices`` after the edge endpoints), so the
            # vertex set and the store's intern ids round-trip exactly.
            self._assign_columns(
                columns["sources"],
                columns["targets"],
                columns["starts"],
                columns["arrivals"],
                columns["weights"],
                vertices=columns["labels"],
                labels=columns["labels"],
            )
        else:
            self._edges, self._vertices = state
            self._reset_derived()

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def edges(self) -> Tuple[TemporalEdge, ...]:
        """All temporal edges in insertion order.

        A column-built graph builds the tuple from its store on first
        read and keeps it.
        """
        edges = self._edges
        if edges is None:
            store = self._columnar
            edges = tuple(store.edges_at(np.arange(store.num_edges)))
            self._edges = edges
        return edges

    def edges_at(self, positions: Any) -> List[TemporalEdge]:
        """The edges at insertion ``positions`` (an int array), in that order.

        Indexes the edge tuple when the graph has one, else builds just
        these edges from the store's columns.
        """
        edges = self._edges
        if edges is None:
            return cast(List[TemporalEdge], self._columnar.edges_at(positions))
        return [edges[p] for p in positions.tolist()]

    @property
    def vertices(self) -> FrozenSet[Vertex]:
        """The vertex set ``V`` (including isolated vertices)."""
        return self._vertices

    @property
    def num_vertices(self) -> int:
        """``n = |V|``."""
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        """``M = |E|`` counting parallel temporal edges."""
        return len(self)

    def __len__(self) -> int:
        edges = self._edges
        return int(self._columnar.num_edges) if edges is None else len(edges)

    def __iter__(self) -> Iterator[TemporalEdge]:
        return iter(self.edges)

    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._vertices

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TemporalGraph(n={self.num_vertices}, M={self.num_edges})"
        )

    # ------------------------------------------------------------------
    # Input formats
    # ------------------------------------------------------------------
    def float_time_store(self) -> Any:
        """The built columnar store, if its time columns are exact.

        Exact means every start and arrival is a Python float; for other
        timestamp types (ints, fractions) the float64 columns may round.
        Callers fall back to the edge objects when this is None, which
        includes graphs that never built a store (no build is
        triggered here).
        """
        store = self._columnar
        if store is not None and store.starts_are_float and store.arrivals_are_float:
            return store
        return None

    def chronological_edges(self) -> Tuple[TemporalEdge, ...]:
        """Edges sorted by non-decreasing start time (Algorithm 1 input).

        Ties are ordered by arrival, then insertion position: the built
        store's start order for float timestamps, otherwise a stable
        sort of the edge objects by ``(start, arrival)``.
        """
        if self._chronological is None:
            store = self.float_time_store()
            if store is not None:
                edges = self.edges
                self._chronological = tuple(
                    map(edges.__getitem__, store.positions_by_start().tolist())
                )
            else:
                self._chronological = tuple(
                    sorted(self.edges, key=lambda e: (e.start, e.arrival))
                )
        return self._chronological

    def chronological_slice(
        self, t_alpha: float, t_omega: float
    ) -> Tuple[TemporalEdge, ...]:
        """The chronological edges whose start lies in ``[t_alpha, t_omega]``.

        A contiguous run of :meth:`chronological_edges`, in the same
        order: ``O(log M + output)``.  With float timestamps the run is
        located in the store's start order and only its edges are
        built; otherwise the cached chronological edges are bisected.
        """
        store = self.float_time_store()
        if store is not None:
            lo, hi = store.start_bounds(t_alpha, t_omega)
            return tuple(self.edges_at(store.positions_by_start()[lo:hi]))
        edges = self.chronological_edges()
        lo = _start_bisect(edges, t_alpha, right=False)
        return edges[lo : _start_bisect(edges, t_omega, right=True)]

    def arrival_sorted_edges(self) -> Tuple[TemporalEdge, ...]:
        """Edges sorted by non-decreasing arrival time.

        Section 3 notes Algorithm 1 is also correct under this ordering
        (for non-zero durations); exposed so tests can exercise that
        claim.
        """
        if self._arrival_sorted is None:
            self._arrival_sorted = tuple(
                sorted(self.edges, key=lambda e: (e.arrival, e.start))
            )
        return self._arrival_sorted

    def out_edges(self, vertex: Vertex) -> List[TemporalEdge]:
        """``N_o(u)``: the out temporal edges of ``vertex``, in insertion order."""
        return self._incident(vertex, self.columnar().out_adjacency())

    def in_edges(self, vertex: Vertex) -> List[TemporalEdge]:
        """``N_i(v)``: the in temporal edges of ``vertex``, in insertion order."""
        return self._incident(vertex, self.columnar().in_adjacency())

    def _incident(self, vertex: Vertex, adjacency: Any) -> List[TemporalEdge]:
        """A new list of the edges in ``vertex``'s run of a store CSR."""
        v = self.columnar().vertex_ids.get(vertex)
        if v is None:
            return []
        offsets, positions, _ = adjacency
        return self.edges_at(np.sort(positions[offsets[v] : offsets[v + 1]]))

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def static_edges(self) -> Dict[Tuple[Vertex, Vertex], float]:
        """The static projection ``G_S``: distinct ``(u, v)`` pairs.

        The returned mapping carries, for each static edge, the minimum
        weight over its parallel temporal edges (a natural choice when a
        single static weight is needed; the paper only uses ``|E_S|``).
        """
        static: Dict[Tuple[Vertex, Vertex], float] = {}
        for edge in self.edges:
            key = edge.static_key()
            if key not in static or edge.weight < static[key]:
                static[key] = edge.weight
        return static

    def restricted(self, t_alpha: float, t_omega: float) -> "TemporalGraph":
        """The subgraph ``G[t_alpha, t_omega]`` of edges within the window.

        Only edges with ``start >= t_alpha`` and ``arrival <= t_omega``
        survive; vertices are recomputed from the surviving edges (the
        paper's G' extraction in Section 5.1).

        When the graph's columnar store is already built, the window is
        found in it in ``O(log M + output)`` and the subgraph is built
        from the window's columns (same edges, same insertion order); a
        one-shot call on a cold graph stays a plain ``O(M)`` pass rather
        than paying the store build.
        """
        store = self._columnar
        if store is None:
            return TemporalGraph(
                edge for edge in self.edges if edge.within(t_alpha, t_omega)
            )
        picked = store.window_positions_graph_order(t_alpha, t_omega)
        return TemporalGraph.from_columns(
            store.sources[picked],
            store.targets[picked],
            *(store.values_at(name, picked) for name in VALUE_COLUMNS),
            labels=store.vertex_labels,
        )

    def with_durations(self, duration: float) -> "TemporalGraph":
        """A copy with every edge duration forced to ``duration``.

        The paper's Table 2 experiment sets all durations to 1 (as in
        Wu et al. [27]); Table 3 sets them to 0.  Arrival times become
        ``start + duration``.

        The copy keeps only the vertices some edge touches: isolated
        vertices are dropped, as they always have been.  Keeping them
        would change dataset sizes, so it is left for its own change.
        """
        if duration < 0:
            raise GraphFormatError("duration must be non-negative")
        store = self.columnar()
        starts = store.value_column("starts")
        if store.starts_are_float and type(duration) in (int, float):
            # float64 addition is Python float addition, value for value.
            arrivals: Sequence[Any] = starts + duration
        else:
            arrivals = [s + duration for s in starts]
        return TemporalGraph.from_columns(
            store.sources,
            store.targets,
            starts,
            arrivals,
            store.value_column("weights"),
            labels=store.vertex_labels,
        )

    def with_weights(self, weights: Dict[Tuple[Vertex, Vertex], float]) -> "TemporalGraph":
        """A copy whose edge weights come from a static ``(u, v) -> w`` map.

        Used by the weight-cascade assignment of Section 5.1, where the
        weight depends only on the static endpoints.  The map is read
        once per distinct ``(u, v)`` pair of the store's id columns.

        The copy keeps only the vertices some edge touches: isolated
        vertices are dropped (weighted epinions at scale 25 has 19,999
        of its generator's 20,000), as they always have been.  Keeping
        them would change dataset sizes, so it is left for its own
        change.
        """
        store = self.columnar()
        n = store.num_vertices
        pairs, inverse = np.unique(
            store.sources * n + store.targets, return_inverse=True
        )
        labels = store.vertex_labels
        keys = [(labels[k // n], labels[k % n]) for k in pairs.tolist()]
        missing = [key for key in keys if key not in weights]
        if missing:
            raise GraphFormatError(
                f"weight map missing {len(missing)} static edges, e.g. "
                f"{missing[0]!r}"
            )
        values = [weights[key] for key in keys]
        # float64 holds Python floats exactly; any other type is kept.
        exact = set(map(type, values)) <= {float}
        per_pair = np.array(values, dtype=np.float64 if exact else object)
        return self.with_weight_column(per_pair[inverse.reshape(-1)])

    def with_weight_column(self, weights: Sequence[float]) -> "TemporalGraph":
        """A copy whose ``i``-th edge weighs ``weights[i]``.

        Built from the store's columns with only the weight column
        replaced.  Isolated vertices are dropped, as in
        :meth:`with_weights`.
        """
        store = self.columnar()
        return TemporalGraph.from_columns(
            store.sources,
            store.targets,
            store.value_column("starts"),
            store.value_column("arrivals"),
            weights,
            labels=store.vertex_labels,
        )

    # ------------------------------------------------------------------
    # Time span helpers
    # ------------------------------------------------------------------
    def time_span(self) -> Tuple[float, float]:
        """``[t_A, t_Omega]``: the smallest window containing every edge.

        Raises
        ------
        GraphFormatError
            If the graph has no edges.
        """
        if not len(self):
            raise GraphFormatError("time_span of an empty temporal graph")
        store = self.float_time_store()
        if store is not None:
            # The first start of the start order, the last arrival of
            # the arrival order.
            return float(store.sorted_starts()[0]), float(store.sorted_arrivals()[-1])
        t_a = min(e.start for e in self.edges)
        t_omega = max(e.arrival for e in self.edges)
        return t_a, t_omega

    def has_zero_duration_edge(self) -> bool:
        """Whether any edge has ``t_s(e) == t_a(e)`` (up to epsilon).

        Computed on first call and memoised: the graph is immutable.
        With float timestamps a built store's time columns answer it in
        one array pass.
        """
        if self._zero_duration is None:
            store = self.float_time_store()
            if store is not None:
                durations = store.arrivals - store.starts
                self._zero_duration = bool((np.abs(durations) <= EPSILON).any())
            else:
                self._zero_duration = any(is_zero(e.duration) for e in self.edges)
        return self._zero_duration

    def distinct_time_instances(self) -> int:
        """``|Gamma_G|``: the number of distinct timestamps in the graph."""
        store = self.float_time_store()
        if store is not None:
            from repro.temporal.columnar import sorted_distinct

            return len(sorted_distinct(np.concatenate((store.starts, store.arrivals))))
        instants: Set[float] = set()
        for edge in self.edges:
            instants.add(edge.start)
            instants.add(edge.arrival)
        return len(instants)


def from_quintuples(
    rows: Sequence[Tuple[Any, ...]],
    vertices: Optional[Iterable[Vertex]] = None,
) -> TemporalGraph:
    """Build a :class:`TemporalGraph` from raw ``(u, v, t_u, t̂_v[, w])`` rows."""
    edges: List[TemporalEdge] = []
    for row in rows:
        if len(row) == 4:
            edges.append(TemporalEdge(row[0], row[1], row[2], row[3], 1.0))
        elif len(row) == 5:
            edges.append(TemporalEdge(*row))
        else:
            raise GraphFormatError(
                f"expected 4- or 5-tuples, got row of length {len(row)}: {row!r}"
            )
    return TemporalGraph(edges, vertices=vertices)


def edge_rows(rows: Iterable[Tuple[Any, ...]]) -> List[TemporalEdge]:
    """One ``TemporalEdge`` per already-validated ``(u, v, t_u, t_v, w)`` row.

    ``tuple.__new__`` skips the NamedTuple's Python-level ``__new__``
    frame per edge.  Only for rows whose graph validated them (a
    store's columns): everything else goes through :func:`make_edge`.
    """
    edges = list(map(tuple.__new__, repeat(TemporalEdge), rows))
    return cast("List[TemporalEdge]", edges)


def _start_bisect(edges: Sequence[TemporalEdge], t: Any, right: bool) -> int:
    """``bisect_left`` (``bisect_right`` if ``right``) of ``t`` by edge start."""
    lo, hi = 0, len(edges)
    while lo < hi:
        mid = (lo + hi) // 2
        start = edges[mid].start
        if start < t or (right and start == t):
            lo = mid + 1
        else:
            hi = mid
    return lo


def _check_label_ids(labels: Sequence[Vertex], ids: Sequence[Any]) -> None:
    """Range-check an id column against its label table."""
    column = np.asarray(ids, dtype=np.int64)
    if len(column) and (int(column.min()) < 0 or int(column.max()) >= len(labels)):
        raise GraphFormatError(
            f"vertex index out of range for {len(labels)} labels: "
            f"[{int(column.min())}, {int(column.max())}]"
        )


def _check_rows(store: Any) -> None:
    """Validate a store's value columns; raise for the first bad row.

    All-float columns are checked in one vectorised pass.  Other value
    types (ints, fractions) are compared as Python values, row by row,
    since float64 may round them.  Either way the first bad row goes
    through :func:`make_edge`, which raises its exact message.
    """
    if store.starts_are_float and store.arrivals_are_float and store.weights_are_float:
        s, a, w = store.starts, store.arrivals, store.weights
        bad = np.isnan(s) | np.isnan(a) | np.isnan(w) | (a < s) | (w < 0)
        rows = np.flatnonzero(bad)[:1]
    else:
        rows = np.arange(store.num_edges)
    for edge in store.edges_at(rows):
        make_edge(*edge)
