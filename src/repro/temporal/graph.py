"""The :class:`TemporalGraph` container and the paper's two input formats.

The paper's algorithms consume temporal graphs in two layouts:

* a **chronological edge list** -- all temporal edges sorted by
  non-decreasing start time (Algorithm 1's raw-stream input), and
* a **sorted adjacency edge list** -- per-vertex out-edge arrays sorted
  by *non-increasing* start time (Algorithm 2's input).

Both are produced lazily and cached; a graph is immutable once built.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import OrderedDict
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
)

import numpy as np

from repro.core.errors import GraphFormatError
from repro.core.numeric import EPSILON, is_zero
from repro.temporal.edge import TemporalEdge, Vertex

#: Tag marking the columnar ``__getstate__`` layout.  The legacy layout
#: is a 2-tuple whose first element is the edge *tuple*, so a string
#: tag in slot 0 is unambiguous and old pickles keep loading.
_COLUMNAR_STATE_TAG = "repro-columnar-v1"


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
        "_chronological_starts",
        "_zero_duration",
        "_arrival_sorted",
        "_adjacency_desc",
        "_adjacency_asc",
        "_starts_asc",
        "_in_edges",
        "_out_edges",
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
        self._edges: Tuple[TemporalEdge, ...] = tuple(edge_list)
        self._vertices: FrozenSet[Vertex] = frozenset(vertex_set)
        self._chronological: Optional[Tuple[TemporalEdge, ...]] = None
        self._chronological_starts: Optional[List[float]] = None
        self._zero_duration: Optional[bool] = None
        self._arrival_sorted: Optional[Tuple[TemporalEdge, ...]] = None
        self._adjacency_desc: Optional[Dict[Vertex, List[TemporalEdge]]] = None
        self._adjacency_asc: Optional[Dict[Vertex, List[TemporalEdge]]] = None
        self._starts_asc: Optional[Dict[Vertex, List[float]]] = None
        self._in_edges: Optional[Dict[Vertex, List[TemporalEdge]]] = None
        self._out_edges: Optional[Dict[Vertex, List[TemporalEdge]]] = None
        self._prepare_memo: Optional[OrderedDict[Any, Any]] = None
        self._columnar: Optional[Any] = None

    # ------------------------------------------------------------------
    # Derived-state lifetime
    # ------------------------------------------------------------------
    def columnar(self) -> Any:
        """The graph's :class:`repro.temporal.columnar.ColumnarEdgeStore`.

        Built lazily on first use, then kept for the graph's lifetime:
        every later call returns the same object, so state derived from
        the store may be cached per graph.
        """
        from repro.temporal.columnar import ColumnarEdgeStore

        store = self._columnar
        if store is None:
            store = ColumnarEdgeStore(self._edges, self._vertices)
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
        # Pickle only the defining state.  The lazy layout caches (the
        # chronological start keys and the zero-duration flag included)
        # and the prepare memo are per-process derived state; shipping
        # them (e.g. in a worker initializer payload) would multiply
        # the payload by the size of the closure matrices.
        #
        # When the columnar store is already built (any graph that has
        # been through a batch or sweep run), ship its stdlib column
        # export instead of the per-edge object tuple: a handful of
        # stdlib arrays pickles several times smaller and faster than
        # M ``TemporalEdge`` NamedTuples.
        store = self._columnar
        if store is not None:
            return (_COLUMNAR_STATE_TAG, store.export_columns())
        return (self._edges, self._vertices)

    def __setstate__(self, state: Tuple[Any, Any]) -> None:
        if state[0] == _COLUMNAR_STATE_TAG:
            from repro.temporal.columnar import edges_from_columns

            columns = state[1]
            # ``labels`` includes isolated vertices (the store interns
            # ``graph.vertices`` after the edge endpoints), so the
            # vertex set round-trips exactly.
            self._edges = tuple(edges_from_columns(columns))
            self._vertices = frozenset(columns["labels"])
        else:
            self._edges, self._vertices = state
        self._chronological = None
        self._chronological_starts = None
        self._zero_duration = None
        self._arrival_sorted = None
        self._adjacency_desc = None
        self._adjacency_asc = None
        self._starts_asc = None
        self._in_edges = None
        self._out_edges = None
        self._prepare_memo = None
        self._columnar = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def edges(self) -> Tuple[TemporalEdge, ...]:
        """All temporal edges in insertion order."""
        return self._edges

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
        return len(self._edges)

    def __len__(self) -> int:
        return len(self._edges)

    def __iter__(self) -> Iterator[TemporalEdge]:
        return iter(self._edges)

    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._vertices

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TemporalGraph(n={self.num_vertices}, M={self.num_edges})"
        )

    # ------------------------------------------------------------------
    # Input formats
    # ------------------------------------------------------------------
    def _float_time_store(self) -> Any:
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
            store = self._float_time_store()
            if store is not None:
                self._chronological = tuple(store.edges_at(store.positions_by_start()))
            else:
                self._chronological = tuple(
                    sorted(self._edges, key=lambda e: (e.start, e.arrival))
                )
        return self._chronological

    def chronological_slice(
        self, t_alpha: float, t_omega: float
    ) -> Tuple[TemporalEdge, ...]:
        """The chronological edges whose start lies in ``[t_alpha, t_omega]``.

        A contiguous run of :meth:`chronological_edges`, in the same
        order, located by bisecting the cached start keys:
        ``O(log M + output)``.
        """
        edges = self.chronological_edges()
        if self._chronological_starts is None:
            self._chronological_starts = [e.start for e in edges]
        starts = self._chronological_starts
        return edges[bisect_left(starts, t_alpha) : bisect_right(starts, t_omega)]

    def arrival_sorted_edges(self) -> Tuple[TemporalEdge, ...]:
        """Edges sorted by non-decreasing arrival time.

        Section 3 notes Algorithm 1 is also correct under this ordering
        (for non-zero durations); exposed so tests can exercise that
        claim.
        """
        if self._arrival_sorted is None:
            self._arrival_sorted = tuple(
                sorted(self._edges, key=lambda e: (e.arrival, e.start))
            )
        return self._arrival_sorted

    def sorted_adjacency(self) -> Dict[Vertex, List[TemporalEdge]]:
        """Out-edges per vertex sorted by non-increasing start time.

        This is the paper's "sorted adjacency edge list" format consumed
        by Algorithm 2.  Every vertex of ``V`` is present as a key (with
        an empty list when it has no out-edge).
        """
        if self._adjacency_desc is None:
            adjacency: Dict[Vertex, List[TemporalEdge]] = {
                v: [] for v in self._vertices
            }
            for edge in self._edges:
                adjacency[edge.source].append(edge)
            for out_list in adjacency.values():
                out_list.sort(key=lambda e: -e.start)
            self._adjacency_desc = adjacency
        return self._adjacency_desc

    def ascending_adjacency(self) -> Dict[Vertex, List[TemporalEdge]]:
        """Out-edges per vertex sorted by ascending start time.

        The layout every label-setting temporal-path sweep consumes
        (:mod:`repro.temporal.paths`); cached so repeated single-source
        queries -- root selection probes one sweep per candidate vertex
        -- stop rebuilding and re-sorting the adjacency per call.
        """
        if self._adjacency_asc is None:
            adjacency: Dict[Vertex, List[TemporalEdge]] = {
                v: [] for v in self._vertices
            }
            for edge in self._edges:
                adjacency[edge.source].append(edge)
            for out_list in adjacency.values():
                out_list.sort(key=lambda e: e.start)
            self._adjacency_asc = adjacency
        return self._adjacency_asc

    def ascending_starts(self) -> Dict[Vertex, List[float]]:
        """Per-vertex start times aligned with :meth:`ascending_adjacency`.

        Sweeps bisect this to find the first usable out-edge; cached for
        the same reason as the adjacency itself.
        """
        if self._starts_asc is None:
            self._starts_asc = {
                v: [e.start for e in edges]
                for v, edges in self.ascending_adjacency().items()
            }
        return self._starts_asc

    def out_edges(self, vertex: Vertex) -> List[TemporalEdge]:
        """``N_o(u)``: the out temporal edges incident to ``vertex``."""
        if self._out_edges is None:
            grouped: Dict[Vertex, List[TemporalEdge]] = {v: [] for v in self._vertices}
            for edge in self._edges:
                grouped[edge.source].append(edge)
            self._out_edges = grouped
        return self._out_edges.get(vertex, [])

    def in_edges(self, vertex: Vertex) -> List[TemporalEdge]:
        """``N_i(v)``: the in temporal edges incident to ``vertex``."""
        if self._in_edges is None:
            grouped: Dict[Vertex, List[TemporalEdge]] = {v: [] for v in self._vertices}
            for edge in self._edges:
                grouped[edge.target].append(edge)
            self._in_edges = grouped
        return self._in_edges.get(vertex, [])

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
        for edge in self._edges:
            key = edge.static_key()
            if key not in static or edge.weight < static[key]:
                static[key] = edge.weight
        return static

    def restricted(self, t_alpha: float, t_omega: float) -> "TemporalGraph":
        """The subgraph ``G[t_alpha, t_omega]`` of edges within the window.

        Only edges with ``start >= t_alpha`` and ``arrival <= t_omega``
        survive; vertices are recomputed from the surviving edges (the
        paper's G' extraction in Section 5.1).

        When the graph's columnar store is already built, the scan is
        answered from it in ``O(log M + output)`` (same edges, same
        insertion order); a one-shot call on a cold graph stays a plain
        ``O(M)`` pass rather than paying the store build.
        """
        store = self._columnar
        if store is not None:
            picked = store.window_positions_graph_order(t_alpha, t_omega)
            return TemporalGraph(store.edges_at(picked))
        return TemporalGraph(
            edge for edge in self._edges if edge.within(t_alpha, t_omega)
        )

    def with_durations(self, duration: float) -> "TemporalGraph":
        """A copy with every edge duration forced to ``duration``.

        The paper's Table 2 experiment sets all durations to 1 (as in
        Wu et al. [27]); Table 3 sets them to 0.  Arrival times become
        ``start + duration``.
        """
        if duration < 0:
            raise GraphFormatError("duration must be non-negative")
        return TemporalGraph(
            TemporalEdge(e.source, e.target, e.start, e.start + duration, e.weight)
            for e in self._edges
        )

    def with_weights(self, weights: Dict[Tuple[Vertex, Vertex], float]) -> "TemporalGraph":
        """A copy whose edge weights come from a static ``(u, v) -> w`` map.

        Used by the weight-cascade assignment of Section 5.1, where the
        weight depends only on the static endpoints.
        """
        missing = {
            e.static_key() for e in self._edges if e.static_key() not in weights
        }
        if missing:
            raise GraphFormatError(
                f"weight map missing {len(missing)} static edges, e.g. "
                f"{next(iter(missing))!r}"
            )
        return TemporalGraph(
            TemporalEdge(e.source, e.target, e.start, e.arrival, weights[e.static_key()])
            for e in self._edges
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
        if not self._edges:
            raise GraphFormatError("time_span of an empty temporal graph")
        t_a = min(e.start for e in self._edges)
        t_omega = max(e.arrival for e in self._edges)
        return t_a, t_omega

    def has_zero_duration_edge(self) -> bool:
        """Whether any edge has ``t_s(e) == t_a(e)`` (up to epsilon).

        Computed on first call and memoised: the graph is immutable.
        With float timestamps a built store's time columns answer it in
        one array pass.
        """
        if self._zero_duration is None:
            store = self._float_time_store()
            if store is not None:
                durations = store.arrivals - store.starts
                self._zero_duration = bool((np.abs(durations) <= EPSILON).any())
            else:
                self._zero_duration = any(is_zero(e.duration) for e in self._edges)
        return self._zero_duration

    def distinct_time_instances(self) -> int:
        """``|Gamma_G|``: the number of distinct timestamps in the graph."""
        instants: Set[float] = set()
        for edge in self._edges:
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
