"""Section 4.2: transforming a temporal graph into a static DST instance.

For every vertex ``v`` of the temporal graph, the transformed graph 𝔾
contains one *virtual* vertex per distinct arrival time instance of
``v`` plus one *dummy* vertex; zero-weight virtual edges chain the
copies in time order and end at the dummy, while each temporal edge
``(u, v, t_u, t̂_v, w)`` becomes a *solid* edge of weight ``w`` from the
latest copy of ``u`` whose time instance is ``<= t_u`` to the copy of
``v`` at time ``t̂_v``.  The root contributes a single copy at time
``t_alpha`` and no dummy.  𝔾 has ``O(|E|)`` vertices and edges
(Lemma 2), and a minimum DST in 𝔾 with the dummies as terminals yields
a ``MST_w`` of the temporal graph (Theorem 5).
"""

from __future__ import annotations

import gc
import weakref
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from itertools import repeat
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import UnreachableRootError
from repro.static.digraph import StaticDigraph
from repro.steiner.instance import DSTInstance
from repro.temporal.edge import TemporalEdge, Vertex
from repro.temporal.graph import TemporalGraph
from repro.temporal.window import TimeWindow


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Pause the cyclic GC across a bulk allocation burst.

    The batched construction allocates hundreds of thousands of small
    tuples and lists that all survive into the returned graph, so every
    generational collection triggered on the way re-scans a large live
    heap to find nothing; temporaries are still reclaimed by reference
    counting.  On the way out a single young-generation collection
    drains the burst, so the deferred threshold trigger cannot escalate
    into a full-heap scan right after the guard.  No-op when the caller
    already disabled the GC.
    """
    if gc.isenabled():
        gc.disable()
        try:
            yield
        finally:
            gc.collect(0)
            gc.enable()
    else:
        yield


def copy_label(vertex: Vertex, position: int) -> Tuple[str, Vertex, int]:
    """The label of ``vertex``'s ``position``-th virtual copy in 𝔾."""
    return ("copy", vertex, position)


def dummy_label(vertex: Vertex) -> Tuple[str, Vertex]:
    """The label of ``vertex``'s dummy (terminal) vertex in 𝔾."""
    return ("dummy", vertex)


class TransformedGraph:
    """The static expansion 𝔾 of a temporal graph.

    Attributes
    ----------
    digraph:
        The expanded static multigraph (virtual + solid edges).
    root_label:
        The label of the root's single copy.
    arrival_instances:
        Per original vertex, the sorted distinct arrival times that
        index its virtual copies.
    solid_origin:
        Maps ``(source_label, target_label, weight)`` of a solid edge to
        a representative original temporal edge (used by postprocessing
        Step 2 to restore temporal edges).  Postprocessing only looks up
        the few solid edges that end up in the Steiner tree, so the
        columnar construction hands over flat index arrays and the dict
        is materialised on first access.
    """

    __slots__ = (
        "source",
        "window",
        "root",
        "digraph",
        "root_label",
        "arrival_instances",
        "_solid_origin",
        "_solid_parts",
        "skipped_edges",
    )

    def __init__(
        self,
        source: TemporalGraph,
        window: TimeWindow,
        root: Vertex,
        digraph: StaticDigraph,
        root_label: Tuple,
        arrival_instances: Dict[Vertex, List[float]],
        solid_origin: Optional[Dict[Tuple, TemporalEdge]],
        skipped_edges: int,
        solid_parts: Optional[Tuple] = None,
    ) -> None:
        self.source = source
        self.window = window
        self.root = root
        self.digraph = digraph
        self.root_label = root_label
        self.arrival_instances = arrival_instances
        self._solid_origin = solid_origin
        self._solid_parts = solid_parts
        self.skipped_edges = skipped_edges

    @property
    def solid_origin(self) -> Dict[Tuple, TemporalEdge]:
        """``(source_label, target_label, weight) -> representative edge``."""
        origin = self._solid_origin
        if origin is None:
            ins, rep, us, vs, labels_list, edges_tup = self._solid_parts
            origin = {}
            for p, rp, u, v in zip(ins, rep, us, vs):
                origin[
                    (labels_list[u], labels_list[v], edges_tup[p].weight)
                ] = edges_tup[rp]
            self._solid_origin = origin
            self._solid_parts = None
        return origin

    @property
    def num_vertices(self) -> int:
        """``|V(𝔾)|`` (Table 4's size column)."""
        return self.digraph.num_vertices

    @property
    def num_edges(self) -> int:
        """``|E(𝔾)|`` (Table 4's size column)."""
        return self.digraph.num_edges

    def dummies(self) -> List[Tuple]:
        """Dummy labels of every non-root original vertex."""
        return [dummy_label(v) for v in self.source.vertices if v != self.root]

    def dst_instance(self, terminals: Optional[Sequence[Vertex]] = None) -> DSTInstance:
        """The DST problem on 𝔾 (Theorem 5): root copy -> dummy terminals.

        Parameters
        ----------
        terminals:
            Original vertices whose dummies form the terminal set.
            Defaults to every non-root vertex that has at least one
            virtual copy (i.e. at least one in-window incoming edge);
            restrict to the reachable set ``V_r`` for general windows.
        """
        if terminals is None:
            chosen = [
                v
                for v in self.source.vertices
                if v != self.root and self.arrival_instances.get(v)
            ]
        else:
            chosen = [v for v in terminals if v != self.root]
        labels = tuple(dummy_label(v) for v in chosen)
        return DSTInstance(self.digraph, self.root_label, labels)

    def original_edge(self, source_label: Tuple, target_label: Tuple, weight: float):
        """The temporal edge behind a solid 𝔾 edge (None for virtual edges)."""
        return self.solid_origin.get((source_label, target_label, weight))


class _ColumnarAux:
    """Array-side view of a window index (numpy-backed stores only).

    Everything the batched transformation needs beyond the object-level
    ``in_window``/``arrivals_by_target`` views: the in-window columns in
    graph order, and the deduplicated ``(target id, arrival)`` instance
    pairs grouped per target (``pair_off`` is the CSR-style offset
    array over vertex ids).
    """

    __slots__ = (
        "store",
        "pos",
        "src",
        "tgt",
        "starts",
        "arrivals",
        "weights",
        "pair_t",
        "pair_a",
        "pair_off",
        "targets_order",
    )

    def __init__(self, **fields: Any) -> None:
        for name, value in fields.items():
            setattr(self, name, value)


class _WindowIndex:
    """Root-independent precomputation for one ``(graph, window)`` pair.

    Holds the in-window edge list and, per target vertex, the sorted
    distinct arrival instances (self-loops excluded).  Both are exactly
    what Step 1(a) rebuilds on every transformation query; with the
    index cached, repeated queries -- different roots over the same
    window, or bench/experiment replays -- skip the full edge scan and
    the per-vertex sort.

    Built from the graph's columnar store: extraction is a batched
    window query, and the per-target instance grouping is array work
    whose intermediate columns are kept (``_aux``) for
    :func:`_transform_columnar`.  Arrival *values* are
    always taken from the edge objects, never from the float64 columns,
    so int-valued timestamps survive exactly as the object scan keeps
    them.
    """

    __slots__ = ("_in_window", "arrivals_by_target", "_aux")

    def __init__(self, graph: TemporalGraph, window: TimeWindow) -> None:
        self._build_columnar(graph.columnar(), window)

    @property
    def in_window(self) -> Tuple[TemporalEdge, ...]:
        """The in-window edge tuple, graph insertion order.

        Materialised lazily on the columnar path: the batched
        transformation works from the array columns and never touches
        the edge objects in bulk, so the tuple is only built when a
        consumer (containment derivation, the object-loop fallback)
        actually asks for it.
        """
        cached = self._in_window
        if cached is None:
            aux = self._aux
            edges_tup = aux.store.edges
            cached = tuple(edges_tup[p] for p in aux.pos.tolist())
            self._in_window = cached
        return cached

    @classmethod
    def from_edges(cls, in_window: Tuple[TemporalEdge, ...]) -> "_WindowIndex":
        """An index over an already-filtered in-window edge tuple.

        Used by containment derivation: for ``W`` contained in a cached
        ``W'``, filtering ``W'``'s (already reduced) tuple by
        ``within(W)`` yields exactly the tuple a full-graph scan would,
        in the same order, so the resulting index is identical.
        """
        index = cls.__new__(cls)
        index._build(in_window)
        return index

    def _build(self, in_window: Tuple[TemporalEdge, ...]) -> None:
        self._in_window = in_window
        self._aux = None
        # Insertion order matches the first occurrence of each target in
        # the in-window scan, so per-root views preserve the exact
        # vertex-numbering order of an uncached construction.
        grouped: Dict[Vertex, List[float]] = {}
        for edge in self.in_window:
            if edge.source == edge.target:
                continue
            grouped.setdefault(edge.target, []).append(edge.arrival)
        self.arrivals_by_target: Dict[Vertex, List[float]] = {
            v: sorted(set(instants)) for v, instants in grouped.items()
        }

    def _build_columnar(self, store: Any, window: TimeWindow) -> None:
        pos = store.window_positions_graph_order(window.t_alpha, window.t_omega)
        edges_tup = store.edges
        self._in_window = None
        src = store.sources[pos]
        tgt = store.targets[pos]
        starts = store.starts[pos]
        arrivals = store.arrivals[pos]
        weights = store.weights[pos]
        # Distinct (target, arrival) instance pairs, self-loops excluded.
        # The stable (target, arrival) sort keeps graph order within
        # ties, so each pair's representative position is the first
        # in-window edge that realises it -- the element a Python
        # ``set`` would have kept, which pins down the exact int/float
        # arrival value.
        keep = src != tgt
        kt, ka, kp = tgt[keep], arrivals[keep], pos[keep]
        order = np.lexsort((ka, kt))
        ts, As, ps = kt[order], ka[order], kp[order]
        if len(ts):
            new_pair = np.empty(len(ts), dtype=bool)
            new_pair[0] = True
            new_pair[1:] = (ts[1:] != ts[:-1]) | (As[1:] != As[:-1])
        else:
            new_pair = np.empty(0, dtype=bool)
        pair_t = ts[new_pair]
        pair_a = As[new_pair]
        pair_rep = ps[new_pair]
        n = store.num_vertices
        pair_off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(pair_t, minlength=n), out=pair_off[1:])
        # Targets in first-occurrence order (the vertex-numbering order
        # an object scan produces).
        uniq, first_idx = np.unique(kt, return_index=True)
        targets_order = uniq[np.argsort(first_idx)]
        labels = store.vertex_labels
        # One flat pass pulls every instance's exact Python arrival
        # value; the per-target lists are then C-speed slices of it.
        # When the store's float64 column is exact (all-float arrival
        # times), the values come straight off the column.
        if store.arrivals_are_float:
            instance_values = pair_a.tolist()
        else:
            instance_values = [edges_tup[p].arrival for p in pair_rep.tolist()]
        off_list = pair_off.tolist()
        arrivals_by_target: Dict[Vertex, List[float]] = {}
        for t in targets_order.tolist():
            arrivals_by_target[labels[t]] = instance_values[
                off_list[t] : off_list[t + 1]
            ]
        self.arrivals_by_target = arrivals_by_target
        self._aux = _ColumnarAux(
            store=store,
            pos=pos,
            src=src,
            tgt=tgt,
            starts=starts,
            arrivals=arrivals,
            weights=weights,
            pair_t=pair_t,
            pair_a=pair_a,
            pair_off=pair_off,
            targets_order=targets_order,
        )


#: graph -> window -> index; entries die with their graph (weak keys).
_WINDOW_INDEX_CACHE: "weakref.WeakKeyDictionary[TemporalGraph, Dict[TimeWindow, _WindowIndex]]" = (
    weakref.WeakKeyDictionary()
)

#: Per-process hit/miss/containment counters, exposed for tests and the
#: perf harness.  ``containment`` counts window indices *derived* from a
#: cached containing window instead of scanned from the full graph;
#: ``delta_derived`` counts misses served from a graph's shared
#: :class:`repro.temporal.TemporalEdgeIndex` (binary search) instead of
#: a full ``O(M)`` edge scan.
_CACHE_STATS = {"hits": 0, "misses": 0, "containment": 0, "delta_derived": 0}


def _containing_index(
    per_graph: Dict[TimeWindow, _WindowIndex], window: TimeWindow
) -> Optional[_WindowIndex]:
    """The tightest cached index whose window contains ``window``.

    Ties break on ``(length, t_alpha, t_omega)``, making the choice a
    pure function of the cache contents rather than insertion order
    (which derivation path is taken never affects the result -- both
    are exact -- but determinism keeps the counters reproducible).
    """
    best: Optional[_WindowIndex] = None
    best_key: Optional[Tuple[float, float, float]] = None
    for cached, index in per_graph.items():
        if cached.t_alpha <= window.t_alpha and window.t_omega <= cached.t_omega:
            key = (cached.length, cached.t_alpha, cached.t_omega)
            if best_key is None or key < best_key:
                best = index
                best_key = key
    return best


def _window_index(graph: TemporalGraph, window: TimeWindow) -> _WindowIndex:
    per_graph = _WINDOW_INDEX_CACHE.get(graph)
    if per_graph is None:
        per_graph = {}
        _WINDOW_INDEX_CACHE[graph] = per_graph
    index = per_graph.get(window)
    if index is not None:
        _CACHE_STATS["hits"] += 1
        return index
    container = _containing_index(per_graph, window)
    if container is not None:
        # Sweep shapes nest windows: derive the contained index by
        # filtering the container's edge tuple (exact; see from_edges)
        # instead of rescanning the full graph.
        _CACHE_STATS["containment"] += 1
        index = _WindowIndex.from_edges(
            tuple(
                e
                for e in container.in_window
                if e.within(window.t_alpha, window.t_omega)
            )
        )
    else:
        # A shared sorted-edge index (built by sliding workloads) can
        # serve the miss in O(log M + output) -- edges_in_graph_order
        # returns exactly the tuple the full scan would, in the same
        # order, so the resulting window index is identical.  Only an
        # *existing* index is consulted (create=False): one-shot
        # queries should not pay the O(M log M) index build.
        from repro.temporal.index import edge_index_for

        sorted_index = edge_index_for(graph, create=False)
        if sorted_index is not None:
            _CACHE_STATS["delta_derived"] += 1
            index = _WindowIndex.from_edges(sorted_index.edges_in_graph_order(window))
        else:
            _CACHE_STATS["misses"] += 1
            index = _WindowIndex(graph, window)
    per_graph[window] = index
    return index


def transformation_cache_info() -> Dict[str, int]:
    """Counters of the window-index cache (process lifetime).

    ``hits`` are exact-window reuses, ``misses`` full-graph scans,
    ``containment`` indices derived by filtering a cached containing
    window, and ``delta_derived`` misses served by the graph's shared
    sorted-edge index.  Returns a copy; the counters are per-process.
    """
    return dict(_CACHE_STATS)


def clear_transformation_cache() -> None:
    """Drop every cached window index and reset the counters."""
    _WINDOW_INDEX_CACHE.clear()
    _CACHE_STATS["hits"] = 0
    _CACHE_STATS["misses"] = 0
    _CACHE_STATS["containment"] = 0
    _CACHE_STATS["delta_derived"] = 0


def _grouped_rank(
    pair_t: Any,
    pair_a: Any,
    pair_off: Any,
    query_t: Any,
    query_a: Any,
    right: bool,
) -> Any:
    """Batched per-group ``bisect`` over the instance pairs.

    For every query ``(t, a)`` returns the rank of ``a`` within target
    ``t``'s sorted instance list: ``bisect_right`` semantics when
    ``right`` (ties count), else ``bisect_left``.  One merged lexsort
    replaces a Python bisect per edge -- pairs and queries are sorted
    together by ``(t, a, flag)`` with the flag ordering ties, and a
    running pair count minus the group's CSR offset is exactly the
    in-group rank.
    """
    num_pairs = len(pair_t)
    num_queries = len(query_t)
    pair_flag = 0 if right else 1
    flags = np.empty(num_pairs + num_queries, dtype=np.int8)
    flags[:num_pairs] = pair_flag
    flags[num_pairs:] = 1 - pair_flag
    order = np.lexsort(
        (
            flags,
            np.concatenate((pair_a, query_a)),
            np.concatenate((pair_t, query_t)),
        )
    )
    position = np.empty(num_pairs + num_queries, dtype=np.int64)
    position[order] = np.arange(num_pairs + num_queries, dtype=np.int64)
    pairs_before = np.cumsum(flags[order] == pair_flag)
    return pairs_before[position[num_pairs:]] - pair_off[query_t]


def _transform_columnar(
    graph: TemporalGraph,
    root: Vertex,
    window: TimeWindow,
    index: _WindowIndex,
) -> TransformedGraph:
    """Batched Section 4.2 construction over the window index's arrays.

    Produces output byte-identical to the object loop in
    :func:`transform_temporal_graph` (property-tested): the same vertex
    numbering, the same adjacency-list edge order, the same Python
    int/float time and weight values, the same skip count, and the same
    earliest-start duplicate representatives.
    """
    aux = index._aux
    store = aux.store
    edges_tup = store.edges
    labels_by_id = store.vertex_labels
    root_id = store.vertex_ids[root]
    pair_off = aux.pair_off
    src, tgt = aux.src, aux.tgt
    num_window_edges = len(src)

    # Vertex blocks: per non-root target, its copies then its dummy;
    # the root's single copy sits at index 0.  Matches the object
    # loop's add_vertex order exactly.
    targets_order = aux.targets_order
    nonroot = targets_order[targets_order != root_id]
    copies = pair_off[nonroot + 1] - pair_off[nonroot]
    offsets = np.concatenate(
        (
            np.ones(1, dtype=np.int64),
            1 + np.cumsum(copies + 1),
        )
    )
    off_by_id = np.full(store.num_vertices, -1, dtype=np.int64)
    off_by_id[nonroot] = offsets[:-1]

    root_label = copy_label(root, 0)
    total = int(offsets[-1])
    # ``chain`` marks the slots with an outgoing zero-weight link --
    # exactly the copy slots; the root (slot 0) and the dummies end
    # their blocks.
    chain = np.ones(total, dtype=bool)
    chain[0] = False
    dummy_slots = offsets[:-1] + copies
    chain[dummy_slots] = False

    # Vertex labels, laid out in bulk: the ("copy", v, i) and
    # ("dummy", v) tuples are zipped at C speed and scattered into
    # their slots through an object array.
    num_copy = int(copies.sum())
    cum = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(copies)))
    slot_labels = np.empty(total, dtype=object)
    slot_labels[0] = root_label
    if num_copy:
        copy_i = np.arange(num_copy, dtype=np.int64) - np.repeat(cum[:-1], copies)
        copy_v = map(
            labels_by_id.__getitem__, np.repeat(nonroot, copies).tolist()
        )
        copy_tuples = np.empty(num_copy, dtype=object)
        copy_tuples[:] = list(zip(repeat("copy"), copy_v, copy_i.tolist()))
        slot_labels[np.flatnonzero(chain)] = copy_tuples
    if len(nonroot):
        dummy_v = map(labels_by_id.__getitem__, nonroot.tolist())
        dummy_tuples = np.empty(len(nonroot), dtype=object)
        dummy_tuples[:] = list(zip(repeat("dummy"), dummy_v))
        slot_labels[dummy_slots] = dummy_tuples
    labels_list: List[Tuple] = slot_labels.tolist()

    arrival_instances: Dict[Vertex, List[float]] = {
        v: instants
        for v, instants in index.arrivals_by_target.items()
        if v != root
    }
    arrival_instances[root] = [window.t_alpha]

    # Step 1(b) + 2(a): the zero-weight chains.  Every non-dummy,
    # non-root slot has a virtual edge to the next slot of its block
    # (the last one reaching the dummy), so the per-vertex adjacency
    # lists can be laid out directly: one outgoing chain link where
    # ``chain`` is set, one incoming link on the following slot.
    # Virtual edges precede solid edges in every list, exactly as the
    # object loop's add_edge sequence orders them.
    zero = 0.0
    # Lay the chain out as if every slot i had the link i -> i+1 (pure
    # C-speed map/zip), then blank the few slots that do not (the root
    # and the dummies) -- far cheaper than a conditional per slot.
    adjacency: List[List[Tuple[int, float]]] = list(
        map(list, zip(zip(range(1, total + 1), repeat(zero))))
    )
    in_tail: List[List[Tuple[int, float]]] = list(
        map(list, zip(zip(range(total - 1), repeat(zero))))
    )
    unlinked = np.flatnonzero(~chain).tolist()
    last = total - 1
    for i in unlinked:
        adjacency[i] = []
        if i < last:
            in_tail[i] = []
    in_adjacency: List[List[Tuple[int, float]]] = [[]]
    in_adjacency += in_tail
    num_edges = int(chain.sum())

    # Step 2(b): solid edges, fully batched.  Source copy index i =
    # bisect_right(instants[source], start) - 1 and target copy index
    # j = bisect_left(instants[target], arrival) come from one merged
    # lexsort each; the root's single [t_alpha] instance is patched in.
    solid_parts: Optional[Tuple] = None
    skipped = 0
    if num_window_edges:
        i_idx = (
            _grouped_rank(
                aux.pair_t, aux.pair_a, pair_off, src, aux.starts, right=True
            )
            - 1
        )
        j_idx = _grouped_rank(
            aux.pair_t, aux.pair_a, pair_off, tgt, aux.arrivals, right=False
        )
        i_idx = np.where(
            src == root_id,
            np.where(aux.starts >= window.t_alpha, 0, -1),
            i_idx,
        )
        skip = (tgt == root_id) | (src == tgt) | (i_idx < 0)
        skipped = int(skip.sum())
        if skipped < num_window_edges:
            live = ~skip
            kp = aux.pos[live]
            ki, kj = i_idx[live], j_idx[live]
            ks, ktg = src[live], tgt[live]
            kw, kst = aux.weights[live], aux.starts[live]
            u_idx = np.where(ks == root_id, 0, off_by_id[ks] + ki)
            v_idx = off_by_id[ktg] + kj
            # Group parallel duplicates by (source copy, target copy,
            # weight).  Within a group the static edge is inserted at
            # the first graph-order occurrence with that edge's weight
            # value, while the recorded representative is the earliest
            # -starting edge (ties: first in graph order) -- the object
            # loop's replacement rule.
            grp = np.lexsort((kp, kw, kj, ktg, ki, ks))
            gs, gi = ks[grp], ki[grp]
            gt, gj = ktg[grp], kj[grp]
            gw = kw[grp]
            new = np.empty(len(grp), dtype=bool)
            new[0] = True
            new[1:] = (
                (gs[1:] != gs[:-1])
                | (gi[1:] != gi[:-1])
                | (gt[1:] != gt[:-1])
                | (gj[1:] != gj[:-1])
                | (gw[1:] != gw[:-1])
            )
            insert_pos = kp[grp][new]
            # Same group boundaries (the major keys agree); within each
            # group this ordering leads with (start, position).
            rep_pos = kp[np.lexsort((kp, kst, kw, kj, ktg, ki, ks))][new]
            by_insert = np.argsort(insert_pos)
            u_first = u_idx[grp][new][by_insert].tolist()
            v_first = v_idx[grp][new][by_insert].tolist()
            ins_list = insert_pos[by_insert].tolist()
            rep_list = rep_pos[by_insert].tolist()
            if store.weights_are_float:
                w_list = gw[new][by_insert].tolist()
            else:
                w_list = [edges_tup[p].weight for p in ins_list]
            out_entries = zip(v_first, w_list)
            in_entries = zip(u_first, w_list)
            for u, entry in zip(u_first, out_entries):
                adjacency[u].append(entry)
            for v, entry in zip(v_first, in_entries):
                in_adjacency[v].append(entry)
            num_edges += len(ins_list)
            solid_parts = (
                ins_list,
                rep_list,
                u_first,
                v_first,
                labels_list,
                edges_tup,
            )

    digraph = StaticDigraph.from_parts(
        labels_list, adjacency, in_adjacency, num_edges
    )
    return TransformedGraph(
        source=graph,
        window=window,
        root=root,
        digraph=digraph,
        root_label=root_label,
        arrival_instances=arrival_instances,
        solid_origin=None if solid_parts is not None else {},
        skipped_edges=skipped,
        solid_parts=solid_parts,
    )


def transform_temporal_graph(
    graph: TemporalGraph,
    root: Vertex,
    window: Optional[TimeWindow] = None,
    use_cache: bool = True,
) -> TransformedGraph:
    """Build 𝔾 from ``graph`` following Section 4.2's two steps.

    Edges outside the window are ignored.  Temporal edges whose source
    has no copy at or before their start time (i.e. the source cannot
    have been reached in time to use them) can never appear on a
    root-originating path, and are skipped; the count is recorded in
    ``skipped_edges``.

    ``use_cache`` (default on) reuses the root-independent window index
    across queries on the same immutable graph; the output is identical
    either way (property-tested), so the flag exists only for the perf
    harness to measure the uncached baseline.

    Raises
    ------
    UnreachableRootError
        If ``root`` is not a vertex of the graph.
    """
    if root not in graph.vertices:
        raise UnreachableRootError(f"root {root!r} is not a vertex of the graph")
    if window is None:
        window = TimeWindow.unbounded()

    # One GC pause spans the index build and the batched construction
    # (byte-identical output, property-tested).  Indices derived from
    # cached edge tuples (containment / sorted-index paths) carry no
    # array view and fall through to the object loop below.
    with _gc_paused():
        if use_cache:
            index = _window_index(graph, window)
        else:
            index = _WindowIndex(graph, window)
        if index._aux is not None:
            return _transform_columnar(graph, root, window, index)
    in_window = index.in_window

    # Step 1(a): arrival time instances per vertex; the root has the
    # single instance t_alpha (the paper's {0}).  The per-root view
    # shares the cached sorted lists (treated as immutable downstream).
    arrival_instances: Dict[Vertex, List[float]] = {
        v: instants
        for v, instants in index.arrivals_by_target.items()
        if v != root
    }
    arrival_instances[root] = [window.t_alpha]

    digraph = StaticDigraph()
    root_label = copy_label(root, 0)
    digraph.add_vertex(root_label)

    # Step 1(b) + Step 2(a): copies, dummies, and zero-weight chains.
    for v, instants in arrival_instances.items():
        if v == root:
            continue
        previous = None
        for i, _ in enumerate(instants):
            label = copy_label(v, i)
            digraph.add_vertex(label)
            if previous is not None:
                digraph.add_edge(previous, label, 0.0)
            previous = label
        digraph.add_edge(previous, dummy_label(v), 0.0)

    # Step 2(b): solid edges.
    solid_origin: Dict[Tuple, TemporalEdge] = {}
    skipped = 0
    for edge in in_window:
        if edge.target == root or edge.source == edge.target:
            skipped += 1
            continue
        source_instants = arrival_instances.get(edge.source)
        if not source_instants:
            skipped += 1
            continue
        # The latest copy of the source whose instance is <= the start.
        i = bisect_right(source_instants, edge.start) - 1
        if i < 0:
            skipped += 1
            continue
        source_label = copy_label(edge.source, i)
        j = bisect_left(arrival_instances[edge.target], edge.arrival)
        target_label = copy_label(edge.target, j)
        key = (source_label, target_label, edge.weight)
        existing = solid_origin.get(key)
        if existing is None:
            digraph.add_edge(source_label, target_label, edge.weight)
            solid_origin[key] = edge
        elif edge.start < existing.start:
            # Parallel duplicates (same copies, same weight) are
            # interchangeable; keep the earliest-starting representative
            # and do not duplicate the static edge.
            solid_origin[key] = edge

    return TransformedGraph(
        source=graph,
        window=window,
        root=root,
        digraph=digraph,
        root_label=root_label,
        arrival_instances=arrival_instances,
        solid_origin=solid_origin,
        skipped_edges=skipped,
    )
