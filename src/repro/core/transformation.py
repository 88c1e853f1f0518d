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

Theorem 5 only needs the part of 𝔾 the root copy reaches, so that is
all :func:`transform_temporal_graph` builds.  With ``EA(v)`` the root's
earliest arrival time at ``v``, copy ``(v, t)`` is reachable iff
``EA(v) <= t`` and a solid edge is usable iff ``EA(u) <= t_u`` (see
``docs/algorithms.md``).  Step 1(a) runs only over the edges into
``V_r``, so the construction costs what the root reaches, not what the
window holds.  Table 4's ``|V(𝔾)|`` and ``|E(𝔾)|`` still describe the
whole window's 𝔾; they are counted over the window's columns, without
building it, on first read.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import UnreachableRootError
from repro.static.digraph import StaticDigraph
from repro.steiner.instance import DSTInstance
from repro.temporal.edge import TemporalEdge, Vertex
from repro.temporal.graph import TemporalGraph
from repro.temporal.window import TimeWindow


def copy_label(vertex: Vertex, position: int) -> Tuple[str, Vertex, int]:
    """The label of ``vertex``'s ``position``-th virtual copy in 𝔾."""
    return ("copy", vertex, position)


def dummy_label(vertex: Vertex) -> Tuple[str, Vertex]:
    """The label of ``vertex``'s dummy (terminal) vertex in 𝔾."""
    return ("dummy", vertex)


class TransformedGraph:
    """The static expansion 𝔾 of a temporal graph, as far as the root reaches.

    Attributes
    ----------
    digraph:
        The part of 𝔾 the root copy reaches (virtual + solid edges):
        exactly what :func:`repro.steiner.instance.rooted_instance`
        keeps of the whole 𝔾, in the same vertex and adjacency order.
    root_label:
        The label of the root's single copy.
    num_vertices / num_edges:
        ``|V(𝔾)|`` and ``|E(𝔾)|`` of the whole window's 𝔾 (Table 4).
    skipped_edges:
        In-window temporal edges that yield no solid edge of the whole
        𝔾: edges into the root, self-loops, and edges whose source has
        no copy at or before their start.
    arrival_instances:
        Per original vertex, the sorted distinct arrival times that
        index its virtual copies, over the whole window (the root has
        the single instance ``t_alpha``).
    solid_origin:
        Maps ``(source_label, target_label, weight)`` of a solid edge to
        a representative original temporal edge (used by postprocessing
        Step 2 to restore temporal edges).  Postprocessing only looks up
        the few solid edges that end up in the Steiner tree, so the
        construction hands over flat index arrays and the dict is
        materialised on first access.

    The whole-window statistics come from one run of
    :func:`_whole_statistics` over the window's columns, on the first
    read of any of them (the ``arrival_instances`` dict is then built
    on its own first read); a query that reads none of them never pays
    for the whole window's Step 1(a).
    """

    __slots__ = (
        "source",
        "window",
        "root",
        "digraph",
        "root_label",
        "_whole",
        "_whole_parts",
        "_arrival_instances",
        "_solid_origin",
        "_solid_parts",
    )

    def __init__(
        self,
        source: TemporalGraph,
        window: TimeWindow,
        root: Vertex,
        digraph: StaticDigraph,
        root_label: Tuple,
        arrival_instances: Optional[Dict[Vertex, List[float]]] = None,
        solid_origin: Optional[Dict[Tuple, TemporalEdge]] = None,
        skipped_edges: Optional[int] = None,
        solid_parts: Optional[Tuple] = None,
        whole_parts: Optional[Tuple] = None,
    ) -> None:
        self.source = source
        self.window = window
        self.root = root
        self.digraph = digraph
        self.root_label = root_label
        # ``whole_parts`` is ``(store, window positions, chronological)``;
        # without it the digraph is the whole 𝔾 and describes itself.
        self._whole: Optional[Tuple] = None
        if whole_parts is None:
            self._whole = (digraph.num_vertices, digraph.num_edges, skipped_edges)
        self._whole_parts = whole_parts
        self._arrival_instances = arrival_instances
        self._solid_origin = solid_origin
        self._solid_parts = solid_parts

    def _statistics(self) -> Tuple:
        """``(|V(𝔾)|, |E(𝔾)|, skipped edges, instance parts)``, once."""
        whole = self._whole
        if whole is None:
            store, pos, chronological = self._whole_parts
            whole = _whole_statistics(store, pos, chronological, self.root)
            self._whole = whole
            self._whole_parts = None
        return whole

    @property
    def num_vertices(self) -> int:
        """``|V(𝔾)|`` of the whole window's 𝔾 (computed on first read)."""
        return self._statistics()[0]

    @property
    def num_edges(self) -> int:
        """``|E(𝔾)|`` of the whole window's 𝔾 (computed on first read)."""
        return self._statistics()[1]

    @property
    def skipped_edges(self) -> int:
        """In-window edges that yield no solid edge of the whole 𝔾."""
        return self._statistics()[2]

    @property
    def arrival_instances(self) -> Dict[Vertex, List[float]]:
        """Per original vertex, its sorted distinct in-window arrivals.

        Built from :func:`_whole_statistics`' instance pairs on first
        read; the counts alone never build it.
        """
        instances = self._arrival_instances
        if instances is None:
            store, pair_a, pair_rep, pair_off, targets, block = self._statistics()[3]
            if store.arrivals_are_float:
                values = pair_a.tolist()
            else:
                values = store.values_at("arrivals", pair_rep)
            instances = dict(
                zip(
                    map(store.vertex_labels.__getitem__, targets[block].tolist()),
                    map(
                        values.__getitem__,
                        map(
                            slice,
                            pair_off[block].tolist(),
                            pair_off[block + 1].tolist(),
                        ),
                    ),
                )
            )
            instances[self.root] = [self.window.t_alpha]
            self._arrival_instances = instances
        return instances

    @property
    def solid_origin(self) -> Dict[Tuple, TemporalEdge]:
        """``(source_label, target_label, weight) -> representative edge``."""
        origin = self._solid_origin
        if origin is None:
            ins, rep, us, vs, labels_list = self._solid_parts
            store = self.source.columnar()
            keys = zip(
                map(labels_list.__getitem__, us),
                map(labels_list.__getitem__, vs),
                store.values_at("weights", ins),
            )
            origin = dict(zip(keys, self.source.edges_at(rep)))
            self._solid_origin = origin
            self._solid_parts = None
        return origin

    def dummies(self) -> List[Tuple]:
        """Dummy labels of every non-root original vertex."""
        return [dummy_label(v) for v in self.source.vertices if v != self.root]

    def reached(self) -> List[Vertex]:
        """The vertices with a dummy in :attr:`digraph`, in its order.

        For the reach-only construction that is ``V_r`` without the
        root.
        """
        return [label[1] for label in self.digraph.labels() if label[0] == "dummy"]

    def dst_instance(self, terminals: Optional[Sequence[Vertex]] = None) -> DSTInstance:
        """The DST problem on 𝔾 (Theorem 5): root copy -> dummy terminals.

        Parameters
        ----------
        terminals:
            Original vertices whose dummies form the terminal set.
            Defaults to every dummy in :attr:`digraph`, in its order:
            the reachable set ``V_r`` without the root.

        Raises
        ------
        UnreachableRootError
            If a requested terminal's dummy is not in :attr:`digraph`
            (the root cannot reach it within the window).
        """
        graph = self.digraph
        if terminals is None:
            terminals = self.reached()
        labels = tuple(dummy_label(v) for v in terminals if v != self.root)
        missing = [label for label in labels if not graph.has_vertex(label)]
        if missing:
            raise UnreachableRootError(
                f"{len(missing)} terminals unreachable from root "
                f"{self.root!r} within {self.window}, e.g. {missing[0][1]!r}"
            )
        return DSTInstance(graph, self.root_label, labels)

    def original_edge(self, source_label: Tuple, target_label: Tuple, weight: float):
        """The temporal edge behind a solid 𝔾 edge (None for virtual edges)."""
        return self.solid_origin.get((source_label, target_label, weight))


def _run_starts(*keys: Any) -> Any:
    """Flags of the first element of every run of equal key tuples."""
    size = len(keys[0])
    new = np.empty(size, dtype=bool)
    if size:
        new[0] = True
        new[1:] = False
        for key in keys:
            new[1:] |= key[1:] != key[:-1]
    return new


def _whole_counts(
    num_copies: int,
    src: Any,
    tgt: Any,
    starts: Any,
    weights: Any,
    pair_key: Any,
    target_pair: Any,
    root_id: int,
) -> Tuple[int, int]:
    """``(|E(𝔾)|, skipped edges)`` of the whole window's 𝔾, from its columns.

    𝔾 has one chain edge per copy and one solid edge per group of
    non-skipped window edges with the same source copy, target copy
    and weight.  An edge is skipped when it enters the root, is a
    self-loop, or its source has no copy at or before its start: its
    source copy lies before the source's first pair.
    """
    source_pair, copies_key = _solid_copies(pair_key, src, starts, target_pair, root_id)
    source_first = np.searchsorted(
        pair_key, _time_keys(src, np.full(len(src), -np.inf))
    )
    skip = (tgt == root_id) | (src == tgt)
    skip |= (src != root_id) & (source_pair < source_first)
    live = ~skip
    copies_key, kw = copies_key[live], weights[live]
    grp = np.lexsort((kw, copies_key))
    groups = int(_run_starts(copies_key[grp], kw[grp]).sum())
    return num_copies + groups, int(skip.sum())


def _solid_copies(
    pair_key: Any, src: Any, starts: Any, target_pair: Any, root_id: int
) -> Tuple[Any, Any]:
    """Each edge's source copy, and one key per (source, target) copy pair.

    Copies are numbered by pair id and the root's single copy is -1.
    The source copy is the last pair of the source at or before the
    start, i.e. ``bisect_right(instants[source], start) - 1``; it lies
    before the source's first pair when there is none.
    """
    source_pair = np.searchsorted(pair_key, _time_keys(src, starts), side="right") - 1
    source_pair[src == root_id] = -1
    return source_pair, (source_pair + 1) * (len(pair_key) + 1) + target_pair


def _time_keys(vertices: Any, times: Any) -> Any:
    """Complex keys that order ``(vertex id, time)`` pairs lexicographically.

    numpy sorts and searches complex values by real part, then by
    imaginary part, and both parts hold their int id / float64 time
    exactly, so one ``searchsorted`` over sorted pair keys is a
    per-vertex ``bisect`` over that vertex's sorted times.
    """
    keys = np.empty(len(vertices), dtype=np.complex128)
    keys.real = vertices
    keys.imag = times
    return keys


def _instance_pairs(tgt: Any, arrivals: Any) -> Tuple[Any, Any, Any, Any, Any, Any]:
    """Step 1(a) over edges with targets ``tgt`` and ``arrivals``.

    Returns ``(pair_key, edge_pair, pair_first, targets, pair_off,
    block)``: the distinct (target, arrival) instance pairs as
    :func:`_time_keys`, sorted; each edge's pair, which is its target
    copy in Step 2(b); each pair's first edge; the distinct targets in
    id order; ``pair_off[j]``, the first pair of ``targets[j]``, with
    the pair count appended; and the targets' indices in first-occurrence
    order, which is 𝔾's vertex-block order.  The stable sort keeps edge
    order within ties, so a pair's first edge is the first realising it
    (the exact int/float value a Python ``set`` would have kept).
    """
    edge_keys = _time_keys(tgt, arrivals)
    order = np.argsort(edge_keys, kind="stable")
    sorted_keys = edge_keys[order]
    new_pair = _run_starts(sorted_keys)
    edge_pair = np.empty(len(order), dtype=np.int64)
    edge_pair[order] = np.cumsum(new_pair) - 1
    runs = np.flatnonzero(_run_starts(tgt[order]))
    pair_key = sorted_keys[new_pair]
    pair_off = np.append(edge_pair[order[runs]], len(pair_key))
    block = np.argsort(np.minimum.reduceat(order, runs))
    return pair_key, edge_pair, order[new_pair], tgt[order[runs]], pair_off, block


def _whole_statistics(
    store: Any, pos: Any, chronological: bool, root: Vertex
) -> Tuple[int, int, int, Tuple]:
    """``(|V(𝔾)|, |E(𝔾)|, skipped edges, instance parts)`` of the window.

    Step 1(a) over the whole window: every in-window edge ``pos`` holds
    (chronological order; graph order is restored here unless
    ``chronological``), not only the edges into the root's reach.
    :attr:`TransformedGraph.arrival_instances` is built from the
    instance parts: ``store``, the pairs' arrivals and first positions,
    the pair offsets and the non-root targets in block order.
    """
    if not chronological:
        pos = np.sort(pos)
    root_id = store.vertex_ids[root]
    src = store.sources[pos]
    tgt = store.targets[pos]
    keep = np.flatnonzero(src != tgt)
    pair_key, edge_pair, pair_first, targets, pair_off, block = _instance_pairs(
        tgt[keep], store.arrivals[pos[keep]]
    )
    block = block[targets[block] != root_id]
    num_copies = int((pair_off[block + 1] - pair_off[block]).sum())
    target_pair = np.full(len(pos), -1, dtype=np.int64)
    target_pair[keep] = edge_pair
    num_edges, skipped = _whole_counts(
        num_copies,
        src,
        tgt,
        store.starts[pos],
        store.weights[pos],
        pair_key,
        target_pair,
        root_id,
    )
    parts = (store, pair_key.imag, pos[keep][pair_first], pair_off, targets, block)
    return 1 + len(block) + num_copies, num_edges, skipped, parts


def transform_temporal_graph(
    graph: TemporalGraph,
    root: Vertex,
    window: Optional[TimeWindow] = None,
    chronological: bool = False,
) -> TransformedGraph:
    """Build the part of 𝔾 the root reaches, following Section 4.2.

    Edges outside the window are ignored.  The window's edges are read
    from ``graph.columnar()`` and the root's earliest-arrival labels
    from the store's sweep (the one
    :func:`repro.temporal.paths.earliest_arrival_times` runs).  The
    result's ``digraph`` holds the root copy, the reachable copies
    (``EA(v) <= t``) and dummies of every ``v`` in ``V_r``, and the
    solid edges whose source satisfies ``EA(u) <= t_u``.  Labels keep
    their whole-𝔾 copy indices, and vertices and adjacency lists come
    in the order :func:`repro.steiner.instance.rooted_instance` gives
    the whole 𝔾, so the DST instance, its closure and every solve are
    unchanged by building only the reach.  Only the edges into ``V_r``
    are sorted; ``num_vertices``, ``num_edges``, ``skipped_edges`` and
    ``arrival_instances`` describe the whole 𝔾 and are computed on
    first read.

    The window's edges are taken in graph order, or in chronological
    order when ``chronological`` is set: the order of
    :meth:`repro.temporal.index.TemporalEdgeIndex.subgraph`, so the
    result equals transforming that window subgraph without building
    it.

    Raises
    ------
    UnreachableRootError
        If ``root`` is not a vertex of the graph.
    """
    if root not in graph.vertices:
        raise UnreachableRootError(f"root {root!r} is not a vertex of the graph")
    if window is None:
        window = TimeWindow.unbounded()
    t_alpha, t_omega = window.t_alpha, window.t_omega
    store = graph.columnar()
    labels_by_id = store.vertex_labels
    root_id = store.vertex_ids[root]
    earliest = store.earliest_arrival_labels(root_id, t_alpha, t_omega)
    pos = store.window_positions(t_alpha, t_omega)

    # The edges into V_r: in-window, no self-loop, and the target is a
    # reached non-root vertex.  They are all of a reached vertex's
    # in-window in-edges, so each reached v keeps its whole-window
    # instances (hence copy indices) and its block position, and every
    # usable solid edge is among them.  ``seq`` orders them as the
    # window does: by insertion position, or by chronological rank.
    tgt = store.targets[pos]
    into = np.flatnonzero((earliest[tgt] < np.inf) & (tgt != root_id))
    if chronological:
        seq = into
        sub = pos[into]
    else:
        seq = sub = np.sort(pos[into])
    src = store.sources[sub]
    tgt = store.targets[sub]
    loop_free = np.flatnonzero(src != tgt)
    seq, sub = seq[loop_free], sub[loop_free]
    src, tgt = src[loop_free], tgt[loop_free]
    starts = store.starts[sub]
    weights = store.weights[sub]

    # Step 1(a) for V_r.  Step 2(b)'s target copy is the edge's pair.
    pair_key, target_pair, _, reached, pair_off, block = _instance_pairs(
        tgt, store.arrivals[sub]
    )

    # The root's reach.  EA(v) is one of v's instances, so copy (v, t)
    # is reachable iff EA(v) <= t: v's copies from index ``first`` on.
    pair_off, num_pairs = pair_off[:-1], np.diff(pair_off)
    first = (
        np.searchsorted(pair_key, _time_keys(reached, earliest[reached])) - pair_off
    )
    kept = num_pairs - first
    offsets = np.concatenate(
        (np.ones(1, dtype=np.int64), 1 + np.cumsum(kept[block] + 1))
    )
    # Pair p sits in slot ``pair_slot[p]``; the root's single copy is
    # pair -1, in slot 0.
    shift = np.empty(len(block), dtype=np.int64)
    shift[block] = offsets[:-1] - pair_off[block] - first[block]
    pair_slot = np.zeros(len(pair_key) + 1, dtype=np.int64)
    pair_slot[:-1] = np.arange(len(pair_key)) + np.repeat(shift, num_pairs)
    reached, first, kept = reached[block], first[block], kept[block]

    root_label = copy_label(root, 0)
    total = int(offsets[-1])
    # ``chain`` marks the slots with an outgoing zero-weight link --
    # exactly the copy slots; the root (slot 0) and the dummies end
    # their blocks.
    chain = np.ones(total, dtype=bool)
    chain[0] = False
    dummy_slots = offsets[:-1] + kept
    chain[dummy_slots] = False

    # Vertex labels, laid out in bulk: the ("copy", v, i) and
    # ("dummy", v) tuples are zipped at C speed and scattered into
    # their slots through an object array.
    slot_labels = np.empty(total, dtype=object)
    slot_labels[0] = root_label
    num_kept = int(kept.sum())
    if num_kept:
        cum = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(kept)))
        copy_i = (
            np.arange(num_kept, dtype=np.int64)
            - np.repeat(cum[:-1], kept)
            + np.repeat(first, kept)
        )
        copy_v = map(labels_by_id.__getitem__, np.repeat(reached, kept).tolist())
        copy_tuples = np.empty(num_kept, dtype=object)
        copy_tuples[:] = list(zip(repeat("copy"), copy_v, copy_i.tolist()))
        slot_labels[np.flatnonzero(chain)] = copy_tuples
    if len(reached):
        dummy_v = map(labels_by_id.__getitem__, reached.tolist())
        dummy_tuples = np.empty(len(reached), dtype=object)
        dummy_tuples[:] = list(zip(repeat("dummy"), dummy_v))
        slot_labels[dummy_slots] = dummy_tuples
    labels_list: List[Tuple] = slot_labels.tolist()

    # Step 1(b) + 2(a): the zero-weight chains.  Lay the chain out as if
    # every slot i had the link i -> i+1, then blank the slots that do
    # not (the root and the dummies).  A block's first reachable copy
    # gets no incoming link: its predecessor copy is unreachable.
    # Virtual edges precede solid edges in every list.
    zero = 0.0
    adjacency: List[List[Tuple[int, float]]] = list(
        map(list, zip(zip(range(1, total + 1), repeat(zero))))
    )
    in_tail: List[List[Tuple[int, float]]] = list(
        map(list, zip(zip(range(total - 1), repeat(zero))))
    )
    last = total - 1
    for i in np.flatnonzero(~chain).tolist():
        adjacency[i] = []
        if i < last:
            in_tail[i] = []
    in_adjacency: List[List[Tuple[int, float]]] = [[]]
    in_adjacency += in_tail
    num_reach_edges = num_kept

    # Step 2(b) for the usable edges: a solid edge is usable iff
    # EA(u) <= t_u (window edges from the root all are).  Parallel
    # duplicates (same copies, same weight) share one static edge,
    # inserted at the group's first occurrence in edge order; the
    # recorded representative is its earliest-starting edge (ties:
    # first in edge order).  A group shares its source copy, so it is
    # wholly usable or wholly not, and these are the whole 𝔾's choices.
    solid_parts: Optional[Tuple] = None
    usable = np.flatnonzero(earliest[src] <= starts)
    if len(usable):
        kq, ks, kpos = seq[usable], src[usable], sub[usable]
        kw, kst, ktp = weights[usable], starts[usable], target_pair[usable]
        ksp, copies_key = _solid_copies(pair_key, ks, kst, ktp, root_id)
        grp = np.lexsort((kq, kw, copies_key))
        new = _run_starts(copies_key[grp], kw[grp])
        # Same group order as ``grp``; within a group, (start, order).
        rep = np.lexsort((kq, kst, kw, copies_key))[new]
        picked = grp[new]
        by_insert = np.argsort(kq[picked])
        picked, rep = picked[by_insert], rep[by_insert]
        u_first = pair_slot[ksp[picked]].tolist()
        v_first = pair_slot[ktp[picked]].tolist()
        ins = kpos[picked]
        if store.weights_are_float:
            w_list = kw[picked].tolist()
        else:
            w_list = store.values_at("weights", ins)
        for u, entry in zip(u_first, zip(v_first, w_list)):
            adjacency[u].append(entry)
        for v, entry in zip(v_first, zip(u_first, w_list)):
            in_adjacency[v].append(entry)
        num_reach_edges += len(ins)
        solid_parts = (ins, kpos[rep], u_first, v_first, labels_list)

    digraph = StaticDigraph.from_parts(
        labels_list, adjacency, in_adjacency, num_reach_edges
    )
    return TransformedGraph(
        source=graph,
        window=window,
        root=root,
        digraph=digraph,
        root_label=root_label,
        solid_origin=None if solid_parts is not None else {},
        solid_parts=solid_parts,
        whole_parts=(store, pos, chronological),
    )


def transformation_cache_info() -> Dict[str, int]:
    """Counters of the former window-index cache, all zero.

    The transformation keeps no per-window state any more; the counters
    stay so existing probes of them keep working.
    """
    return {"hits": 0, "misses": 0, "containment": 0}
