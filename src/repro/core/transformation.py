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
``docs/algorithms.md``).  Table 4's ``|V(𝔾)|`` and ``|E(𝔾)|`` still
describe the whole window's 𝔾; they are counted over the window's
columns without building it.
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
        ``|V(𝔾)|`` and ``|E(𝔾)|`` of the whole window's 𝔾 (Table 4);
        ``num_edges`` is counted on first access.
    skipped_edges:
        In-window temporal edges that yield no solid edge of the whole
        𝔾: edges into the root, self-loops, and edges whose source has
        no copy at or before their start (counted with ``num_edges``).
    arrival_instances:
        Per original vertex, the sorted distinct arrival times that
        index its virtual copies, over the whole window (the root has
        the single instance ``t_alpha``).  Built on first access.
    solid_origin:
        Maps ``(source_label, target_label, weight)`` of a solid edge to
        a representative original temporal edge (used by postprocessing
        Step 2 to restore temporal edges).  Postprocessing only looks up
        the few solid edges that end up in the Steiner tree, so the
        construction hands over flat index arrays and the dict is
        materialised on first access.
    """

    __slots__ = (
        "source",
        "window",
        "root",
        "digraph",
        "root_label",
        "num_vertices",
        "_num_edges",
        "_skipped_edges",
        "_count_parts",
        "_arrival_instances",
        "_instance_parts",
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
        arrival_instances: Optional[Dict[Vertex, List[float]]],
        solid_origin: Optional[Dict[Tuple, TemporalEdge]],
        skipped_edges: Optional[int],
        solid_parts: Optional[Tuple] = None,
        instance_parts: Optional[Tuple] = None,
        num_vertices: Optional[int] = None,
        count_parts: Optional[Tuple] = None,
    ) -> None:
        self.source = source
        self.window = window
        self.root = root
        self.digraph = digraph
        self.root_label = root_label
        # Without ``num_vertices`` / ``count_parts`` the digraph is the
        # whole 𝔾 and describes itself.
        if num_vertices is None:
            num_vertices = digraph.num_vertices
        self.num_vertices = num_vertices
        self._num_edges = digraph.num_edges if count_parts is None else None
        self._skipped_edges = skipped_edges
        self._count_parts = count_parts
        self._arrival_instances = arrival_instances
        self._instance_parts = instance_parts
        self._solid_origin = solid_origin
        self._solid_parts = solid_parts

    @property
    def num_edges(self) -> int:
        """``|E(𝔾)|`` of the whole window's 𝔾 (counted on first access)."""
        if self._num_edges is None:
            self._num_edges, self._skipped_edges = _whole_counts(*self._count_parts)
            self._count_parts = None
        return self._num_edges

    @property
    def skipped_edges(self) -> int:
        """In-window edges that yield no solid edge of the whole 𝔾."""
        if self._skipped_edges is None:
            self.num_edges
        return self._skipped_edges

    @property
    def arrival_instances(self) -> Dict[Vertex, List[float]]:
        """Per original vertex, its sorted distinct in-window arrivals."""
        instances = self._arrival_instances
        if instances is None:
            store, pair_a, pair_rep, pair_off, targets, root_id = self._instance_parts
            if store.arrivals_are_float:
                values = pair_a.tolist()
            else:
                values = store.values_at("arrivals", pair_rep)
            targets = targets[targets != root_id]
            instances = dict(
                zip(
                    map(store.vertex_labels.__getitem__, targets.tolist()),
                    map(
                        values.__getitem__,
                        map(
                            slice,
                            pair_off[targets].tolist(),
                            pair_off[targets + 1].tolist(),
                        ),
                    ),
                )
            )
            instances[self.root] = [self.window.t_alpha]
            self._arrival_instances = instances
            self._instance_parts = None
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
    pair_off: Any,
    target_pair: Any,
    root_id: int,
) -> Tuple[int, int]:
    """``(|E(𝔾)|, skipped edges)`` of the whole window's 𝔾, from its columns.

    𝔾 has one chain edge per copy and one solid edge per group of
    non-skipped window edges with the same source copy, target copy
    and weight.  An edge is skipped when it enters the root, is a
    self-loop, or its source has no copy at or before its start.
    """
    source_pair, copies_key = _solid_copies(pair_key, src, starts, target_pair, root_id)
    skip = (tgt == root_id) | (src == tgt)
    skip |= (src != root_id) & (source_pair < pair_off[src])
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
    unchanged by building only the reach.  ``num_vertices``,
    ``num_edges`` and ``skipped_edges`` count the whole 𝔾.

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

    if chronological:
        pos = store.window_positions(t_alpha, t_omega)
    else:
        pos = store.window_positions_graph_order(t_alpha, t_omega)
    # ``seq`` ranks the edges in that order; ``pos`` locates them.
    seq = np.arange(len(pos), dtype=np.int64)
    src = store.sources[pos]
    tgt = store.targets[pos]
    starts = store.starts[pos]
    arrivals = store.arrivals[pos]
    weights = store.weights[pos]

    # Step 1(a): the distinct (target, arrival) instance pairs of the
    # whole window, self-loops excluded.  The stable sort keeps edge
    # order within ties, so each pair's representative position is the
    # first in-window edge realising it (the exact int/float value a
    # Python ``set`` would have kept).
    keep = np.flatnonzero(src != tgt)
    kt = tgt[keep]
    edge_keys = _time_keys(kt, arrivals[keep])
    order = np.argsort(edge_keys, kind="stable")
    sorted_keys = edge_keys[order]
    sorted_t = kt[order]
    new_pair = _run_starts(sorted_keys)
    pair_key = sorted_keys[new_pair]
    pair_t = sorted_t[new_pair]
    pair_a = pair_key.imag
    pair_rep = pos[keep][order][new_pair]
    pair_off = np.zeros(store.num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(pair_t, minlength=store.num_vertices), out=pair_off[1:])
    # Targets in first-occurrence order: 𝔾's vertex-block order.
    target_runs = np.flatnonzero(_run_starts(sorted_t))
    first_seen = np.minimum.reduceat(keep[order], target_runs)
    targets_order = sorted_t[target_runs][np.argsort(first_seen)]
    nonroot = targets_order[targets_order != root_id]
    num_copies = len(pair_t) - int(pair_off[root_id + 1] - pair_off[root_id])

    # Step 2(b).  Copies are numbered globally by pair id (copy i of v
    # is pair pair_off[v] + i); the root's single [t_alpha] copy gets
    # id -1.  The target copy is the edge's own (target, arrival) pair.
    target_pair = np.full(len(pos), -1, dtype=np.int64)
    target_pair[keep[order]] = np.cumsum(new_pair) - 1

    # The root's reach.  EA(v) is one of v's instances, so copy (v, t)
    # is reachable iff EA(v) <= t: v's copies from index ``first`` on.
    reached = nonroot[earliest[nonroot] < np.inf]
    first = (
        np.searchsorted(pair_key, _time_keys(reached, earliest[reached]))
        - pair_off[reached]
    )
    kept = pair_off[reached + 1] - pair_off[reached] - first
    offsets = np.concatenate(
        (np.ones(1, dtype=np.int64), 1 + np.cumsum(kept + 1))
    )
    # Pair p of a reached vertex v sits in slot p + shift[v].
    shift = np.zeros(store.num_vertices, dtype=np.int64)
    shift[reached] = offsets[:-1] - pair_off[reached] - first

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
    usable = np.flatnonzero((earliest[src] <= starts) & (src != tgt) & (tgt != root_id))
    if len(usable):
        kq, ks, ktg = seq[usable], src[usable], tgt[usable]
        kw, kst, ktp = weights[usable], starts[usable], target_pair[usable]
        ksp, copies_key = _solid_copies(pair_key, ks, kst, ktp, root_id)
        grp = np.lexsort((kq, kw, copies_key))
        new = _run_starts(copies_key[grp], kw[grp])
        # Same group order as ``grp``; within a group, (start, order).
        rep = np.lexsort((kq, kst, kw, copies_key))[new]
        picked = grp[new]
        by_insert = np.argsort(kq[picked])
        picked, rep = picked[by_insert], rep[by_insert]
        u_first = np.where(
            ks[picked] == root_id, 0, ksp[picked] + shift[ks[picked]]
        ).tolist()
        v_first = (ktp[picked] + shift[ktg[picked]]).tolist()
        ins = pos[kq[picked]]
        if store.weights_are_float:
            w_list = kw[picked].tolist()
        else:
            w_list = store.values_at("weights", ins)
        for u, entry in zip(u_first, zip(v_first, w_list)):
            adjacency[u].append(entry)
        for v, entry in zip(v_first, zip(u_first, w_list)):
            in_adjacency[v].append(entry)
        num_reach_edges += len(ins)
        solid_parts = (ins, pos[kq[rep]], u_first, v_first, labels_list)

    digraph = StaticDigraph.from_parts(
        labels_list, adjacency, in_adjacency, num_reach_edges
    )
    return TransformedGraph(
        source=graph,
        window=window,
        root=root,
        digraph=digraph,
        root_label=root_label,
        arrival_instances=None,
        solid_origin=None if solid_parts is not None else {},
        skipped_edges=None,
        solid_parts=solid_parts,
        instance_parts=(store, pair_a, pair_rep, pair_off, targets_order, root_id),
        num_vertices=1 + len(nonroot) + num_copies,
        count_parts=(
            num_copies, src, tgt, starts, weights, pair_key, pair_off,
            target_pair, root_id,
        ),
    )


def transformation_cache_info() -> Dict[str, int]:
    """Counters of the former window-index cache, all zero.

    The transformation keeps no per-window state any more; the counters
    stay so existing probes of them keep working.
    """
    return {"hits": 0, "misses": 0, "containment": 0}
