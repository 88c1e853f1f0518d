"""Linear-time ``MST_a`` algorithms (Section 3, Algorithms 1 and 2).

Both algorithms compute, for a root ``r`` and window ``[t_alpha,
t_omega]``, a spanning tree in which every covered vertex is reached at
its earliest possible arrival time.

* :func:`msta_chronological` (Algorithm 1) performs a single pass over
  the chronological edge list, restricted to the edges that start
  inside the window.  It requires strictly positive edge durations
  (Theorem 1); with zero durations an edge whose start equals its
  predecessor's arrival may be scanned *before* the predecessor
  relaxes, as the paper's Figure 3 example shows.  On a graph whose
  columnar store holds exact float timestamps the pass is computed
  from the store's columns (:meth:`ColumnarEdgeStore.
  foremost_parent_positions`), building edge objects only for the
  tree; otherwise it walks the edge objects.
* :func:`msta_stack` (Algorithm 2) consumes per-vertex out-edge arrays
  sorted by non-increasing start time, maintaining a scan position per
  vertex so each edge is pushed at most once -- ``O(M)`` overall, and
  correct for zero durations (over the columnar store's out-edge CSR).

:func:`minimum_spanning_tree_a` dispatches automatically.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core.errors import UnreachableRootError, ZeroDurationError
from repro.core.spanning_tree import TemporalSpanningTree
from repro.resilience.budget import NULL_BUDGET, Budget
from repro.temporal.edge import TemporalEdge, Vertex
from repro.temporal.graph import TemporalGraph
from repro.temporal.window import TimeWindow


def minimum_spanning_tree_a(
    graph: TemporalGraph,
    root: Vertex,
    window: Optional[TimeWindow] = None,
    algorithm: str = "auto",
) -> TemporalSpanningTree:
    """Compute a ``MST_a`` rooted at ``root``.

    Parameters
    ----------
    graph:
        The temporal graph.
    root:
        The prescribed root; must be a vertex of the graph.
    window:
        The time window (default ``[0, inf]``).
    algorithm:
        ``"chronological"`` (Algorithm 1), ``"stack"`` (Algorithm 2), or
        ``"auto"`` -- Algorithm 1 when every duration is positive,
        Algorithm 2 otherwise.

    Raises
    ------
    UnreachableRootError
        If ``root`` is not a vertex of the graph.
    ZeroDurationError
        If Algorithm 1 is forced on a graph with a zero-duration edge.
    """
    if algorithm == "auto":
        if graph.has_zero_duration_edge():
            return msta_stack(graph, root, window)
        return msta_chronological(graph, root, window)
    if algorithm == "chronological":
        return msta_chronological(graph, root, window)
    if algorithm == "stack":
        return msta_stack(graph, root, window)
    raise ValueError(
        f"unknown algorithm {algorithm!r}; "
        "expected 'auto', 'chronological', or 'stack'"
    )


def msta_chronological(
    graph: TemporalGraph,
    root: Vertex,
    window: Optional[TimeWindow] = None,
    check_durations: bool = True,
    budget: Optional[Budget] = None,
) -> TemporalSpanningTree:
    """Algorithm 1: one pass over the chronological edge list.

    Only edges starting inside ``[t_alpha, t_omega]`` can relax: every
    recorded arrival is ``>= t_alpha`` (the root's is ``t_alpha`` and a
    relaxed edge arrives no earlier than it starts, which is no earlier
    than its source's arrival), so an edge starting before ``t_alpha``
    fails line 3's departure test, and one starting after ``t_omega``
    arrives after it.  The pass therefore scans just that start slice
    of the cached chronological order (:meth:`TemporalGraph.
    chronological_slice`), in the same order as a full scan, so the
    arrivals and parents are identical: ``O(log M + M_window)``.

    When the graph has a built store with exact float timestamps
    (:meth:`TemporalGraph.float_time_store`) and no zero-duration
    edge, the pass is computed from the columns instead: the store's
    earliest-arrival labels decide which edges line 3 accepts, and with
    positive durations the scan's parent of ``v`` is its first accepted
    in-edge arriving at ``v``'s label (docs/algorithms.md).  Only the
    tree's edges are built.  The parent dict is the scan's, in the
    scan's key order.  The scan over edge objects remains for other
    timestamp types, graphs without a built store, and zero-duration
    graphs run with ``check_durations=False``.

    Set ``check_durations=False`` to skip the zero-duration guard --
    used by tests that demonstrate the Figure 3 failure mode.

    ``budget`` is checkpointed cooperatively every 1024 scanned
    in-window edges (on the column path, that many times up front); a
    drained budget raises :class:`repro.core.errors.BudgetExceededError`
    with the same expansion count on either path.
    """
    if root not in graph.vertices:
        raise UnreachableRootError(f"root {root!r} is not a vertex of the graph")
    if window is None:
        window = TimeWindow.unbounded()
    if check_durations and graph.has_zero_duration_edge():
        raise ZeroDurationError(
            "Algorithm 1 requires positive edge durations; use msta_stack "
            "(Algorithm 2) for graphs with zero-duration edges"
        )
    tick = budget if budget is not None else NULL_BUDGET
    t_omega = window.t_omega
    store = graph.float_time_store()
    if store is not None and not graph.has_zero_duration_edge():
        lo, hi = store.start_bounds(window.t_alpha, t_omega)
        for _ in range((hi - lo) // 1024):
            tick.checkpoint(1024)
        positions = store.foremost_parent_positions(
            store.vertex_ids[root], window.t_alpha, t_omega
        )
        return TemporalSpanningTree(
            root, {e.target: e for e in graph.edges_at(positions)}, window
        )
    arrival: Dict[Vertex, float] = {root: window.t_alpha}
    parent: Dict[Vertex, TemporalEdge] = {}
    inf = float("inf")
    scanned = 0
    for edge in graph.chronological_slice(window.t_alpha, t_omega):
        scanned += 1
        if not scanned & 1023:
            tick.checkpoint(1024)
        # Line 3 of Algorithm 1: the edge departs no earlier than our
        # arrival at its source, improves the target, and ends in time.
        if (
            edge.start >= arrival.get(edge.source, inf)
            and edge.arrival < arrival.get(edge.target, inf)
            and edge.arrival <= t_omega
        ):
            arrival[edge.target] = edge.arrival
            parent[edge.target] = edge
    return TemporalSpanningTree(root, parent, window)


def msta_stack(
    graph: TemporalGraph,
    root: Vertex,
    window: Optional[TimeWindow] = None,
    budget: Optional[Budget] = None,
) -> TemporalSpanningTree:
    """Algorithm 2: stack-driven scan of descending-start adjacency lists.

    Every vertex keeps a persistent scan position into its out-edge
    array (sorted by non-increasing start time); whenever the vertex's
    arrival time improves, the scan resumes and pushes the newly enabled
    out-edges.  Each edge is pushed at most once, giving ``O(M)``.
    Correct for zero-duration edges (Theorem 2).

    The arrays are the store's out-edge CSR read backwards, which puts
    equal starts in insertion order, as a stable descending sort did.
    The stack holds positions; only the tree's edges are built.

    ``budget`` is checkpointed cooperatively once per popped stack
    entry; a drained budget raises
    :class:`repro.core.errors.BudgetExceededError` mid-scan.
    """
    if root not in graph.vertices:
        raise UnreachableRootError(f"root {root!r} is not a vertex of the graph")
    if window is None:
        window = TimeWindow.unbounded()
    store = graph.columnar()
    offsets, positions, starts = store.out_adjacency()
    arrivals = store.python_values("arrivals")
    targets = store.python_values("targets")
    t_alpha, t_omega = window.t_alpha, window.t_omega
    arrival = [float("inf")] * store.num_vertices
    # v's run starts at lows[v]; its backward scan resumes at scan[v].
    lows = offsets.tolist()
    scan = lows[1:]
    parent: Dict[int, int] = {}
    # Stack entries are the positions of parent edges; -1 seeds the
    # root with a virtual arrival of t_alpha.
    stack = [-1]
    tick = budget if budget is not None else NULL_BUDGET
    while stack:
        tick.checkpoint()
        p = stack.pop()
        v, t_arr = (store.vertex_ids[root], t_alpha) if p < 0 else (targets[p], arrivals[p])
        if t_arr >= arrival[v]:
            continue
        arrival[v] = t_arr
        if p >= 0:
            parent[v] = p
        lo, hi = lows[v], scan[v]
        # Resume the scan: everything below hi with start >= A(v) is now
        # enabled.  Every pushed arrival is at least t_alpha, so so is
        # every enabled start.
        while hi > lo and starts[hi - 1] >= t_arr:
            hi -= 1
            q = positions[hi]
            a = arrivals[q]
            if a <= t_omega and a < arrival[targets[q]]:
                stack.append(q)
        scan[v] = hi
    labels = store.vertex_labels
    edges = graph.edges_at(np.array(list(parent.values()), dtype=np.int64))
    tree = {labels[v]: edge for v, edge in zip(parent, edges)}
    return TemporalSpanningTree(root, tree, window)
