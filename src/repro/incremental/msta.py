"""Incremental ``MST_a`` maintenance across sliding windows.

A forward slide ``[a1, o1] -> [a2, o2]`` (``a2 >= a1``, ``o2 >= o1``)
changes window membership only near the two boundaries: removed edges
all have ``start < a2`` and added edges all have ``arrival > o1``.  On a
positive-duration graph this gives three exact invariants (each one is
what the repair below relies on):

* a vertex whose tree path avoids every removed edge keeps its *exact*
  earliest arrival -- new edges arrive after ``o1`` and cannot improve
  an arrival ``<= o1``, and window arrivals can only grow as the left
  boundary advances;
* such a vertex also keeps its exact *parent edge* -- the canonical
  winner (the minimal ``(start, position)`` in-window in-edge achieving
  the arrival, which is provably the edge Algorithm 1's chronological
  scan leaves behind) survives and no new edge can tie it;
* the vertices invalidated by a removed tree edge form the subtree
  below it -- the "dirty cone" -- because arrivals only propagate down
  tree paths.

:class:`IncrementalMSTa` therefore deletes the dirty cone, re-runs a
label-correcting relaxation seeded from the cone's surviving in-edges
plus the added edges, and normalises the parents of every relabelled
vertex to the canonical winner.  The result is *identical* (arrival map
and parent edges) to a cold ``minimum_spanning_tree_a`` on the window's
subgraph -- property-tested, not merely approximated.

Backward slides, zero-duration graphs (where Algorithm 1's invariants
do not hold), and oversized dirty cones fall back to the cold per-window
solve; a drained budget mid-repair falls back too and records a caveat.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.msta import minimum_spanning_tree_a
from repro.core.spanning_tree import TemporalSpanningTree
from repro.resilience.budget import NULL_BUDGET, Budget
from repro.temporal.edge import TemporalEdge, Vertex
from repro.temporal.graph import TemporalGraph
from repro.temporal.index import TemporalEdgeIndex, edge_index_for
from repro.temporal.window import TimeWindow

__all__ = ["IncrementalMSTa"]

#: Dirty cones beyond this fraction of the covered set are rebuilt cold:
#: the repair would touch most of the window anyway, and the cold solve
#: has better constants.
MAX_DIRTY_FRACTION = 0.75


class IncrementalMSTa:
    """Maintains the earliest-arrival tree of a sliding window.

    Parameters
    ----------
    graph:
        The full temporal graph being slid over (immutable).
    root:
        The prescribed root of every window's tree.
    index:
        Optional pre-built :class:`TemporalEdgeIndex`; the shared
        per-graph index is used (and created) when omitted.
    """

    def __init__(
        self,
        graph: TemporalGraph,
        root: Vertex,
        index: Optional[TemporalEdgeIndex] = None,
    ) -> None:
        self.graph = graph
        self.root = root
        self.index = index if index is not None else edge_index_for(graph)
        self._zero_duration = graph.has_zero_duration_edge()
        self._window: Optional[TimeWindow] = None
        self._arrival: Dict[Vertex, float] = {}
        self._parent: Dict[Vertex, TemporalEdge] = {}
        self.stats: Dict[str, int] = {
            "cold_solves": 0,
            "incremental_slides": 0,
            "budget_fallbacks": 0,
        }
        self.last_caveat: Optional[str] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def window(self) -> Optional[TimeWindow]:
        return self._window

    def arrival_map(self) -> Dict[Vertex, float]:
        """The current window's arrival times (a copy; root included)."""
        return dict(self._arrival)

    # ------------------------------------------------------------------
    # The slide protocol
    # ------------------------------------------------------------------
    def advance(
        self,
        window: TimeWindow,
        budget: Optional[Budget] = None,
    ) -> Optional[TemporalSpanningTree]:
        """Move the maintained window to ``window`` and return its tree.

        Returns ``None`` when the root has no incident edge inside the
        window (the sliding sweep's "root absent" outcome); otherwise a
        tree identical to ``minimum_spanning_tree_a`` on the window's
        extracted subgraph.

        ``budget`` is checkpointed inside the repair loops; a drained
        budget never raises out of this method -- it falls back to the
        unbudgeted cold solve and records the event in :attr:`stats` /
        :attr:`last_caveat`.
        """
        self.last_caveat = None
        previous = self._window
        forward = (
            previous is not None
            and window.t_alpha >= previous.t_alpha
            and window.t_omega >= previous.t_omega
        )
        if previous is None or self._zero_duration or not forward:
            return self._cold(window)
        added, removed = self.index.delta_positions(previous, window)
        tick = budget if budget is not None else NULL_BUDGET
        try:
            repaired = self._repair(window, added, removed, tick)
        except _DirtyOverflow:
            return self._cold(window)
        if not repaired:
            # Budget drained mid-patch: degrade to the cold solve (which
            # always completes) and record the caveat.
            self.stats["budget_fallbacks"] += 1
            self.last_caveat = (
                "incremental MST_a patch exceeded budget; window recomputed cold"
            )
            return self._cold(window)
        self.stats["incremental_slides"] += 1
        self._window = window
        return self._emit(window)

    # ------------------------------------------------------------------
    # Cold path (also the fallback target)
    # ------------------------------------------------------------------
    def _cold(self, window: TimeWindow) -> Optional[TemporalSpanningTree]:
        self.stats["cold_solves"] += 1
        self._window = window
        active = self.index.subgraph(window)
        if self.root not in active.vertices:
            self._arrival = {self.root: window.t_alpha}
            self._parent = {}
            return None
        tree = minimum_spanning_tree_a(active, self.root, window)
        self._arrival = dict(tree.arrival_times)
        self._parent = dict(tree.parent_edge)
        return tree

    def _emit(self, window: TimeWindow) -> Optional[TemporalSpanningTree]:
        if not self.index.has_incident_in(window, self.root):
            return None
        return TemporalSpanningTree(self.root, self._parent, window)

    # ------------------------------------------------------------------
    # The incremental repair
    # ------------------------------------------------------------------
    def _repair(
        self,
        window: TimeWindow,
        added: List[int],
        removed: List[int],
        budget: Budget,
    ) -> bool:
        """Patch the arrival/parent maps in place; False on budget drain."""
        from repro.core.errors import BudgetExceededError

        arrival = self._arrival
        parent = self._parent
        try:
            dirty = self._dirty_cone(removed, budget)
            if len(dirty) > MAX_DIRTY_FRACTION * max(len(arrival), 1):
                raise _DirtyOverflow
            for v in dirty:
                arrival.pop(v, None)
                parent.pop(v, None)
            arrival[self.root] = window.t_alpha
            self._relax(window, added, dirty, budget)
        except BudgetExceededError:
            return False
        return True

    def _dirty_cone(self, removed: List[int], budget: Budget) -> Set[Vertex]:
        """Every vertex whose tree path uses a removed edge (by position)."""
        parent = self._parent
        index = self.index
        labels, _, targets, _, _ = index.columns
        seeds = []
        for p in removed:
            v = labels[targets[p]]
            if v in parent and parent[v] == index.edge(p):
                seeds.append(v)
        if not seeds:
            return set()
        children: Dict[Vertex, List[Vertex]] = {}
        for v, edge in parent.items():
            children.setdefault(edge.source, []).append(v)
        dirty: Set[Vertex] = set()
        stack = list(seeds)
        while stack:
            budget.checkpoint()
            v = stack.pop()
            if v in dirty:
                continue
            dirty.add(v)
            stack.extend(children.get(v, ()))
        return dirty

    def _relax(
        self,
        window: TimeWindow,
        added: List[int],
        dirty: Set[Vertex],
        budget: Budget,
    ) -> None:
        """Label-correcting repair over the affected region only."""
        arrival = self._arrival
        parent = self._parent
        index = self.index
        labels, sources, targets, starts, arrivals = index.columns
        t_alpha, t_omega = window.t_alpha, window.t_omega
        inf = float("inf")
        # Work items are (edge position, vertex, arrival): an edge is
        # built only when it becomes a parent.
        work: List[Tuple[int, Vertex, float]] = []
        # Seeds: (a) surviving in-window in-edges of dirty vertices whose
        # source kept its (final) arrival; (b) the added edges.  Every
        # other relaxation is reached by propagation from these.
        for v in dirty:
            for p in index.in_positions_up_to(v, t_omega):
                start = starts[p]
                if start < t_alpha:
                    continue
                source_arrival = arrival.get(labels[sources[p]], inf)
                if start >= source_arrival and arrivals[p] < arrival.get(v, inf):
                    work.append((p, v, arrivals[p]))
        for p in added:
            target = labels[targets[p]]
            source_arrival = arrival.get(labels[sources[p]], inf)
            if starts[p] >= source_arrival and arrivals[p] < arrival.get(target, inf):
                work.append((p, target, arrivals[p]))
        touched: Set[Vertex] = set()
        while work:
            budget.checkpoint()
            edge_in, v, t_arr = work.pop()
            if t_arr >= arrival.get(v, inf):
                continue
            arrival[v] = t_arr
            parent[v] = index.edge(edge_in)
            touched.add(v)
            for p in index.out_positions_enabled(v, t_arr, t_omega):
                target = labels[targets[p]]
                if arrivals[p] < arrival.get(target, inf):
                    work.append((p, target, arrivals[p]))
        # Parent normalisation: the label-correcting pop order is not
        # Algorithm 1's scan order, so re-pick each relabelled vertex's
        # canonical winner -- the minimal (start, position) in-window
        # in-edge achieving its final arrival with a satisfied source.
        for v in touched:
            for p in index.in_positions_at_arrival(v, arrival[v]):
                start = starts[p]
                if start >= t_alpha and start >= arrival.get(labels[sources[p]], inf):
                    parent[v] = index.edge(p)
                    break


class _DirtyOverflow(Exception):
    """Internal: the dirty cone is large enough that cold wins."""
