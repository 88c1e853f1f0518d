"""Exhaustive oracles for small instances.

These are deliberately naive, independent implementations used by the
test suite to certify the optimised algorithms:

* :func:`brute_force_earliest_arrival` -- Bellman-Ford-style repeated
  relaxation until fixpoint (no ordering assumptions at all).
* :func:`brute_force_mstw_weight` -- enumerate every assignment of one
  incoming temporal edge per reachable vertex and keep the cheapest
  assignment forming a valid time-respecting spanning tree.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional

from repro.core.errors import ReproError
from repro.resilience.budget import NULL_BUDGET, Budget
from repro.temporal.edge import TemporalEdge, Vertex
from repro.temporal.graph import TemporalGraph
from repro.temporal.window import TimeWindow

#: Cap on the in-edge assignment product so a mistaken call cannot hang.
MAX_BRUTE_FORCE_COMBINATIONS = 2_000_000


def brute_force_earliest_arrival(
    graph: TemporalGraph,
    root: Vertex,
    window: Optional[TimeWindow] = None,
    budget: Optional[Budget] = None,
) -> Dict[Vertex, float]:
    """Earliest arrival times by relaxation to fixpoint (O(n M) worst case).

    ``budget`` (optional) is checkpointed once per relaxation round,
    weighted by the number of edges scanned.
    """
    if window is None:
        window = TimeWindow.unbounded()
    if budget is None:
        budget = NULL_BUDGET
    elif budget.is_limited:
        budget.start()
    arrival: Dict[Vertex, float] = {root: window.t_alpha}
    inf = math.inf
    changed = True
    while changed:
        budget.checkpoint(max(1, graph.num_edges))
        changed = False
        for edge in graph.edges:
            if not edge.within(window.t_alpha, window.t_omega):
                continue
            if edge.start >= arrival.get(edge.source, inf) and edge.arrival < arrival.get(
                edge.target, inf
            ):
                arrival[edge.target] = edge.arrival
                changed = True
    return arrival


def brute_force_mstw_weight(
    graph: TemporalGraph,
    root: Vertex,
    window: Optional[TimeWindow] = None,
    budget: Optional[Budget] = None,
) -> float:
    """The exact minimum ``MST_w`` weight by exhaustive enumeration.

    Only feasible for tiny graphs; raises :class:`ReproError` when the
    assignment space exceeds ``MAX_BRUTE_FORCE_COMBINATIONS``.
    ``budget`` (optional) is checkpointed once per candidate assignment.
    Returns ``inf`` when no valid spanning tree of ``V_r`` exists
    (cannot happen for reachable ``V_r``, but kept for safety).
    """
    if window is None:
        window = TimeWindow.unbounded()
    if budget is None:
        budget = NULL_BUDGET
    elif budget.is_limited:
        budget.start()
    from repro.temporal.paths import reachable_set

    covered = reachable_set(graph, root, window)
    targets = sorted((v for v in covered if v != root), key=repr)
    if not targets:
        return 0.0

    # Its own in-edge lists: an oracle shares no layout with what it checks.
    in_edges: Dict[Vertex, List[TemporalEdge]] = {}
    for e in graph.edges:
        if e.within(window.t_alpha, window.t_omega) and e.source in covered:
            in_edges.setdefault(e.target, []).append(e)
    candidates: List[List[TemporalEdge]] = []
    for v in targets:
        if v not in in_edges:
            return math.inf
        candidates.append(in_edges[v])

    space = 1
    for options in candidates:
        space *= len(options)
        if space > MAX_BRUTE_FORCE_COMBINATIONS:
            raise ReproError(
                f"brute-force MST_w space exceeds {MAX_BRUTE_FORCE_COMBINATIONS}"
            )

    best = math.inf
    for assignment in itertools.product(*candidates):
        budget.checkpoint()
        weight = sum(e.weight for e in assignment)
        if weight >= best:
            continue
        if _is_valid_tree(root, targets, assignment, window, budget):
            best = weight
    return best


def _is_valid_tree(
    root: Vertex,
    targets: List[Vertex],
    assignment,
    window: TimeWindow,
    budget: Budget = NULL_BUDGET,
) -> bool:
    """Check one in-edge assignment for time-respecting rooted validity."""
    parent_edge = dict(zip(targets, assignment))
    for v in targets:
        # Walk to the root checking the time constraint along the way.
        current = v
        arrival_bound = math.inf
        hops = 0
        while current != root:
            budget.checkpoint()
            edge = parent_edge.get(current)
            if edge is None or edge.arrival > arrival_bound:
                return False
            arrival_bound = edge.start
            current = edge.source
            hops += 1
            if hops > len(targets):
                return False  # parent cycle
        if arrival_bound < window.t_alpha:
            return False
    return True
