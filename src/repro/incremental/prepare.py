"""Incremental DST preparation: patching a previous window's closure.

Stage 3 of the ``MST_w`` pipeline -- the transitive closure of the
Section 4.2 expansion 𝔾 -- dominates preprocessing time.  When a window
slides, most of 𝔾 is unchanged: a vertex keeps its virtual copies and
all of their out-edges whenever its in-window arrival instances are the
same and no Δ-edge touches it.  This module rebuilds only the closure
rows that can *reach* a changed part of the graph and copies every
other row from the previous window's closure.

Both windows' closures are over their *rooted* instances
(:func:`repro.steiner.instance.rooted_instance`): only the 𝔾 vertices
the root copy reaches, in their original index order.  The patch diffs
the previous window's rooted graph (``old_prepared.instance.graph``)
against the new one.

Exactness argument (each clause is load-bearing):

* a **stable** original vertex has equal arrival-instance lists in both
  windows and is not an endpoint of any Δ-edge, so its copy chain, its
  dummy edge, and its solid out-edges are rebuilt identically, in the
  same relative order (window filtering preserves the edge sequence);
* a 𝔾-row is **clean** when its vertex cannot reach an unstable label
  in *either* expansion: everything such a row's DP recurrence ever
  reads -- reachable labels, edge weights, out-neighbor order -- is
  identical, so the old row is not just equal in value but bitwise
  identical to what a rebuild would produce (the shared
  :func:`repro.static.dag.relax_closure_row` kernel performs the same
  float operations in the same order);
* a rooted graph is closed under successors, so reaching within it is
  reaching within the whole expansion and the clause above carries
  over unchanged.  A label the root reaches now but did not reach
  before (``R_new`` minus ``R_old``) has no old row and is dirty; a row that
  reaches such a label reaches an unstable one (through stable labels
  only it would have been reached before), so it is dirty already.
  Copied columns are the stable labels present in both rooted graphs:
  a clean row's finite entries all lie there, and every other entry is
  ``inf`` in both;
* dirty rows are recomputed with that same kernel in reverse
  topological order of the *new* rooted expansion, reading
  already-final (copied or recomputed) successor rows.

Patching refuses (returns ``None``) whenever the argument breaks: a
cyclic rooted expansion (zero durations), a previous closure that is
not the DAG closure, or a dirty fraction so large that the cold build
wins.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.transformation import TransformedGraph
from repro.resilience.budget import NULL_BUDGET, Budget
from repro.static.dag import DagMetricClosure, relax_closure_row, topological_order
from repro.static.digraph import StaticDigraph
from repro.steiner.instance import (
    PreparedInstance,
    prepared_from_closure,
    rooted_instance,
)
from repro.temporal.edge import Vertex

__all__ = ["patch_prepared_instance", "prepared_from_closure"]

#: Beyond this dirty-row fraction the full rebuild is cheaper.
MAX_DIRTY_ROW_FRACTION = 0.8


def _original_vertex(label: Tuple) -> Vertex:
    """The temporal vertex behind a ``("copy", v, i)`` / ``("dummy", v)`` label."""
    return label[1]


def _reverse_reachable(
    graph: StaticDigraph, seeds: Sequence[int], budget: Budget
) -> Set[int]:
    """All vertices with a path *to* any seed (seeds included)."""
    seen: Set[int] = set(seeds)
    stack: List[int] = list(seeds)
    while stack:
        budget.checkpoint()
        v = stack.pop()
        for u, _ in graph.in_neighbors(v):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def patch_prepared_instance(
    old_transformed: TransformedGraph,
    old_prepared: PreparedInstance,
    new_transformed: TransformedGraph,
    terminals: Sequence[Vertex],
    changed_vertices: Set[Vertex],
    budget: Optional[Budget] = None,
) -> Optional[PreparedInstance]:
    """Derive the new window's :class:`PreparedInstance` from the old one.

    ``changed_vertices`` must contain every endpoint of every Δ-edge
    between the two windows (supersets are allowed -- extra vertices
    only enlarge the recomputed region, never change the result).

    Returns ``None`` when patching is not applicable; the caller then
    falls back to :func:`repro.steiner.instance.prepare_instance`.  On
    success the result is bitwise identical to a cold preparation of
    ``new_transformed`` -- property-tested in ``tests/test_incremental``.

    Raises
    ------
    UnreachableRootError
        If some terminal's dummy is unreachable from the root copy
        (mirrors ``prepare_instance``'s reachability guard).
    """
    old_closure = old_prepared.closure
    if not isinstance(old_closure, DagMetricClosure):
        return None
    new_instance = rooted_instance(new_transformed.dst_instance(terminals=terminals))
    new_graph = new_instance.graph
    old_graph = old_prepared.instance.graph
    order = topological_order(new_graph)
    if order is None:
        return None
    tick = budget if budget is not None else NULL_BUDGET

    old_instances = old_transformed.arrival_instances
    new_instances = new_transformed.arrival_instances
    stable: Set[Vertex] = {
        v
        for v, instants in new_instances.items()
        if v not in changed_vertices and old_instances.get(v) == instants
    }
    # The root's single instance is its window's t_alpha; a moved left
    # boundary makes it unstable through the comparison above already.

    new_labels = new_graph.labels()
    old_labels = old_graph.labels()
    unstable_new = [
        i for i, label in enumerate(new_labels) if _original_vertex(label) not in stable
    ]
    unstable_old = [
        i for i, label in enumerate(old_labels) if _original_vertex(label) not in stable
    ]
    dirty = _reverse_reachable(new_graph, unstable_new, tick)
    dirty.update(
        i for i, label in enumerate(new_labels) if not old_graph.has_vertex(label)
    )
    if len(dirty) > MAX_DIRTY_ROW_FRACTION * new_graph.num_vertices:
        return None
    dirty_old = _reverse_reachable(old_graph, unstable_old, tick)
    for i in dirty_old:
        label = old_labels[i]
        if new_graph.has_vertex(label):
            dirty.add(new_graph.index_of(label))
    if len(dirty) > MAX_DIRTY_ROW_FRACTION * new_graph.num_vertices:
        return None

    n_new = new_graph.num_vertices
    n_old = old_graph.num_vertices
    dist = np.full((n_new, n_new), np.inf, dtype=np.float64)
    next_hop = np.full((n_new, n_new), -1, dtype=np.int32)

    # Stable labels in both rooted graphs: their index pairs drive both
    # the row copy and the next-hop remap.
    stable_new: List[int] = []
    stable_old: List[int] = []
    for i, label in enumerate(new_labels):
        if _original_vertex(label) in stable and old_graph.has_vertex(label):
            stable_new.append(i)
            stable_old.append(old_graph.index_of(label))
    clean_new = [i for i in range(n_new) if i not in dirty]
    if clean_new:
        clean_old = [old_graph.index_of(new_labels[i]) for i in clean_new]
        cols_new = np.asarray(stable_new, dtype=np.intp)
        cols_old = np.asarray(stable_old, dtype=np.intp)
        rows_new = np.asarray(clean_new, dtype=np.intp)
        rows_old = np.asarray(clean_old, dtype=np.intp)
        dist[np.ix_(rows_new, cols_new)] = old_closure.dist[np.ix_(rows_old, cols_old)]
        # Remap next hops from old dense indices to new ones.  Hops on a
        # clean row's finite entries are reachable from it, hence stable
        # and remappable; the sentinel -1 indexes the array's untouched
        # last slot and stays -1.
        remap = np.full(n_old + 1, -1, dtype=np.int32)
        remap[cols_old] = cols_new.astype(np.int32)
        next_hop[np.ix_(rows_new, cols_new)] = remap[
            old_closure.next_hop[np.ix_(rows_old, cols_old)]
        ]

    for u in reversed(order):
        if u in dirty:
            tick.checkpoint()
            relax_closure_row(new_graph, dist, next_hop, u)

    closure = DagMetricClosure(new_graph, dist, next_hop)
    return prepared_from_closure(new_instance, closure)
