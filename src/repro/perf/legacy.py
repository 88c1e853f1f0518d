"""Pre-optimisation reference implementations, kept verbatim.

The perf harness reports speedups of the optimised hot paths *measured
against the actual pre-optimisation code*, and the property suite
asserts the optimised paths return bit-identical trees.  Both need the
old code to stay runnable, so the relevant bodies are preserved here
exactly as they stood before the memoisation/hoisting pass:

* :func:`legacy_improved_dst` -- Algorithms 4 and 5 as previously
  implemented in :mod:`repro.steiner.improved`: per-call ``sorted``
  base cases, per-element ``numpy`` cost lookups, and a candidate tree
  materialised for every scanned vertex;
* :func:`legacy_extract_window` -- the pre-columnar
  ``TemporalGraph.restricted``: a full ``O(M)`` generator scan of the
  edge tuple per window query;
* :func:`legacy_earliest_arrival` -- the pre-columnar
  ``earliest_arrival_times``: the heap-based label-setting sweep over
  the per-vertex ascending adjacency
  (:func:`legacy_ascending_adjacency`), in its un-normalised output
  form (the columnar identity suite's earliest-arrival oracle);
* :func:`legacy_transform` -- the Section 4.2 transformation as
  implemented before the columnar batch construction: ``O(M)`` window
  scan, per-edge ``setdefault`` grouping, ``sorted(set(...))`` arrival
  instances, and one ``add_vertex`` / ``add_edge`` call per transformed
  element, with per-edge bisects locating the copy indices;
* :func:`scalar_charikar_dst` / :func:`scalar_improved_dst` /
  :func:`scalar_pruned_dst` -- the full MST_w solver ladder exactly as
  it stood before the batched density kernels
  (:mod:`repro.steiner.kernels`): per-vertex Python scans over the
  memoised ``cost_row`` lists and terminal orders (now read from
  ``terminal_row``, the instance's single sorted-terminal source), one
  budget checkpoint per scanned vertex.  These are the ``dst_kernels``
  bench baselines and the byte-identity oracles for the kernel
  property suite.

Do not "fix" or speed up this module; its value is being frozen.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.transformation import TransformedGraph, copy_label, dummy_label
from repro.resilience.budget import NULL_BUDGET, Budget
from repro.static.digraph import StaticDigraph
from repro.steiner.instance import PreparedInstance
from repro.steiner.tree import ClosureTree
from repro.temporal.edge import TemporalEdge, Vertex
from repro.temporal.graph import TemporalGraph
from repro.temporal.window import TimeWindow


def legacy_extract_window(
    graph: TemporalGraph, window: TimeWindow
) -> TemporalGraph:
    """``G[t_alpha, t_omega]`` exactly as extracted before the columnar store."""
    return TemporalGraph(
        edge
        for edge in graph.edges
        if edge.within(window.t_alpha, window.t_omega)
    )


def legacy_ascending_adjacency(graph: TemporalGraph) -> Any:
    """``(adjacency, starts)``: the per-vertex ascending-start lists ``TemporalGraph`` cached."""
    adjacency: Dict[Vertex, List[TemporalEdge]] = {v: [] for v in graph.vertices}
    for edge in graph.edges:
        adjacency[edge.source].append(edge)
    for out_list in adjacency.values():
        out_list.sort(key=lambda e: e.start)
    return adjacency, {v: [e.start for e in edges] for v, edges in adjacency.items()}


def legacy_earliest_arrival(
    graph: TemporalGraph,
    source: Vertex,
    window: Optional[TimeWindow] = None,
    layout: Any = None,
) -> Dict[Vertex, float]:
    """``earliest_arrival_times`` as it was before the columnar sweep.

    ``layout`` is the graph's :func:`legacy_ascending_adjacency` (built if None).
    """
    if window is None:
        window = TimeWindow.unbounded()
    if source not in graph.vertices:
        return {}
    if layout is None:
        layout = legacy_ascending_adjacency(graph)
    adjacency, starts = layout
    arrival: Dict[Vertex, float] = {source: window.t_alpha}
    settled: Set[Vertex] = set()
    heap: List[Tuple[float, int, Vertex]] = [(window.t_alpha, 0, source)]
    counter = 1
    while heap:
        t, _, u = heapq.heappop(heap)
        if u in settled or t > arrival.get(u, math.inf):
            continue
        settled.add(u)
        idx = bisect_left(starts[u], t)
        for edge in adjacency[u][idx:]:
            if edge.arrival > window.t_omega:
                continue
            if edge.arrival < arrival.get(edge.target, math.inf):
                arrival[edge.target] = edge.arrival
                heapq.heappush(heap, (edge.arrival, counter, edge.target))
                counter += 1
    return arrival


def legacy_transform(
    graph: TemporalGraph,
    root: Vertex,
    window: TimeWindow,
) -> TransformedGraph:
    """The Section 4.2 transformation exactly as implemented pre-columnar."""
    in_window = tuple(
        e for e in graph.edges if e.within(window.t_alpha, window.t_omega)
    )
    grouped: Dict[Vertex, List[float]] = {}
    for edge in in_window:
        if edge.source == edge.target:
            continue
        grouped.setdefault(edge.target, []).append(edge.arrival)
    arrivals_by_target = {v: sorted(set(i)) for v, i in grouped.items()}

    arrival_instances = {
        v: instants for v, instants in arrivals_by_target.items() if v != root
    }
    arrival_instances[root] = [window.t_alpha]

    digraph = StaticDigraph()
    root_label = copy_label(root, 0)
    digraph.add_vertex(root_label)
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


def legacy_improved_dst(
    prepared: PreparedInstance,
    level: int,
    k: Optional[int] = None,
    budget: Optional[Budget] = None,
) -> ClosureTree:
    """``Ã^level(k, root, X)`` exactly as implemented before the perf pass."""
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    terminals = frozenset(prepared.terminals)
    if k is None:
        k = len(terminals)
    if budget is None:
        budget = NULL_BUDGET
    elif budget.is_limited:
        budget.start()
    return _a_improved(prepared, level, k, prepared.root, terminals, budget)


def _base_greedy(
    prepared: PreparedInstance,
    k: int,
    r: int,
    remaining: Set[int],
) -> ClosureTree:
    costs = prepared.closure.costs_from(r)
    chosen = sorted(remaining, key=lambda x: (costs[x], x))[:k]
    tree = ClosureTree.EMPTY
    for x in chosen:
        leaf = ClosureTree(((r, x),), float(costs[x]), frozenset((x,)))
        tree = tree.merged(leaf)
    return tree


def _a_improved(
    prepared: PreparedInstance,
    i: int,
    k: int,
    r: int,
    terminals: FrozenSet[int],
    budget: Budget,
) -> ClosureTree:
    remaining: Set[int] = set(terminals)
    k = min(k, len(remaining))
    if i == 1:
        budget.checkpoint()
        return _base_greedy(prepared, k, r, remaining)

    tree = ClosureTree.EMPTY
    num_vertices = prepared.num_vertices
    while k > 0:
        best: Optional[ClosureTree] = None
        best_density = float("inf")
        frozen_remaining = frozenset(remaining)
        for v in range(num_vertices):
            budget.checkpoint()
            edge_cost = prepared.cost(r, v)
            subtree = _b_prefix(
                prepared, i - 1, k, v, frozen_remaining, edge_cost, budget
            )
            candidate = subtree.with_edge(r, v, edge_cost)
            density = candidate.density
            if best is None or density < best_density:
                best = candidate
                best_density = density
        assert best is not None
        newly_covered = best.covered & remaining
        if not newly_covered:  # pragma: no cover - defensive
            break
        tree = tree.merged(best)
        k -= len(newly_covered)
        remaining -= best.covered
    return tree


def _b_prefix(
    prepared: PreparedInstance,
    i: int,
    k: int,
    r: int,
    terminals: FrozenSet[int],
    incoming_cost: float,
    budget: Budget,
) -> ClosureTree:
    remaining: Set[int] = set(terminals)
    k = min(k, len(remaining))
    best = ClosureTree.EMPTY  # density_with_edge == inf for the empty tree
    best_density = float("inf")

    if i == 1:
        budget.checkpoint()
        costs = prepared.closure.costs_from(r)
        chosen = sorted(remaining, key=lambda x: (costs[x], x))[:k]
        current = ClosureTree.EMPTY
        for x in chosen:
            leaf = ClosureTree(((r, x),), float(costs[x]), frozenset((x,)))
            current = current.merged(leaf)
            density = current.density_with_edge(incoming_cost)
            if density < best_density:
                best = current
                best_density = density
        return best

    current = ClosureTree.EMPTY
    num_vertices = prepared.num_vertices
    while k > 0:
        sub_best: Optional[ClosureTree] = None
        sub_best_density = float("inf")
        frozen_remaining = frozenset(remaining)
        for v in range(num_vertices):
            budget.checkpoint()
            edge_cost = prepared.cost(r, v)
            subtree = _b_prefix(
                prepared, i - 1, k, v, frozen_remaining, edge_cost, budget
            )
            candidate = subtree.with_edge(r, v, edge_cost)
            density = candidate.density
            if sub_best is None or density < sub_best_density:
                sub_best = candidate
                sub_best_density = density
        assert sub_best is not None
        newly_covered = sub_best.covered & remaining
        if not newly_covered:  # pragma: no cover - defensive
            break
        current = current.merged(sub_best)
        k -= len(newly_covered)
        remaining -= sub_best.covered
        density = current.density_with_edge(incoming_cost)
        if density < best_density:
            best = current
            best_density = density
    return best


# ---------------------------------------------------------------------------
# The pre-kernel scalar MST_w ladder (frozen before repro.steiner.kernels).
# Verbatim copies of the Algorithm 3/4/5/6 bodies as they stood when every
# w-iteration walked Python lists vertex by vertex; only the names changed.
# ---------------------------------------------------------------------------


def scalar_charikar_dst(
    prepared: PreparedInstance,
    level: int,
    k: Optional[int] = None,
    budget: Optional[Budget] = None,
) -> ClosureTree:
    """``A^level(k, root, X)`` exactly as implemented before the kernels."""
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    terminals = frozenset(prepared.terminals)
    if k is None:
        k = len(terminals)
    if budget is None:
        budget = NULL_BUDGET
    elif budget.is_limited:
        budget.start()
    return _scalar_a_recursive(prepared, level, k, prepared.root, terminals, budget)


def _scalar_a_recursive(
    prepared: PreparedInstance,
    i: int,
    k: int,
    r: int,
    terminals: FrozenSet[int],
    budget: Budget,
) -> ClosureTree:
    remaining: Set[int] = set(terminals)
    k = min(k, len(remaining))
    tree = ClosureTree.EMPTY

    if i == 1:
        budget.checkpoint()
        row = prepared.cost_row(r)
        taken = 0
        for x in prepared.terminal_row(r)[1]:
            if taken >= k:
                break
            if x not in remaining:
                continue
            leaf = ClosureTree(((r, x),), row[x], frozenset((x,)))
            tree = tree.merged(leaf)
            taken += 1
        return tree

    num_vertices = prepared.num_vertices
    root_row = prepared.cost_row(r)
    while k > 0:
        best: Optional[ClosureTree] = None
        best_density = float("inf")
        for v in range(num_vertices):
            budget.checkpoint()
            edge_cost = root_row[v]
            for k_prime in range(1, k + 1):
                subtree = _scalar_a_recursive(
                    prepared, i - 1, k_prime, v, frozenset(remaining), budget
                )
                candidate = subtree.with_edge(r, v, edge_cost)
                density = candidate.density
                if best is None or density < best_density:
                    best = candidate
                    best_density = density
        assert best is not None
        newly_covered = best.covered & remaining
        if not newly_covered:  # pragma: no cover - cannot happen with k<=|X|
            break
        tree = tree.merged(best)
        k -= len(newly_covered)
        remaining -= best.covered
    return tree


def scalar_improved_dst(
    prepared: PreparedInstance,
    level: int,
    k: Optional[int] = None,
    budget: Optional[Budget] = None,
) -> ClosureTree:
    """``Ã^level(k, root, X)`` exactly as implemented before the kernels."""
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    terminals = frozenset(prepared.terminals)
    if k is None:
        k = len(terminals)
    if budget is None:
        budget = NULL_BUDGET
    elif budget.is_limited:
        budget.start()
    return _scalar_a_improved(prepared, level, k, prepared.root, terminals, budget)


def _scalar_base_greedy(
    prepared: PreparedInstance,
    k: int,
    r: int,
    remaining: Set[int],
) -> ClosureTree:
    row = prepared.cost_row(r)
    chosen: list = []
    for x in prepared.terminal_row(r)[1]:
        if len(chosen) >= k:
            break
        if x in remaining:
            chosen.append(x)
    if not chosen:
        return ClosureTree.EMPTY
    cost = 0.0
    for x in chosen:
        cost += row[x]
    return ClosureTree(
        tuple((r, x) for x in chosen), cost, frozenset(chosen)
    )


def _scalar_a_improved(
    prepared: PreparedInstance,
    i: int,
    k: int,
    r: int,
    terminals: FrozenSet[int],
    budget: Budget,
) -> ClosureTree:
    remaining: Set[int] = set(terminals)
    k = min(k, len(remaining))
    if i == 1:
        budget.checkpoint()
        return _scalar_base_greedy(prepared, k, r, remaining)

    tree = ClosureTree.EMPTY
    num_vertices = prepared.num_vertices
    root_row = prepared.cost_row(r)
    while k > 0:
        best: Optional[ClosureTree] = None
        best_density = float("inf")
        frozen_remaining = frozenset(remaining)
        for v in range(num_vertices):
            budget.checkpoint()
            edge_cost = root_row[v]
            subtree = _scalar_b_prefix(
                prepared, i - 1, k, v, frozen_remaining, edge_cost, budget
            )
            density = subtree.density_with_edge(edge_cost)
            if best is None or density < best_density:
                best = subtree.with_edge(r, v, edge_cost)
                best_density = density
        assert best is not None
        newly_covered = best.covered & remaining
        if not newly_covered:  # pragma: no cover - defensive
            break
        tree = tree.merged(best)
        k -= len(newly_covered)
        remaining -= best.covered
    return tree


def _scalar_b_prefix(
    prepared: PreparedInstance,
    i: int,
    k: int,
    r: int,
    terminals: FrozenSet[int],
    incoming_cost: float,
    budget: Budget,
) -> ClosureTree:
    remaining: Set[int] = set(terminals)
    k = min(k, len(remaining))
    best = ClosureTree.EMPTY  # density_with_edge == inf for the empty tree
    best_density = float("inf")

    if i == 1:
        budget.checkpoint()
        row = prepared.cost_row(r)
        chosen: list = []
        cost = 0.0
        best_len = 0
        for x in prepared.terminal_row(r)[1]:
            if len(chosen) >= k:
                break
            if x not in remaining:
                continue
            chosen.append(x)
            cost += row[x]
            density = (cost + incoming_cost) / len(chosen)
            if density < best_density:
                best_density = density
                best_len = len(chosen)
        if best_len == 0:
            return ClosureTree.EMPTY
        prefix = chosen[:best_len]
        prefix_cost = 0.0
        for x in prefix:
            prefix_cost += row[x]
        return ClosureTree(
            tuple((r, x) for x in prefix), prefix_cost, frozenset(prefix)
        )

    current = ClosureTree.EMPTY
    num_vertices = prepared.num_vertices
    root_row = prepared.cost_row(r)
    while k > 0:
        sub_best: Optional[ClosureTree] = None
        sub_best_density = float("inf")
        frozen_remaining = frozenset(remaining)
        for v in range(num_vertices):
            budget.checkpoint()
            edge_cost = root_row[v]
            subtree = _scalar_b_prefix(
                prepared, i - 1, k, v, frozen_remaining, edge_cost, budget
            )
            density = subtree.density_with_edge(edge_cost)
            if sub_best is None or density < sub_best_density:
                sub_best = subtree.with_edge(r, v, edge_cost)
                sub_best_density = density
        assert sub_best is not None
        newly_covered = sub_best.covered & remaining
        if not newly_covered:  # pragma: no cover - defensive
            break
        current = current.merged(sub_best)
        k -= len(newly_covered)
        remaining -= sub_best.covered
        density = current.density_with_edge(incoming_cost)
        if density < best_density:
            best = current
            best_density = density
    return best


def scalar_pruned_dst(
    prepared: PreparedInstance,
    level: int,
    k: Optional[int] = None,
    budget: Optional[Budget] = None,
) -> ClosureTree:
    """``FinalA^level(k, root, X)`` exactly as implemented before the kernels."""
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    terminals = frozenset(prepared.terminals)
    if k is None:
        k = len(terminals)
    if budget is None:
        budget = NULL_BUDGET
    elif budget.is_limited:
        budget.start()
    return _scalar_final_a(prepared, level, k, prepared.root, terminals, budget)


def _scalar_scan_vertices(
    prepared: PreparedInstance,
    i: int,
    k: int,
    r: int,
    remaining: FrozenSet[int],
    tau: List[float],
    order: List[int],
    budget: Budget,
) -> "Tuple[ClosureTree, float]":
    order.sort(key=tau.__getitem__)
    root_row = prepared.cost_row(r)
    best: Optional[ClosureTree] = None
    best_density = math.inf
    for v in order:
        if best is not None and tau[v] >= best_density:
            break
        budget.checkpoint()
        edge_cost = root_row[v]
        subtree = _scalar_final_b(
            prepared, i - 1, k, v, remaining, edge_cost, budget
        )
        density = subtree.density_with_edge(edge_cost)
        tau[v] = density
        if best is None or density < best_density:
            best = subtree.with_edge(r, v, edge_cost)
            best_density = density
    assert best is not None
    return best, best_density


def _scalar_final_a(
    prepared: PreparedInstance,
    i: int,
    k: int,
    r: int,
    terminals: FrozenSet[int],
    budget: Budget,
) -> ClosureTree:
    remaining: Set[int] = set(terminals)
    k = min(k, len(remaining))
    if i == 1:
        budget.checkpoint()
        return _scalar_base_greedy(prepared, k, r, remaining)

    tree = ClosureTree.EMPTY
    num_vertices = prepared.num_vertices
    tau = [-math.inf] * num_vertices
    order = list(range(num_vertices))
    while k > 0:
        best, _ = _scalar_scan_vertices(
            prepared, i, k, r, frozenset(remaining), tau, order, budget
        )
        newly_covered = best.covered & remaining
        if not newly_covered:  # pragma: no cover - defensive
            break
        tree = tree.merged(best)
        k -= len(newly_covered)
        remaining -= best.covered
    return tree


def _scalar_final_b(
    prepared: PreparedInstance,
    i: int,
    k: int,
    r: int,
    terminals: FrozenSet[int],
    incoming_cost: float,
    budget: Budget,
) -> ClosureTree:
    remaining: Set[int] = set(terminals)
    k = min(k, len(remaining))
    best = ClosureTree.EMPTY
    best_density = math.inf

    if i == 1:
        budget.checkpoint()
        row = prepared.cost_row(r)
        chosen: list = []
        cost = 0.0
        best_len = 0
        for x in prepared.terminal_row(r)[1]:
            if len(chosen) >= k:
                break
            if x not in remaining:
                continue
            chosen.append(x)
            cost += row[x]
            density = (cost + incoming_cost) / len(chosen)
            if density < best_density:
                best_density = density
                best_len = len(chosen)
        if best_len == 0:
            return ClosureTree.EMPTY
        prefix = chosen[:best_len]
        prefix_cost = 0.0
        for x in prefix:
            prefix_cost += row[x]
        return ClosureTree(
            tuple((r, x) for x in prefix), prefix_cost, frozenset(prefix)
        )

    current = ClosureTree.EMPTY
    num_vertices = prepared.num_vertices
    tau = [-math.inf] * num_vertices
    order = list(range(num_vertices))
    while k > 0:
        sub_best, _ = _scalar_scan_vertices(
            prepared, i, k, r, frozenset(remaining), tau, order, budget
        )
        newly_covered = sub_best.covered & remaining
        if not newly_covered:  # pragma: no cover - defensive
            break
        current = current.merged(sub_best)
        k -= len(newly_covered)
        remaining -= sub_best.covered
        density = current.density_with_edge(incoming_cost)
        if density < best_density:
            best = current
            best_density = density
    return best
