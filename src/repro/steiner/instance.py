"""Directed Steiner tree problem instances.

A :class:`DSTInstance` is the user-facing problem statement (a digraph,
a root, and terminals).  The solvers of Sections 4.3-4.5 operate on the
*transitive closure* of the graph, so :func:`prepare_instance` performs
that preprocessing once and yields a :class:`PreparedInstance` carrying
the closure plus dense root/terminal indices.  Only the part of the
graph the root reaches is closed (:func:`rooted_instance`).  The
preparation time is exactly what the paper reports as ``Tprep`` in
Table 4 (together with the temporal transformation, timed by the
benchmark harness).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.core.errors import GraphFormatError, UnreachableRootError
from repro.static.closure import MetricClosure, build_metric_closure
from repro.static.dag import build_metric_closure_auto, build_metric_closure_dag
from repro.static.digraph import StaticDigraph
from repro.static.lazy import LazyMetricClosure

Label = Hashable

#: Bound on the per-instance ``cost_row`` memo (scalar-path lists that
#: duplicate closure rows; the numpy kernel path reads the matrix
#: directly, so only the handful of hot sources -- roots and winning
#: branch vertices -- need to stay resident).
COST_ROW_MEMO_SIZE = 256

#: Bound on the per-instance ``terminal_row`` memo, same rationale
#: (each entry is a pair of ``T``-lists per source vertex).
TERMINAL_ROW_MEMO_SIZE = 256


def _sort_terminal_costs(costs: Any, terminals: Iterable[int]) -> Tuple[Any, Any]:
    """Each row's terminal costs in ascending ``(cost, index)`` order.

    ``costs`` is a ``(rows, n)`` slice of the closure matrix; returns
    ``(rows, T)`` float64 costs and the int64 terminal indices in the
    same order.  A stable sort over ascending-index columns breaks cost
    ties by terminal index.
    """
    cols = np.asarray(sorted(terminals), dtype=np.int64)
    block = costs[:, cols]
    order = np.argsort(block, axis=1, kind="stable")
    return np.take_along_axis(block, order, axis=1), cols[order]


@dataclass(frozen=True)
class DSTInstance:
    """A directed Steiner tree problem: graph, root, terminal set.

    ``terminals`` must not contain the root (a root terminal is trivially
    covered and the paper's formulation excludes it).
    """

    graph: StaticDigraph
    root: Label
    terminals: Tuple[Label, ...]

    def __post_init__(self) -> None:
        if not self.graph.has_vertex(self.root):
            raise GraphFormatError(f"root {self.root!r} is not a graph vertex")
        seen: Set[Label] = set()
        for t in self.terminals:
            if not self.graph.has_vertex(t):
                raise GraphFormatError(f"terminal {t!r} is not a graph vertex")
            if t == self.root:
                raise GraphFormatError("the root must not be listed as a terminal")
            if t in seen:
                raise GraphFormatError(f"duplicate terminal {t!r}")
            seen.add(t)

    @property
    def num_terminals(self) -> int:
        return len(self.terminals)


class PreparedInstance:
    """A DST instance together with its metric closure.

    Attributes
    ----------
    instance:
        The problem the closure was built for; after
        :func:`prepare_instance` that is the :func:`rooted_instance`,
        whose graph maps dense indices back to labels.
    closure:
        The metric closure of the instance graph.
    root:
        Dense index of the root.
    terminals:
        Dense indices of the terminals, in the instance's order.
    """

    __slots__ = (
        "instance",
        "closure",
        "root",
        "terminals",
        "_cost_rows",
        "_terminal_rows",
        "_terminal_block",
    )

    def __init__(
        self,
        instance: DSTInstance,
        closure: MetricClosure,
        root: int,
        terminals: Tuple[int, ...],
    ) -> None:
        self.instance = instance
        self.closure = closure
        self.root = root
        self.terminals = terminals
        self._cost_rows: "OrderedDict[int, List[float]]" = OrderedDict()
        self._terminal_rows: "OrderedDict[int, Tuple[List[float], List[int]]]" = (
            OrderedDict()
        )
        self._terminal_block: Optional[Tuple[Any, Any]] = None

    def __getstate__(
        self,
    ) -> Tuple[DSTInstance, MetricClosure, int, Tuple[int, ...]]:
        """Pickle only the problem data, never the memo dictionaries.

        The ``cost_row`` / ``terminal_row`` memos and the sorted
        terminal block are cheap, per-process acceleration state; shipping them across a process boundary
        would bloat the payload without changing any result (workers
        rebuild them lazily on first use).
        """
        return (self.instance, self.closure, self.root, self.terminals)

    def __setstate__(
        self, state: Tuple[DSTInstance, MetricClosure, int, Tuple[int, ...]]
    ) -> None:
        instance, closure, root, terminals = state
        self.instance = instance
        self.closure = closure
        self.root = root
        self.terminals = terminals
        self._cost_rows = OrderedDict()
        self._terminal_rows = OrderedDict()
        self._terminal_block = None

    @property
    def num_vertices(self) -> int:
        return self.closure.num_vertices

    @property
    def num_terminals(self) -> int:
        return len(self.terminals)

    def cost(self, u: int, v: int) -> float:
        """Closure edge cost (shortest-path distance) ``u -> v``."""
        return self.closure.cost(u, v)

    def cost_row(self, source: int) -> List[float]:
        """``source``'s closure distances as a plain-float list, memoised.

        The scalar greedy loops read ``cost(r, v)`` for every vertex
        ``v`` in every w-iteration; indexing a Python list of floats
        avoids the per-element ``numpy`` scalar boxing that dominated
        those scans.  The memo is a bounded LRU
        (:data:`COST_ROW_MEMO_SIZE` entries): the batched kernel path
        (:mod:`repro.steiner.kernels`) reads the closure matrix
        directly, so only the recurring scalar sources -- roots and
        winning branch vertices -- benefit from residency, and an
        unbounded dict would duplicate the whole ``O(n^2)`` closure as
        Python lists on large instances.
        """
        row = self._cost_rows.get(source)
        if row is None:
            row = self.closure.costs_from(source).tolist()
            self._cost_rows[source] = row
            if len(self._cost_rows) > COST_ROW_MEMO_SIZE:
                self._cost_rows.popitem(last=False)
        else:
            self._cost_rows.move_to_end(source)
        return row

    def terminal_block(self) -> Tuple[Any, Any]:
        """Every source's terminal costs, cheapest first, and their order.

        The ``(n, T)`` :func:`_sort_terminal_costs` block over the whole
        closure, built once per instance with one vectorised stable
        argsort.  The batched kernels scan it directly and
        :meth:`terminal_row` hands out its rows; it is the instance's
        single source of per-source terminal order.
        """
        if self._terminal_block is None:
            self._terminal_block = _sort_terminal_costs(
                self.closure.dist, self.terminals
            )
        return self._terminal_block

    def terminal_row(self, source: int) -> Tuple[List[float], List[int]]:
        """``source``'s terminal costs in ascending ``(cost, index)`` order.

        Returns ``(costs, ids)``: two plain lists of length ``T``, row
        ``source`` of :meth:`terminal_block`.  Every scalar base case
        scans this row -- the ``k`` cheapest remaining terminals form a
        filtered prefix of it -- instead of an ``n``-length
        :meth:`cost_row`.  Bounded like :meth:`cost_row`
        (:data:`TERMINAL_ROW_MEMO_SIZE` entries, LRU eviction).

        A :class:`~repro.static.lazy.LazyMetricClosure` sorts just this
        source's row instead, so a level-1 solve still runs a single
        Dijkstra; the values are the same.
        """
        row = self._terminal_rows.get(source)
        if row is None:
            if isinstance(self.closure, LazyMetricClosure):
                costs, ids = _sort_terminal_costs(
                    self.closure.costs_from(source)[np.newaxis, :], self.terminals
                )
                index = 0
            else:
                costs, ids = self.terminal_block()
                index = source
            row = (costs[index].tolist(), ids[index].tolist())
            self._terminal_rows[source] = row
            if len(self._terminal_rows) > TERMINAL_ROW_MEMO_SIZE:
                self._terminal_rows.popitem(last=False)
        else:
            self._terminal_rows.move_to_end(source)
        return row


def rooted_instance(instance: DSTInstance) -> DSTInstance:
    """The instance induced on the vertices its root reaches, plus terminals.

    A greedy tree (Algorithms 3-6) and an exact optimum only ever use
    vertices the root reaches, so the closure, the terminal block and
    every candidate scan need only those rows.  Kept vertices stay in
    their original index order and every kept out-/in-adjacency list
    keeps its original order (edges to dropped vertices are left out),
    so each kept closure row sees the same floats in the same operation
    order and every ``(cost, index)`` tie-break is unchanged -- see
    ``docs/algorithms.md``.  Terminals the root cannot reach are kept
    so the instance stays well formed; :func:`prepare_instance` rejects
    them unless asked not to.  Returns ``instance`` itself when the root
    reaches every vertex.
    """
    graph = instance.graph
    keep = _reached_from(graph, graph.index_of(instance.root))
    for t in instance.terminals:
        keep[graph.index_of(t)] = 1
    kept = [v for v, flag in enumerate(keep) if flag]
    if len(kept) == graph.num_vertices:
        return instance
    renumber = [-1] * graph.num_vertices
    for new, old in enumerate(kept):
        renumber[old] = new
    labels = graph.labels()
    adjacency = [
        [(renumber[v], w) for v, w in graph.out_neighbors(u) if keep[v]]
        for u in kept
    ]
    in_adjacency = [
        [(renumber[u], w) for u, w in graph.in_neighbors(v) if keep[u]]
        for v in kept
    ]
    sub = StaticDigraph.from_parts(
        [labels[v] for v in kept],
        adjacency,
        in_adjacency,
        sum(len(out) for out in adjacency),
    )
    return DSTInstance(sub, instance.root, instance.terminals)


def _reached_from(graph: StaticDigraph, source: int) -> bytearray:
    """Flags of the vertices ``source`` reaches (itself included)."""
    seen = bytearray(graph.num_vertices)
    seen[source] = 1
    stack = [source]
    while stack:
        for v, _ in graph.out_neighbors(stack.pop()):
            if not seen[v]:
                seen[v] = 1
                stack.append(v)
    return seen


def prepare_instance(
    instance: DSTInstance,
    require_reachable: bool = True,
    closure_method: str = "auto",
) -> PreparedInstance:
    """Close the rooted instance and index the root/terminals.

    The closure is built over :func:`rooted_instance`, so its size is
    set by what the root reaches, not by the whole graph; the returned
    ``prepared.instance`` is that rooted instance, and closure indices
    refer to its graph.

    Parameters
    ----------
    instance:
        The problem statement.
    require_reachable:
        When True (default) every terminal must be reachable from the
        root -- the precondition under which the greedy density
        algorithms terminate with a covering tree.
    closure_method:
        ``"auto"`` (default) uses the vectorised DAG closure whenever
        the graph is acyclic -- which the Section 4.2 transformation
        guarantees for positive-duration temporal graphs -- and falls
        back to one-Dijkstra-per-vertex otherwise; ``"dijkstra"`` and
        ``"dag"`` force a specific method.  Both judge the graph being
        closed, the rooted one: a cycle the root cannot reach does not
        count.

    Raises
    ------
    UnreachableRootError
        If ``require_reachable`` and some terminal is unreachable.
    ValueError
        For an unknown ``closure_method``, or ``"dag"`` when the rooted
        graph is cyclic.
    """
    rooted = rooted_instance(instance)
    if closure_method == "auto":
        closure: Any = build_metric_closure_auto(rooted.graph)
    elif closure_method == "dag":
        closure = build_metric_closure_dag(rooted.graph)
    elif closure_method == "dijkstra":
        closure = build_metric_closure(rooted.graph)
    else:
        raise ValueError(
            f"unknown closure_method {closure_method!r}; "
            "expected 'auto', 'dag', or 'dijkstra'"
        )
    return prepared_from_closure(rooted, closure, require_reachable)


def prepared_from_closure(
    instance: DSTInstance,
    closure: Any,
    require_reachable: bool = True,
) -> PreparedInstance:
    """Wrap ``instance`` and a closure of its graph as a prepared instance.

    Indexes the root and terminals densely and applies the reachability
    guard; every preparation path (eager or lazy) ends here.

    Raises
    ------
    UnreachableRootError
        If ``require_reachable`` and some terminal is unreachable.
    """
    graph = instance.graph
    root = graph.index_of(instance.root)
    terminals = tuple(graph.index_of(t) for t in instance.terminals)
    if require_reachable:
        unreachable = [
            instance.terminals[j]
            for j, t in enumerate(terminals)
            if not math.isfinite(closure.cost(root, t))
        ]
        if unreachable:
            raise UnreachableRootError(
                f"{len(unreachable)} terminals unreachable from root "
                f"{instance.root!r}, e.g. {unreachable[0]!r}"
            )
    return PreparedInstance(instance, closure, root, terminals)


def restrict_reachable(instance: DSTInstance) -> DSTInstance:
    """Drop terminals unreachable from the root (general-window support)."""
    graph = instance.graph
    reached = _reached_from(graph, graph.index_of(instance.root))
    kept = tuple(t for t in instance.terminals if reached[graph.index_of(t)])
    return DSTInstance(graph, instance.root, kept)


def approximation_ratio(i: int, k: int) -> float:
    """The paper's guarantee ``i^2 (i-1) k^(1/i)`` for ``i > 1`` levels.

    For ``i == 1`` the algorithm returns shortest paths to every
    terminal, a ``k``-approximation.
    """
    if i < 1:
        raise ValueError(f"level number must be >= 1, got {i}")
    if k < 1:
        return 1.0
    if i == 1:
        return float(k)
    return i * i * (i - 1) * (k ** (1.0 / i))
