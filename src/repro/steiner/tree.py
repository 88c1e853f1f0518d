"""Trees over the transitive closure and their density bookkeeping.

The greedy DST algorithms assemble trees whose edges are *closure*
edges ``(u, v)`` -- each standing for a shortest path in the underlying
graph.  :class:`ClosureTree` tracks the edge multiset, the total cost,
and which terminals are covered; ``density`` is the paper's
``den(T) = cost(T) / k(T)``.

:func:`expand_closure_tree` is postprocessing Step 1: closure edges are
replaced by their shortest paths in the base graph and every vertex
keeps a single incoming edge, producing a genuine tree whose cost never
exceeds the closure tree's cost.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Iterable, Iterator, List, Tuple

from repro.static.digraph import StaticDigraph
from repro.static.shortest_paths import dijkstra
from repro.steiner.instance import PreparedInstance


class ClosureTree:
    """An immutable tree fragment over closure edges.

    Attributes
    ----------
    edges:
        ``(u, v)`` closure-edge pairs in selection order.
    cost:
        Total closure cost (sum of shortest-path weights).
    covered:
        The terminals covered by this fragment.
    """

    __slots__ = ("edges", "cost", "covered")

    EMPTY: "ClosureTree"

    def __init__(
        self,
        edges: Tuple[Tuple[int, int], ...] = (),
        cost: float = 0.0,
        covered: FrozenSet[int] = frozenset(),
    ) -> None:
        self.edges = edges
        self.cost = cost
        self.covered = covered

    @property
    def num_covered(self) -> int:
        return len(self.covered)

    @property
    def density(self) -> float:
        """``den(T) = cost(T) / k(T)``; infinite for an empty cover."""
        if not self.covered:
            return math.inf
        return self.cost / len(self.covered)

    def density_with_edge(self, edge_cost: float) -> float:
        """``den(T ∪ e)`` for an incoming edge of cost ``edge_cost``."""
        if not self.covered:
            return math.inf
        return (self.cost + edge_cost) / len(self.covered)

    def merged(self, other: "ClosureTree") -> "ClosureTree":
        """The union ``T ∪ T'`` (costs add; covers union)."""
        return ClosureTree(
            self.edges + other.edges,
            self.cost + other.cost,
            self.covered | other.covered,
        )

    def with_edge(self, u: int, v: int, w: float) -> "ClosureTree":
        """The tree extended by closure edge ``(u, v)`` of cost ``w``."""
        return ClosureTree(self.edges + ((u, v),), self.cost + w, self.covered)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ClosureTree(cost={self.cost:g}, covered={len(self.covered)}, "
            f"edges={len(self.edges)})"
        )


ClosureTree.EMPTY = ClosureTree()


def leaf_tree(prepared: PreparedInstance, root: int, terminal: int) -> ClosureTree:
    """The single-closure-edge tree ``root -> terminal``."""
    return ClosureTree(
        ((root, terminal),),
        prepared.cost(root, terminal),
        frozenset((terminal,)),
    )


def expand_closure_tree(
    prepared: PreparedInstance,
    tree: ClosureTree,
) -> Tuple[float, List[Tuple[int, int, float]]]:
    """Postprocessing Step 1: expand closure edges into base-graph edges.

    (a) every closure edge is replaced by its shortest path in the base
    graph; (b) every vertex keeps only its cheapest incoming edge.  The
    result is ``(cost, edges)`` with ``edges`` as ``(u, v, w)`` triples
    over base-graph indices; the cost never exceeds ``tree.cost``.

    On a DAG (such as the transformed graph of Section 4.2) step (b)
    always leaves a tree hanging from the root.  On a cyclic base graph
    it can keep an edge from inside a cycle over the edge that enters
    the cycle, cutting the cycle off from the root.  Then every vertex
    takes its parent in a shortest-path arborescence from the root over
    the union of the expanded paths instead: it keeps one incoming
    union edge per vertex, so its cost is still at most ``tree.cost``.
    """
    best_in: Dict[int, Tuple[int, float]] = {}
    for a, b, w in _path_edges(prepared, tree):
        current = best_in.get(b)
        if current is None or w < current[1]:
            best_in[b] = (a, w)
    if not _hangs_from(prepared.root, best_in):
        best_in = _shortest_path_parents(prepared, _path_edges(prepared, tree))
    edges = [(a, b, w) for b, (a, w) in best_in.items()]
    total = sum(w for _, _, w in edges)
    return total, edges


def _path_edges(
    prepared: PreparedInstance, tree: ClosureTree
) -> Iterator[Tuple[int, int, float]]:
    """The base-graph edges of every closure edge's shortest path."""
    for u, v in tree.edges:
        if u != v:
            yield from prepared.closure.path_edges(u, v)


def _hangs_from(root: int, parents: Dict[int, Tuple[int, float]]) -> bool:
    """Whether the ``parents`` edges form one tree rooted at ``root``."""
    if root in parents:
        return False
    children: Dict[int, List[int]] = {}
    for child, (parent, _) in parents.items():
        children.setdefault(parent, []).append(child)
    reached = 0
    stack = [root]
    while stack:
        for child in children.get(stack.pop(), ()):
            reached += 1
            stack.append(child)
    return reached == len(parents)


def _shortest_path_parents(
    prepared: PreparedInstance, path_edges: Iterable[Tuple[int, int, float]]
) -> Dict[int, Tuple[int, float]]:
    """Each vertex's ``(parent, weight)`` in a shortest-path arborescence.

    :func:`dijkstra` from the root over the graph of ``path_edges``
    (the cheapest of any parallel edges); vertices it does not reach
    get no parent.
    """
    weights: Dict[Tuple[int, int], float] = {}
    for a, b, w in path_edges:
        if w < weights.get((a, b), math.inf):
            weights[a, b] = w
    union = StaticDigraph(range(prepared.num_vertices))
    for (a, b), w in weights.items():
        union.add_edge(a, b, w)
    _, pred = dijkstra(union, prepared.root)
    return {b: (a, weights[a, b]) for b, a in enumerate(pred) if a != -1}


def validate_covering_tree(
    prepared: PreparedInstance,
    edges: List[Tuple[int, int, float]],
) -> bool:
    """Check that ``edges`` contain a path from the root to each terminal.

    Used by tests to confirm the expanded structure actually covers the
    terminal set (Theorem 5's requirement on the DST result).
    """
    adjacency: Dict[int, List[int]] = {}
    for u, v, _ in edges:
        adjacency.setdefault(u, []).append(v)
    seen = {prepared.root}
    stack = [prepared.root]
    while stack:
        u = stack.pop()
        for v in adjacency.get(u, ()):  # pragma: no branch
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return all(t in seen for t in prepared.terminals)
