"""Algorithms 4 and 5 -- the paper's improved DST approximation.

``Ã^i(k, r, X)`` (Algorithm 4) replaces Algorithm 3's ``k`` recursive
calls per candidate vertex with a *single* call to ``B^{i-1}(k, v, X,
(r, v))`` (Algorithm 5).  ``B`` runs the same greedy accumulation as
``A^{i-1}(k, ...)`` but remembers, across its w-iterations, the prefix
tree ``T_c`` whose density together with the incoming edge ``e`` is
minimal -- exactly the best choice over all ``k'`` by Lemmas 3 and 4.
Theorem 7 proves ``Ã^i`` returns the same tree as ``A^i``; Theorem 8
gives the improved ``O(n^i k^i)`` complexity with the unchanged
``i^2 (i-1) k^{1/i}`` ratio.

The bottom-level vertex scan (``i == 2``: one ``B^1`` prefix evaluation
per candidate vertex) dispatches to the batched density kernels of
:mod:`repro.steiner.kernels` on real :class:`PreparedInstance` inputs
-- one argmin over every ``(vertex, prefix)`` pair instead of ``n``
Python loops -- with bit-identical winners, trees, and budget-trip
behaviour (the batched checkpoint posts the same ``2n`` ticks the
scalar scan would).  Duck-typed instances (the instrumentation
proxies) and deeper recursion levels keep the scalar loops below.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Set

from repro.resilience.budget import NULL_BUDGET, Budget
from repro.steiner import kernels
from repro.steiner.instance import PreparedInstance
from repro.steiner.tree import ClosureTree


def improved_dst(
    prepared: PreparedInstance,
    level: int,
    k: Optional[int] = None,
    budget: Optional[Budget] = None,
) -> ClosureTree:
    """Run ``Ã^level(k, root, X)`` (Algorithm 4) on a prepared instance.

    ``budget`` (optional) is checkpointed once per candidate-vertex
    expansion; see :class:`repro.resilience.Budget`.
    """
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


def _a_improved(
    prepared: PreparedInstance,
    i: int,
    k: int,
    r: int,
    terminals: FrozenSet[int],
    budget: Budget,
) -> ClosureTree:
    """Algorithm 4: one ``B`` call per candidate vertex per w-iteration."""
    remaining: Set[int] = set(terminals)
    k = min(k, len(remaining))
    if i == 1:
        # The shared base: the k cheapest closure edges to terminals.
        budget.checkpoint()
        return kernels.materialize_prefix(prepared, r, remaining, k)

    tree = ClosureTree.EMPTY
    num_vertices = prepared.num_vertices
    root_row = prepared.cost_row(r)
    batched = i == 2 and kernels.eligible(prepared)
    while k > 0:
        best: Optional[ClosureTree] = None
        best_density = float("inf")
        frozen_remaining = frozenset(remaining)
        if batched:
            # Batched scan: the scalar loop below posts 2 ticks per
            # vertex (scan + B^1 base), so one batched checkpoint keeps
            # the per-rung budget totals -- and therefore the trip
            # w-iteration -- identical.
            budget.checkpoint(2 * num_vertices)
            v, best_len, best_density = kernels.best_prefix_candidate(
                prepared, k, frozen_remaining, r
            )
            subtree = (
                ClosureTree.EMPTY
                if best_len == 0
                else kernels.materialize_prefix(
                    prepared, v, frozen_remaining, best_len
                )
            )
            best = subtree.with_edge(r, v, root_row[v])
        else:
            for v in range(num_vertices):
                budget.checkpoint()
                edge_cost = root_row[v]
                subtree = _b_prefix(
                    prepared, i - 1, k, v, frozen_remaining, edge_cost, budget
                )
                # Density of ``subtree ∪ (r, v)`` without materialising
                # the candidate tree; the tree is only built when it
                # wins.
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


def _b_prefix(
    prepared: PreparedInstance,
    i: int,
    k: int,
    r: int,
    terminals: FrozenSet[int],
    incoming_cost: float,
    budget: Budget,
) -> ClosureTree:
    """Algorithm 5: best-density greedy prefix ``B^i(k, r, X, e)``.

    Runs the Algorithm-3 greedy accumulation rooted at ``r`` but returns
    the intermediate tree ``T_c`` minimising
    ``den(T_c ∪ e) = (cost(e) + cost(T_c)) / k(T_c)`` over all
    w-iterations, covering *at most* ``k`` terminals.
    """
    remaining: Set[int] = set(terminals)
    k = min(k, len(remaining))
    best = ClosureTree.EMPTY  # density_with_edge == inf for the empty tree
    best_density = float("inf")

    if i == 1:
        # The best-density prefix of r's cheapest-first terminal row.
        budget.checkpoint()
        return kernels.best_prefix_tree(prepared, r, remaining, k, incoming_cost)

    current = ClosureTree.EMPTY
    num_vertices = prepared.num_vertices
    root_row = prepared.cost_row(r)
    batched = i == 2 and kernels.eligible(prepared)
    while k > 0:
        sub_best: Optional[ClosureTree] = None
        sub_best_density = float("inf")
        frozen_remaining = frozenset(remaining)
        if batched:
            # Same batched scan as _a_improved's bottom level; 2n ticks
            # match the scalar loop's per-vertex checkpoints.
            budget.checkpoint(2 * num_vertices)
            v, best_len, sub_best_density = kernels.best_prefix_candidate(
                prepared, k, frozen_remaining, r
            )
            subtree = (
                ClosureTree.EMPTY
                if best_len == 0
                else kernels.materialize_prefix(
                    prepared, v, frozen_remaining, best_len
                )
            )
            sub_best = subtree.with_edge(r, v, root_row[v])
        else:
            for v in range(num_vertices):
                budget.checkpoint()
                edge_cost = root_row[v]
                subtree = _b_prefix(
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
