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

Each w-iteration's vertex scan (:func:`_best_branch`) takes one of
four forms, chosen per call by :func:`_scan_mode` and the level:

* above the kernel floor, the level-2 scan (one ``B^1`` prefix
  evaluation per candidate vertex) is one batched pass of
  :mod:`repro.steiner.kernels` -- one argmin over every ``(vertex,
  prefix)`` pair instead of ``n`` Python loops;
* below the floor, and on duck-typed instances (the instrumentation
  proxies), the level-2 scan is the scalar loop of
  :func:`repro.steiner.kernels.best_star`: it scores each vertex's
  ``B^1`` from its terminal row (:func:`repro.steiner.kernels.best_prefix`)
  and builds no tree but the winner's;
* below the floor, the level-3 scan solves its ``n`` ``B^2`` children
  in lockstep (:class:`repro.steiner.kernels.SubSolves`) and then runs
  the scalar ``v``-ascending winner loop over their densities,
  rebuilding only the winner's tree;
* otherwise -- a level-3 scan above the floor or on a duck-typed
  instance, and every scan at level 4 and up -- the scalar recursive
  loop over ``B^{i-1}`` calls.

Winners, trees, and budget-trip behaviour are bit-identical across
the forms: each posts the scalar loop's tick totals (``2n`` per
level-2 scan, ``1 + child ticks`` per lockstep vertex).
"""

from __future__ import annotations

import math
from typing import FrozenSet, List, Optional, Set

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
    if i == 1:
        # The shared base: the k cheapest closure edges to terminals.
        budget.checkpoint()
        return kernels.materialize_prefix(
            r, prepared.terminal_row(r), terminals, min(k, len(terminals))
        )
    remaining: Set[int] = set(terminals)
    k = min(k, len(remaining))

    tree = ClosureTree.EMPTY
    root_row = prepared.cost_row(r)
    mode = _scan_mode(prepared, i)
    while k > 0:
        best = _best_branch(
            prepared, i, k, r, frozenset(remaining), root_row, budget, mode
        )
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
    w-iterations, covering *at most* ``k`` terminals.  Called at
    ``i >= 2`` only: a level-2 scan scores its ``B^1`` children without
    building them (:func:`kernels.best_star`).
    """
    remaining: Set[int] = set(terminals)
    k = min(k, len(remaining))
    best = ClosureTree.EMPTY  # density_with_edge == inf for the empty tree
    best_density = float("inf")

    current = ClosureTree.EMPTY
    root_row = prepared.cost_row(r)
    mode = _scan_mode(prepared, i)
    while k > 0:
        sub_best = _best_branch(
            prepared, i, k, r, frozenset(remaining), root_row, budget, mode
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


def _scan_mode(prepared: PreparedInstance, i: int) -> Optional[str]:
    """How a level-``i`` call scans its candidate vertices.

    ``"batched"``: a level-2 scan on an instance above the kernel floor,
    one :func:`kernels.best_prefix_candidate` pass.  ``"lockstep"``: a
    level-3 scan below the floor, whose ``B^2`` children run together
    in one :class:`kernels.SubSolves`.  ``None``: a scalar loop,
    :func:`kernels.best_star` at level 2 and the recursive loop above.
    """
    if i == 2 and kernels.eligible(prepared):
        return "batched"
    if i == 3 and kernels.lockstep(prepared):
        return "lockstep"
    return None


def _best_branch(
    prepared: PreparedInstance,
    i: int,
    k: int,
    r: int,
    remaining: FrozenSet[int],
    root_row: List[float],
    budget: Budget,
    mode: Optional[str],
) -> ClosureTree:
    """One w-iteration's best branch ``B^{i-1}(k, v, X, (r, v)) ∪ (r, v)``.

    Scans ``v`` ascending and keeps the first strictly smallest density.
    Every mode posts the scalar loop's tick totals -- one per vertex
    plus whatever its ``B^{i-1}`` child posts -- so rungs trip on the
    same w-iteration whichever mode runs.
    """
    num_vertices = prepared.num_vertices
    if mode == "batched":
        # The scalar loop posts 2 ticks per vertex (scan + B^1 base).
        budget.checkpoint(2 * num_vertices)
        v, length, _ = kernels.best_prefix_candidate(
            prepared, k, remaining, r
        )
        subtree = kernels.materialize_prefix(
            v, prepared.terminal_row(v), remaining, length
        )
        return subtree.with_edge(r, v, root_row[v])

    best_density = float("inf")
    if mode == "lockstep":
        children = kernels.SubSolves(prepared, k, remaining, root_row, pruned=False)
        children.solve(range(num_vertices))
        best_vertex = 0
        for v in range(num_vertices):
            # The scalar loop's tick for v plus every tick its B^2 posts.
            budget.checkpoint(1 + children.ticks[v])
            density = children.density[v]
            if v == 0 or density < best_density:
                best_vertex = v
                best_density = density
        branch = children.tree(best_vertex)
        return branch.with_edge(r, best_vertex, root_row[best_vertex])

    if i == 2:
        # Algorithm 4's scan is Algorithm 6's walk with no stale bounds:
        # every -inf bound is below any density, so all n vertices are
        # scored in index order.
        return kernels.best_star(
            prepared, k, r, remaining, root_row, range(num_vertices),
            [-math.inf] * num_vertices, budget,
        )
    best: Optional[ClosureTree] = None
    for v in range(num_vertices):
        budget.checkpoint()
        edge_cost = root_row[v]
        subtree = _b_prefix(prepared, i - 1, k, v, remaining, edge_cost, budget)
        # Density of ``subtree ∪ (r, v)`` without materialising the
        # candidate tree; the tree is only built when it wins.
        density = subtree.density_with_edge(edge_cost)
        if best is None or density < best_density:
            best = subtree.with_edge(r, v, edge_cost)
            best_density = density
    assert best is not None
    return best
