"""Algorithm 3 -- the Charikar et al. DST approximation ``A^i(k, r, X)``.

The state-of-the-art baseline the paper improves on.  The recursion
tries, for every vertex ``v`` and every budget ``k' in 1..k``, the tree
``A^{i-1}(k', v, X) ∪ (r, v)`` and greedily commits the lowest-density
candidate, repeating until ``k`` terminals are covered.  Runs on the
metric closure; complexity ``O(n^i k^{2i})``.

This implementation is intentionally faithful to the published
pseudo-code (including the per-``k'`` recomputation that Algorithms 4/5
later eliminate) so the benchmark harness can reproduce the paper's
orders-of-magnitude runtime gaps.

The bottom-level ``(v, k')`` double loop (``i == 2``) takes one of two
forms, and neither builds a tree per candidate:

* above the kernel floor (:func:`repro.steiner.kernels.eligible`) it is
  one batched pass of :mod:`repro.steiner.kernels`: since ``k <=
  |remaining|`` throughout the w-loop, the ``k'`` choices map
  bijectively onto the prefix lengths of the cheapest-first remaining
  order, so the kernels' single argmin returns the identical winner
  without re-running ``A^1`` per ``k'``, and one checkpoint posts the
  same ``n * (1 + k)`` ticks the double loop would;
* below the floor, and on duck-typed instances (instrumentation
  proxies), it is the scalar double loop (:func:`_scored_branch`).
  Each ``A^1(k', v, X)`` is still evaluated on its own, with its own
  tick, read and ``O(k')`` walk of ``v``'s terminal row, so the loop
  does the work the ``O(n^i k^{2i})`` bound counts.  What it skips is
  the allocation: each candidate is scored from the row
  (:func:`repro.steiner.kernels.prefix_density`), and only the
  winner's tree is built.

Deeper levels stay scalar and recursive on purpose, including below the
kernel floor where Algorithms 4 and 6 run their level-2 children in
lockstep (:class:`repro.steiner.kernels.SubSolves`).  Running ``A^3``'s
``(v, k')`` children the same way is bit-identical but makes Charik-3
as fast as Alg6-3 on Table 7's instances, erasing the gap this
baseline exists to show.
"""

from __future__ import annotations

import math
from typing import FrozenSet, List, Optional, Set

from repro.resilience.budget import NULL_BUDGET, Budget
from repro.steiner import kernels
from repro.steiner.instance import PreparedInstance
from repro.steiner.tree import ClosureTree


def charikar_dst(
    prepared: PreparedInstance,
    level: int,
    k: Optional[int] = None,
    budget: Optional[Budget] = None,
) -> ClosureTree:
    """Run ``A^level(k, root, X)`` on a prepared instance.

    Parameters
    ----------
    prepared:
        Instance with metric closure (root must reach all terminals).
    level:
        The number of iterations ``i`` (tree height bound).
    k:
        Number of terminals to cover; defaults to all of them.
    budget:
        Optional cooperative :class:`repro.resilience.Budget`; a
        checkpoint runs once per candidate-vertex expansion and raises
        :class:`repro.core.errors.BudgetExceededError` when exhausted.

    Returns
    -------
    The selected :class:`ClosureTree` (over closure edges).
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
    return _a_recursive(prepared, level, k, prepared.root, terminals, budget)


def _a_recursive(
    prepared: PreparedInstance,
    i: int,
    k: int,
    r: int,
    terminals: FrozenSet[int],
    budget: Budget,
) -> ClosureTree:
    """The recursive body of Algorithm 3."""
    if i == 1:
        # The shared base: the k cheapest closure edges from r to
        # terminals (a filtered prefix of r's terminal row).
        budget.checkpoint()
        return kernels.materialize_prefix(
            r, prepared.terminal_row(r), terminals, k
        )

    remaining: Set[int] = set(terminals)
    k = min(k, len(remaining))
    tree = ClosureTree.EMPTY
    num_vertices = prepared.num_vertices
    root_row = prepared.cost_row(r)
    batched = i == 2 and kernels.eligible(prepared)
    while k > 0:
        best: Optional[ClosureTree] = None
        best_density = float("inf")
        frozen_remaining = frozenset(remaining)
        if batched:
            # Batched scan: the scalar double loop posts 1 tick per
            # vertex plus 1 per A^1 call (k of them per vertex), so one
            # batched checkpoint posts the identical n*(1+k) total and
            # the rung trips on the same w-iteration.
            budget.checkpoint(num_vertices * (1 + k))
            v, best_len, best_density = kernels.best_prefix_candidate(
                prepared, k, frozen_remaining, r
            )
            if best_len == 0:
                # All candidates are infinite: the scalar loop keeps its
                # first candidate (v=0, k'=1), which covers the single
                # cheapest remaining terminal at infinite cost, and the
                # w-loop continues.
                v, best_len = 0, 1
            subtree = kernels.materialize_prefix(
                v, prepared.terminal_row(v), frozen_remaining, best_len
            )
            best = subtree.with_edge(r, v, root_row[v])
        elif i == 2:
            best = _scored_branch(
                prepared, k, r, frozen_remaining, root_row, budget
            )
        else:
            for v in range(num_vertices):
                budget.checkpoint()
                edge_cost = root_row[v]
                for k_prime in range(1, k + 1):
                    subtree = _a_recursive(
                        prepared, i - 1, k_prime, v, frozen_remaining, budget
                    )
                    candidate = subtree.with_edge(r, v, edge_cost)
                    density = candidate.density
                    if best is None or density < best_density:
                        best = candidate
                        best_density = density
        assert best is not None  # num_vertices >= 1 always yields a candidate
        newly_covered = best.covered & remaining
        if not newly_covered:  # pragma: no cover - cannot happen with k<=|X|
            break
        tree = tree.merged(best)
        k -= len(newly_covered)
        remaining -= best.covered
    return tree


def _scored_branch(
    prepared: PreparedInstance,
    k: int,
    r: int,
    remaining: FrozenSet[int],
    root_row: List[float],
    budget: Budget,
) -> ClosureTree:
    """One level-2 w-iteration below the kernel floor, scored unbuilt.

    Algorithm 3's ``(v, k')`` double loop over the candidates
    ``A^1(k', v, X) ∪ (r, v)``.  Each ``A^1`` is still evaluated on its
    own -- one tick, one read of ``v``'s terminal row and an ``O(k')``
    walk of it (:func:`kernels.prefix_density`) -- so the scan does the
    recursion's per-``k'`` work, but it only scores each candidate.
    The first strict-``<`` minimum in ``v``-ascending, ``k'``-ascending
    order wins (``(0, 1)`` when every density is ``inf``), and its tree
    alone is built, from the row it was scored on.
    """
    best_row: Optional[kernels.TerminalRow] = None
    best_vertex = 0
    best_length = 0
    best_density = math.inf
    for v in range(prepared.num_vertices):
        budget.checkpoint()
        edge_cost = root_row[v]
        for k_prime in range(1, k + 1):
            budget.checkpoint()
            row = prepared.terminal_row(v)
            density = kernels.prefix_density(row, remaining, k_prime, edge_cost)
            if best_row is None or density < best_density:
                best_row = row
                best_vertex = v
                best_length = k_prime
                best_density = density
    assert best_row is not None  # num_vertices, k >= 1 give a candidate
    return kernels.materialize_prefix(
        best_vertex, best_row, remaining, best_length
    ).with_edge(r, best_vertex, root_row[best_vertex])
