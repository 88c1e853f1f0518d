"""Algorithm 6 -- density-based vertex-ordering pruning (``FinalA^i``).

Identical output to Algorithm 4 (Theorem 9), but each w-iteration visits
candidate vertices in ascending order of ``τ(v)`` -- the density their
branch achieved in the *previous* w-iteration.  Because removing
terminals from ``X`` can only worsen a branch's best density, the stale
``τ(v)`` is a lower bound on the current density; once the scan reaches
a vertex whose bound is no better than the current best, every
remaining vertex can be skipped.  The paper reports more than an order
of magnitude speedup from this pruning (our Table 5 bench reproduces
the gap).

The recursion is vectorised in two places:

* a level-3 walk keeps its scalar top level, but its ``FinalB^2``
  children run in lockstep (:class:`repro.steiner.kernels.SubSolves`),
  prefetched along the walk in geometrically growing chunks
  (:func:`_walk_lockstep`), on every real instance whatever its size;
  each child is evaluated only along its own walk prefix;
* a level-2 solve (``FinalA^2``) above the kernel floor runs batched:
  a :class:`repro.steiner.kernels.PrunedScan` owns the tau array and
  walk order for the whole call and replays each w-iteration's
  tau-sorted walk -- early break and winner selection -- as chunked
  array passes instead of per-vertex Python.

Either way the solver checkpoints the scalar walk's tick totals (two
per evaluated level-2 vertex; one plus the child's total per
evaluated level-3 vertex), so rungs trip on the same w-iteration.
Winners, tau values and budget trips are bit-identical to the scalar
walk.  That walk remains for level 2 below the floor and on duck-typed
instrumentation instances, where it is
:func:`repro.steiner.kernels.best_star` -- each walked vertex's
``FinalB^1`` is scored from its terminal row and only the winner's
tree is built -- and for the recursive top levels of level 4 and up
(and of level 3 on duck-typed instances).
"""

from __future__ import annotations

import math
from typing import FrozenSet, List, Optional, Set

from repro.resilience.budget import NULL_BUDGET, Budget
from repro.steiner import kernels
from repro.steiner.instance import PreparedInstance
from repro.steiner.tree import ClosureTree


def pruned_dst(
    prepared: PreparedInstance,
    level: int,
    k: Optional[int] = None,
    budget: Optional[Budget] = None,
) -> ClosureTree:
    """Run ``FinalA^level(k, root, X)`` (Algorithm 6) on a prepared instance.

    ``budget`` (optional) is checkpointed once per scanned candidate
    vertex; see :class:`repro.resilience.Budget`.
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
    return _final_a(prepared, level, k, prepared.root, terminals, budget)


def _scan_vertices(
    prepared: PreparedInstance,
    i: int,
    k: int,
    r: int,
    remaining: FrozenSet[int],
    tau: List[float],
    order: List[int],
    budget: Budget,
    scan: Optional[kernels.PrunedScan] = None,
) -> ClosureTree:
    """One pruned w-iteration: the best candidate branch ``T' ∪ (r, v)``.

    ``tau`` holds each vertex's branch density from the previous
    w-iteration (``-inf`` initially); ``order`` is re-sorted by ``tau``
    before the scan so the early-break prunes all remaining vertices.
    Both are updated in place.  When ``scan`` is given (a batched
    ``FinalA^2``) it owns that state as arrays instead and the walk
    runs in batched chunks; ``tau``/``order`` are then unused.  A
    scalar level-2 walk is :func:`kernels.best_star`, and a level-3
    walk on a real :class:`PreparedInstance` takes its ``FinalB^2``
    children from :func:`_walk_lockstep` instead of the scalar
    recursion.
    """
    root_row = prepared.cost_row(r)
    if scan is not None:
        # Batched FinalA^2: the scan replays the tau-sorted walk in
        # chunked array passes (its own tau/order arrays), reporting
        # each chunk's tick total -- two per evaluated vertex, the scan
        # tick plus the FinalB^1 base tick -- for the solver to
        # checkpoint, so rungs trip on the same w-iteration as the
        # scalar walk below.
        scan.begin(k, remaining)
        while True:
            ticks = scan.step()
            if ticks is None:
                break
            if ticks:
                budget.checkpoint(ticks)
        best_vertex = scan.best_vertex
        assert best_vertex is not None
        subtree = kernels.materialize_prefix(
            best_vertex,
            prepared.terminal_row(best_vertex),
            remaining,
            scan.best_length,
        )
        return subtree.with_edge(r, best_vertex, root_row[best_vertex])
    order.sort(key=tau.__getitem__)
    if i == 2:
        return kernels.best_star(
            prepared, k, r, remaining, root_row, order, tau, budget
        )
    if i == 3 and isinstance(prepared, PreparedInstance):
        return _walk_lockstep(prepared, k, r, remaining, tau, order, budget, root_row)
    best: Optional[ClosureTree] = None
    best_density = math.inf
    for v in order:
        if best is not None and tau[v] >= best_density:
            break
        budget.checkpoint()
        edge_cost = root_row[v]
        subtree = _final_b(
            prepared, i - 1, k, v, remaining, edge_cost, budget
        )
        # Candidate density without materialising the candidate tree.
        density = subtree.density_with_edge(edge_cost)
        tau[v] = density
        if best is None or density < best_density:
            best = subtree.with_edge(r, v, edge_cost)
            best_density = density
    assert best is not None
    return best


def _walk_lockstep(
    prepared: PreparedInstance,
    k: int,
    r: int,
    remaining: FrozenSet[int],
    tau: List[float],
    order: List[int],
    budget: Budget,
    root_row: List[float],
) -> ClosureTree:
    """The level-3 walk of :func:`_scan_vertices` over lockstep children.

    The walk itself -- stale-tau order, early break, winner rule -- is
    the scalar one; only the ``FinalB^2`` children come from a
    :class:`kernels.SubSolves`, solved ahead of the walk in chunks of
    the next vertices that grow geometrically from
    :data:`kernels.LOCKSTEP_CHUNK`, so the children solved past the
    break point are bounded by the last chunk.  Each evaluated vertex
    posts its own tick plus its child's tick total, as the scalar walk
    does, and only the winner's tree is rebuilt.
    """
    children = kernels.SubSolves(prepared, k, remaining, root_row, pruned=True)
    chunk = kernels.LOCKSTEP_CHUNK
    best_vertex: Optional[int] = None
    best_density = math.inf
    for position, v in enumerate(order):
        if best_vertex is not None and tau[v] >= best_density:
            break
        if v not in children.density:
            children.solve(order[position : position + chunk])
            chunk *= kernels.PRUNED_CHUNK_GROWTH
        budget.checkpoint(1 + children.ticks[v])
        density = children.density[v]
        tau[v] = density
        if best_vertex is None or density < best_density:
            best_vertex = v
            best_density = density
    assert best_vertex is not None
    return children.tree(best_vertex).with_edge(
        r, best_vertex, root_row[best_vertex]
    )


def _final_a(
    prepared: PreparedInstance,
    i: int,
    k: int,
    r: int,
    terminals: FrozenSet[int],
    budget: Budget,
) -> ClosureTree:
    """Algorithm 6's top level (Algorithm 4 with pruned vertex scans)."""
    if i == 1:
        budget.checkpoint()
        return kernels.materialize_prefix(
            r, prepared.terminal_row(r), terminals, min(k, len(terminals))
        )
    remaining: Set[int] = set(terminals)
    k = min(k, len(remaining))

    tree = ClosureTree.EMPTY
    num_vertices = prepared.num_vertices
    scan = kernels.pruned_scan(prepared, r) if i == 2 else None
    tau = [-math.inf] * num_vertices if scan is None else []
    order = list(range(num_vertices)) if scan is None else []
    while k > 0:
        best = _scan_vertices(
            prepared, i, k, r, frozenset(remaining), tau, order, budget,
            scan=scan,
        )
        newly_covered = best.covered & remaining
        if not newly_covered:  # pragma: no cover - defensive
            break
        tree = tree.merged(best)
        k -= len(newly_covered)
        remaining -= best.covered
    return tree


def _final_b(
    prepared: PreparedInstance,
    i: int,
    k: int,
    r: int,
    terminals: FrozenSet[int],
    incoming_cost: float,
    budget: Budget,
) -> ClosureTree:
    """``FinalB^i``: Algorithm 5 with the same pruned vertex scan.

    Called at ``i >= 2`` only: a level-2 walk scores its ``FinalB^1``
    children without building them (:func:`kernels.best_star`).
    """
    remaining: Set[int] = set(terminals)
    k = min(k, len(remaining))
    best = ClosureTree.EMPTY
    best_density = math.inf

    current = ClosureTree.EMPTY
    tau = [-math.inf] * prepared.num_vertices
    order = list(range(prepared.num_vertices))
    while k > 0:
        sub_best = _scan_vertices(
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
