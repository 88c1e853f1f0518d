"""Batched density kernels for the DST solver ladder.

Every w-iteration of Algorithms 3/4/5/6 answers the same question: over
all candidate vertices ``v`` and all prefix lengths ``j`` of the
cheapest-first remaining-terminal order from ``v``, which pair minimises
``(prefix_cost_j(v) + cost(r, v)) / j``?  The scalar solvers answer it
with nested Python loops over the per-source memo lists; this module
answers it with one batched pass:

* the instance's ``(n, T)`` sorted terminal block
  (:meth:`repro.steiner.instance.PreparedInstance.terminal_block`) is
  the closure sliced to terminal columns and cost-sorted once per
  instance -- the same rows the scalar base cases read through
  ``terminal_row``, so both paths see one ``(cost, index)`` order;
* per scan, the uncovered-terminal bitmask gathers into the sorted
  layout, ``cumsum`` produces every prefix cost and count, and a single
  flattened ``argmin`` over the ``(n, T)`` density matrix picks the
  winner -- row-major first occurrence, which is exactly the scalar
  scan's ``v``-ascending, ``j``-ascending strict-``<`` tie-break.

The results are *bit*-identical to the scalar scans, not merely close:
``cumsum`` accumulates left to right like the scalar running sum (the
masked-out ``+ 0.0`` terms cannot change a non-negative float64), the
density division performs the same float64 operations, and the winning
subtree is materialised with the same construction the scalar code
used.  ``(0, 0, inf)`` is the all-infeasible convention; each solver
maps it back to its own scalar behaviour (Algorithm 4 keeps the empty
subtree, Algorithm 3 covers one unreachable terminal and continues).

Two vectorised forms serve the ``B^{i-1}`` recursion.  A level-2
scan above the size floor :data:`KERNEL_MIN_CELLS` (:func:`eligible`)
is one batched pass over the ``(n, T)`` block: Algorithms 3 and 4 at
any level, and Algorithm 6's ``FinalA^2`` (:class:`PrunedScan`).  A
level-3 scan instead advances all of its level-2 children ``B^2(k, v,
X, (r, v))`` together (:class:`SubSolves`), each child with its own
remaining mask, ``k`` and accumulators: Algorithm 4 below the floor
(:func:`lockstep`), where a single level-2 scan is too small to batch,
and Algorithm 6 at every size, where each child's stale-tau walk is
evaluated only along its prefix.  Levels 4 and up reach those level-3
scans through the scalar recursion above them.

Below the floor a level-2 scan stays a scalar loop, but it builds no
tree per candidate.  Its scorers read the candidate's terminal row and
return the density the candidate tree would have, with that tree's
float operations: :func:`prefix_density` scores Algorithm 3's
``A^1(k', v, X) ∪ (r, v)``, re-walking the row for every ``k'`` as the
faithful baseline must, and :func:`best_prefix` scores the ``B^1``
branch of Algorithms 4 and 6, whose one walk :func:`best_star` is.
The first strict-``<`` winner alone is built, by
:func:`materialize_prefix` from the row it was scored on.

Budget policy stays in the solver modules: callers batch the identical
tick totals (``budget.checkpoint(amount)``) at iteration boundaries, so
a rung trips on exactly the same w-iteration as the scalar scan did.
The exception is the scalar walk :func:`best_star`, which posts the
recursive form's ticks itself, one by one at the same points.
Instrumentation proxies (``CountingInstance``) are not
``PreparedInstance`` objects, so both :func:`eligible` and
:func:`lockstep` decline them and the solvers keep their scalar loops
for those runs; the scalar scans read the closure through the proxy
exactly as the recursive forms did, one terminal row per ``A^1`` or
``B^1`` evaluation.
"""

from __future__ import annotations

import math
from typing import (
    AbstractSet,
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.resilience.budget import Budget
from repro.steiner.instance import PreparedInstance
from repro.steiner.tree import ClosureTree

#: One source's terminal row, ``(costs, ids)`` cheapest first, as
#: :meth:`repro.steiner.instance.PreparedInstance.terminal_row` returns it.
TerminalRow = Tuple[List[float], List[int]]

#: Smallest ``num_vertices * num_terminals`` for which each level-2
#: scan runs as one batched pass.  Below this floor a single scan's
#: numpy dispatch overhead exceeds the scalar loop's whole runtime --
#: and, worse, flattens the *relative* costs the quick-mode experiment
#: tables pin (a vectorised Charikar scan and a vectorised pruned scan
#: cost the same handful of array ops on a toy instance, erasing the
#: pruning gap of Table 5) -- so a lone level-2 solve keeps the scalar
#: path there.  The floor also selects the form of Algorithm 4's
#: level-3 recursion: below it a level-3 scan solves its children in
#: lockstep (:class:`SubSolves`), which pays the dispatch once for all
#: ``n`` children; above it each child's own level-2 scan is already
#: batched and the lockstep pass measured slower.  Algorithm 6's
#: level-3 walks take lockstep children on both sides of the floor:
#: its children evaluate only their walk prefixes, which beat the
#: per-child batched scans above the floor too.  Charikar's ``A^3``
#: stays scalar below the floor for the reason above: batched, it
#: would tie Alg6-3.  Every path is bit-identical.
#: Tests that want the level-2 kernels on small fixtures monkeypatch
#: this to 0.
KERNEL_MIN_CELLS = 4096

#: Walk positions the pruned scan evaluates one-by-one in Python before
#: switching to batched chunks.  After the first w-iteration the
#: tau-ordered walk usually breaks within a handful of vertices, and a
#: short scalar prefix scan (over the LRU-memoised terminal rows) costs
#: far less than even one numpy dispatch at that length.
PRUNED_SCALAR_HEAD = 16

#: First batched chunk of the pruned scan once the scalar head is
#: exhausted; later chunks quadruple (:data:`PRUNED_CHUNK_GROWTH`) so a
#: break-free first iteration covers all ``n`` rows in ``O(log n)``
#: batched passes while the wasted work past a late break point stays
#: bounded by the last chunk.
PRUNED_CHUNK = 32

#: Growth factor between successive chunks of one pruned scan.
PRUNED_CHUNK_GROWTH = 4

#: Most ``children * num_vertices * num_terminals`` cells one lockstep
#: pass of :class:`SubSolves` gathers; larger requests run in groups.
#: A pass holds a handful of arrays of this many cells (256 KiB each
#: as float64), so its memory stays around a megabyte; larger groups
#: measured no faster and raised the experiment tables' peak RSS.
LOCKSTEP_MAX_CELLS = 1 << 15

#: Children the first prefetch of a pruned level-3 walk solves; later
#: prefetches grow by :data:`PRUNED_CHUNK_GROWTH`.
LOCKSTEP_CHUNK = 8


def eligible(prepared: object) -> bool:
    """Whether the batched scans should run for ``prepared``.

    False for non-:class:`PreparedInstance` inputs (the instrumentation
    proxies must keep exercising the scalar loops they count), for
    terminal-free instances (nothing to scan), and for instances below
    the :data:`KERNEL_MIN_CELLS` size floor (where the scalar loops are
    faster than the numpy dispatch overhead).
    """
    return (
        isinstance(prepared, PreparedInstance)
        and bool(prepared.terminals)
        and prepared.num_vertices * len(prepared.terminals) >= KERNEL_MIN_CELLS
    )


def best_prefix_candidate(
    prepared: PreparedInstance,
    k: int,
    remaining: FrozenSet[int],
    source: int,
) -> Tuple[int, int, float]:
    """The scalar scan's winner ``(vertex, prefix_length, density)``.

    Evaluates, for every vertex ``v`` and every prefix length
    ``j <= k`` of the remaining-filtered sorted terminal order from
    ``v``, the density ``(prefix_cost + cost(source, v)) / j``, and
    returns the row-major first occurrence of the minimum -- identical
    to the scalar strict-``<`` winner.  ``(0, 0, inf)`` means no finite
    candidate exists.
    """
    incoming = prepared.closure.costs_from(source)
    rmask = _remaining_mask(prepared.num_vertices, remaining)
    densities, counts, _ = _density_block(
        prepared.terminal_block(), None, incoming, rmask, k
    )
    flat = int(np.argmin(densities))
    vertex, position = divmod(flat, prepared.num_terminals)
    density = float(densities[vertex, position])
    if math.isinf(density):
        return 0, 0, math.inf
    return vertex, int(counts[vertex, position]), density


def _remaining_mask(num_vertices: int, remaining: FrozenSet[int]) -> Any:
    """A boolean scatter mask of the remaining terminals."""
    mask = np.zeros(num_vertices, dtype=bool)
    mask[list(remaining)] = True
    return mask


def _density_block(
    block: Tuple[Any, Any],
    rows: Any,
    incoming: Any,
    remaining_mask: Any,
    k: Any,
) -> Tuple[Any, Any, Any]:
    """Densities, prefix counts and numerators for a block of source rows.

    ``block`` is the instance's sorted terminal block and ``rows``
    indexes it (None for all rows).  ``remaining_mask`` is one
    ``(num_vertices,)`` mask with ``incoming`` shaped ``(rows,)`` and a
    scalar ``k``, or a stack of ``m`` per-child masks ``(m,
    num_vertices)`` with ``incoming`` shaped ``(m, rows)`` and ``k`` an
    ``(m, 1, 1)`` array; the results are ``(rows, T)`` or ``(m, rows,
    T)``.  With per-child masks ``rows`` may also be ``(m, c)``: child
    ``i`` then reads its own ``c`` rows ``rows[i]``.  Returns
    ``(densities, counts, sums)`` where ``sums`` is ``prefix_cost +
    incoming`` and ``densities`` is ``sums / count`` with infeasible
    entries (terminal already covered, or prefix longer than ``k``) set
    to ``inf``.
    """
    sorted_costs, sorted_ids = block
    if rows is not None:
        sorted_costs = sorted_costs[rows]
        sorted_ids = sorted_ids[rows]
    if sorted_ids.ndim == 3:
        mask = remaining_mask[np.arange(len(sorted_ids))[:, None, None], sorted_ids]
    else:
        mask = remaining_mask[..., sorted_ids]
    # int32 counts (a prefix never exceeds T terminals) halve the cost
    # of the cumsum and of the float division below.
    counts = np.cumsum(mask, axis=-1, dtype=np.int32)
    sums = np.cumsum(np.where(mask, sorted_costs, 0.0), axis=-1)
    sums += incoming[..., None]
    densities = sums / np.maximum(counts, 1)
    densities[~(mask & (counts <= k))] = np.inf
    return densities, counts, sums


def _row_minima(densities: Any) -> Tuple[Any, Any]:
    """Each row's minimum density over its last axis and its position."""
    positions = np.argmin(densities, axis=-1)
    return (
        np.take_along_axis(densities, positions[..., None], axis=-1)[..., 0],
        positions,
    )


def prefix_density(
    row: TerminalRow,
    remaining: AbstractSet[int],
    length: int,
    incoming: float,
) -> float:
    """``den(A^1(length, v, X) ∪ e)`` from ``v``'s terminal ``row``, unbuilt.

    The density of the star :func:`materialize_prefix` would build --
    the first ``length`` remaining terminals of the row, their costs
    summed left to right -- with the incoming edge ``e`` of cost
    ``incoming``: ``(cost + incoming) / count``, or ``inf`` when no
    terminal remains.  Algorithm 3's scorer, one call per ``k'``.
    """
    costs, ids = row
    count = 0
    cost = 0.0
    for terminal_cost, terminal in zip(costs, ids):
        if count >= length:
            break
        if terminal not in remaining:
            continue
        count += 1
        cost += terminal_cost
    if not count:
        return math.inf
    return (cost + incoming) / count


def best_prefix(
    row: TerminalRow,
    remaining: AbstractSet[int],
    k: int,
    incoming: float,
) -> Tuple[int, float]:
    """``B^1(k, v, X, e)`` scored on ``v``'s terminal ``row``: the best prefix.

    Walks the cheapest-first row, skipping terminals not in
    ``remaining``, for at most ``k`` picks; the ``j``-prefix has density
    ``(running cost + incoming) / j``.  Returns ``(length, density)``
    for the first prefix achieving the minimum -- :func:`materialize_prefix`
    of that length is the prefix, at the running sum's cost.
    ``length == 0`` (density ``inf``) means no prefix has a finite
    density.  The scorer of Algorithms 4 and 6.
    """
    costs, ids = row
    count = 0
    cost = 0.0
    best_length = 0
    best_density = math.inf
    for terminal_cost, terminal in zip(costs, ids):
        if count >= k:
            break
        if terminal not in remaining:
            continue
        count += 1
        cost += terminal_cost
        density = (cost + incoming) / count
        if density < best_density:
            best_length = count
            best_density = density
    return best_length, best_density


def best_star(
    prepared: PreparedInstance,
    k: int,
    r: int,
    remaining: FrozenSet[int],
    root_row: List[float],
    order: Iterable[int],
    tau: List[float],
    budget: Budget,
) -> ClosureTree:
    """One scalar level-2 w-iteration of Algorithms 4 and 6.

    The best branch ``B^1(k, v, X, (r, v)) ∪ (r, v)``: walks ``order``
    and stops at the first vertex whose stale bound ``tau[v]`` is no
    lower than the best density so far; every vertex before it is
    scored by :func:`best_prefix` on its terminal row, and ``tau[v]``
    takes that density.  The first strict-``<`` minimum wins (the first
    vertex walked when every density is ``inf``), and only its tree is
    built.  This is Algorithm 6's pruned walk; Algorithm 4's scan is
    the same walk over ``range(n)`` with every bound ``-inf``, which
    never breaks.  Each walked vertex posts the recursive form's two
    ticks, the scan tick and the ``B^1`` base tick, and reads its
    terminal row once, as the recursive ``B^1`` call did.
    """
    best_row: Optional[TerminalRow] = None
    best_vertex = 0
    best_length = 0
    best_density = math.inf
    for v in order:
        if best_row is not None and tau[v] >= best_density:
            break
        budget.checkpoint()
        edge_cost = root_row[v]
        budget.checkpoint()
        row = prepared.terminal_row(v)
        length, density = best_prefix(row, remaining, k, edge_cost)
        tau[v] = density
        if best_row is None or density < best_density:
            best_row = row
            best_vertex = v
            best_length = length
            best_density = density
    assert best_row is not None
    return materialize_prefix(
        best_vertex, best_row, remaining, best_length
    ).with_edge(r, best_vertex, root_row[best_vertex])


def materialize_prefix(
    source: int,
    row: TerminalRow,
    remaining: AbstractSet[int],
    length: int,
) -> ClosureTree:
    """The first ``length`` remaining terminals of ``source``'s ``row``.

    A star tree rooted at ``source`` whose cost is summed left to
    right in row order (``EMPTY`` when nothing remains): the ``i == 1``
    greedy base case, and the one tree a level-2 scan builds, its
    winner's.  ``row`` is ``source``'s terminal row, passed in so that
    a scan builds its winner from the row it already read.
    """
    costs, ids = row
    chosen: List[int] = []
    cost = 0.0
    for terminal_cost, terminal in zip(costs, ids):
        if len(chosen) >= length:
            break
        if terminal not in remaining:
            continue
        chosen.append(terminal)
        cost += terminal_cost
    return _star_tree(source, chosen, cost)


def _star_tree(source: int, terminals: List[int], cost: float) -> ClosureTree:
    """Closure edges ``source -> t`` for each terminal, at ``cost``."""
    if not terminals:
        return ClosureTree.EMPTY
    return ClosureTree(
        tuple([(source, terminal) for terminal in terminals]),
        cost,
        frozenset(terminals),
    )


class PrunedScan:
    """Vectorised tau-ordered vertex walk for Algorithm 6's ``FinalA^2``.

    One ``PrunedScan`` lives for the whole w-iteration loop of a
    level-2 ``FinalA^2`` call above the kernel floor (the ``FinalB^2``
    children of level-3 walks run in :class:`SubSolves`) and owns the
    scalar walk's evolving state as arrays: ``tau`` (stale branch
    densities, ``-inf`` initially) and the walk order (re-sorted by
    stale ``tau`` at :meth:`begin`, via a stable argsort -- the same
    permutation as the scalar ``order.sort(key=tau.__getitem__)``).

    :meth:`step` then replays the scalar walk hybrid-style.  The first
    :data:`PRUNED_SCALAR_HEAD` walk positions are evaluated one vertex
    per step with the scalar :func:`best_prefix` scan (over the
    instance's memoised terminal rows): after the first w-iteration
    the early break almost always fires here, and a handful of Python
    evaluations beat any numpy dispatch.  A walk that survives the head
    switches to batched chunks of geometrically growing size, replaying
    the remaining walk with array ops:

    * the early break fires at the first walk position whose stale
      ``tau`` is ``>=`` the running best density over the *evaluated*
      positions before it (an exclusive ``minimum.accumulate`` seeded
      with the carry from earlier steps);
    * the winner is the first evaluated position achieving the minimum
      density (first occurrence == the scalar strict-``<`` update), or
      the first evaluated position at all when every density is
      ``inf``.

    Budget policy stays in the solver: ``step`` returns the tick total
    it consumed (two per evaluated vertex, the scalar scan tick plus
    the ``FinalB^1`` base tick) and the caller checkpoints it, so a
    rung trips on the same w-iteration as the scalar walk.
    """

    __slots__ = (
        "_prepared",
        "_block",
        "_incoming",
        "_tau",
        "_walk",
        "_k",
        "_remaining",
        "_rmask",
        "_cursor",
        "_chunk",
        "_done",
        "best_vertex",
        "best_length",
        "best_density",
    )

    def __init__(self, prepared: PreparedInstance, source: int) -> None:
        self._prepared = prepared
        self._block = prepared.terminal_block()
        self._incoming = prepared.closure.costs_from(source)
        self._tau = np.full(prepared.num_vertices, -np.inf)
        self._walk = np.arange(prepared.num_vertices, dtype=np.int64)
        self._k = 0
        self._remaining: FrozenSet[int] = frozenset()
        self._rmask: Any = None
        self._cursor = 0
        self._chunk = PRUNED_CHUNK
        self._done = True
        self.best_vertex: Optional[int] = None
        self.best_length = 0
        self.best_density = math.inf

    def begin(self, k: int, remaining: FrozenSet[int]) -> None:
        """Start one w-iteration's walk over the stale-tau order."""
        # Stable argsort of the previous walk order by stale tau == the
        # scalar ``order.sort(key=tau.__getitem__)`` permutation.
        self._walk = self._walk[np.argsort(self._tau[self._walk], kind="stable")]
        self._k = k
        self._remaining = remaining
        self._rmask = None  # built lazily: only the chunked steps need it
        self._cursor = 0
        self._chunk = PRUNED_CHUNK
        self._done = False
        self.best_vertex = None
        self.best_length = 0
        self.best_density = math.inf

    def step(self) -> Optional[int]:
        """Walk one step; the budget ticks consumed, or None when done."""
        if self._done or self._cursor >= len(self._walk):
            self._done = True
            return None
        if self._cursor < PRUNED_SCALAR_HEAD:
            return self._step_scalar()
        return self._step_chunk()

    def _step_scalar(self) -> Optional[int]:
        """One scalar-head walk position: the per-vertex prefix scan."""
        vertex = int(self._walk[self._cursor])
        if (
            self.best_vertex is not None
            and float(self._tau[vertex]) >= self.best_density
        ):
            self._done = True
            return None
        incoming = float(self._incoming[vertex])
        self._cursor += 1
        length, density = best_prefix(
            self._prepared.terminal_row(vertex), self._remaining, self._k, incoming
        )
        self._tau[vertex] = density
        if self.best_vertex is None or density < self.best_density:
            self.best_vertex = vertex
            self.best_length = length
            self.best_density = density
        return 2

    def _step_chunk(self) -> Optional[int]:
        """One batched walk chunk, replayed with array ops."""
        if self._rmask is None:
            self._rmask = _remaining_mask(
                self._prepared.num_vertices, self._remaining
            )
        chunk = self._walk[self._cursor : self._cursor + self._chunk]
        self._cursor += len(chunk)
        self._chunk *= PRUNED_CHUNK_GROWTH
        size = len(chunk)
        positions_range = np.arange(size)

        densities, counts, _ = _density_block(
            self._block, chunk, self._incoming[chunk], self._rmask, self._k
        )
        best_positions = np.argmin(densities, axis=1)
        row_density = densities[positions_range, best_positions]
        row_length = counts[positions_range, best_positions]

        # Exclusive running minimum of the densities, seeded with the
        # best carried in from earlier steps: ``prev_best[p]`` is the
        # scalar walk's ``best_density`` when it reaches ``p``.
        carry = self.best_density if self.best_vertex is not None else math.inf
        prev_best = np.empty(size)
        prev_best[0] = carry
        if size > 1:
            prev_best[1:] = np.minimum(
                carry, np.minimum.accumulate(row_density[:-1])
            )
        # The walk evaluates every position it reaches, so the scalar
        # ``best_vertex is not None`` gate holds past position 0.
        breaks = self._tau[chunk] >= prev_best
        if self.best_vertex is None:
            breaks[0] = False
        if breaks.any():
            limit = int(np.argmax(breaks))
            self._done = True
        else:
            limit = size
        if limit == 0:
            return 0
        evaluated = row_density[:limit]
        self._tau[chunk[:limit]] = evaluated

        index = int(np.argmin(evaluated))
        density = float(evaluated[index])
        if math.isinf(density):
            # Every evaluated density is inf: the scalar walk keeps its
            # *first* evaluated vertex (the ``best_vertex is None``
            # arm), and never replaces a prior best with an inf.
            if self.best_vertex is None:
                self.best_vertex = int(chunk[0])
                self.best_length = 0
                self.best_density = math.inf
        elif self.best_vertex is None or density < self.best_density:
            self.best_vertex = int(chunk[index])
            self.best_length = int(row_length[index])
            self.best_density = density
        return 2 * limit


def pruned_scan(prepared: object, source: int) -> Optional[PrunedScan]:
    """A vectorised walk for one ``FinalA^2`` call, or None.

    Returns None whenever :func:`eligible` declines ``prepared``;
    the solver then runs the scalar walk.
    """
    if not eligible(prepared):
        return None
    assert isinstance(prepared, PreparedInstance)
    return PrunedScan(prepared, source)


def lockstep(prepared: object) -> bool:
    """Whether an Algorithm 4 level-3 scan should run its children in lockstep.

    True exactly for the real :class:`PreparedInstance` inputs with
    terminals that :func:`eligible` declines for size: above the floor
    each ``B^2`` child's own level-2 scan is already one batched pass
    (and a lockstep pass there measured slower), and below it the
    children's scalar loops are what a level-3 solve spends its time
    in.  Algorithm 6 does not ask: its level-3 walk takes lockstep
    children on every real instance.
    """
    return (
        isinstance(prepared, PreparedInstance)
        and bool(prepared.terminals)
        and not eligible(prepared)
    )


class SubSolves:
    """Level-2 greedy sub-solves ``B^2(k, v, X, (r, v))`` run in lockstep.

    One instance serves one w-iteration of a level-3 scan: every child
    shares its ``k`` and remaining terminal set ``X`` and differs only
    in the candidate vertex ``v`` (and with it the incoming edge cost
    ``cost(r, v)``, read from ``edge_costs[v]``, and the child's
    closure row).  :meth:`solve` advances a group of children together;
    each child carries its own remaining-terminal mask, budget ``k``,
    cost and cover accumulators, and one lockstep step picks every live
    child's winning ``(u, j)``:

    * ``pruned=False`` -- Algorithm 5's ``B^2``: one
      :func:`_density_block` pass over an ``(m, n, T)`` gather of the
      instance's sorted terminal block, then the row-major first
      ``argmin`` over each child's ``(n, T)`` densities, i.e. the
      scalar ``u``-ascending, ``j``-ascending strict-``<`` winner, and
      ``2n`` ticks per step (the scan tick plus the ``B^1`` base tick);
    * ``pruned=True`` -- Algorithm 6's ``FinalB^2``: the stale-tau walk
      of :class:`PrunedScan` replayed per child (stable argsort by tau,
      break at the first position whose tau is ``>=`` the exclusive
      running best, tau updated on evaluated positions only, winner the
      first in walk order) and 2 ticks per evaluated vertex.  Step 0
      has no stale tau, so every child reads every row under the shared
      ``X`` and ``k``: its masked prefix sums and counts are one ``(n,
      T)`` block per instance, and each child only adds its incoming
      row (:meth:`_first_walk`).  Later steps evaluate each child only
      along its walk prefix, in chunks of :data:`LOCKSTEP_CHUNK`
      positions growing by :data:`PRUNED_CHUNK_GROWTH`; a child leaves
      the chunk loop at its first break (:meth:`_walk`).

    A child's accumulators follow the scalar code's operation order --
    the winning branch costs ``prefix + cost(v, u)``, the running tree
    ``cur + branch``, the child density ``(cur + cost(r, v)) / covered``
    -- so :attr:`density` is bit-identical to the scalar sub-solve's
    ``subtree.density_with_edge(cost(r, v))``.  :attr:`ticks` is the
    tick total the scalar sub-solve would have posted; callers
    checkpoint it (plus their own per-vertex tick) in their unchanged
    ``v`` loop.  Each child's per-step ``(u, j)`` choices are kept, so
    :meth:`tree` rebuilds the winner's :class:`ClosureTree` without a
    second solve and without posting ticks.
    """

    __slots__ = (
        "_prepared",
        "_block",
        "_k",
        "_remaining",
        "_edge_costs",
        "_pruned",
        "_first",
        "density",
        "ticks",
        "_choices",
    )

    def __init__(
        self,
        prepared: PreparedInstance,
        k: int,
        remaining: FrozenSet[int],
        edge_costs: List[float],
        pruned: bool,
    ) -> None:
        self._prepared = prepared
        self._block = prepared.terminal_block()
        self._k = min(k, len(remaining))
        self._remaining = remaining
        self._edge_costs = edge_costs
        self._pruned = pruned
        # The pruned children's shared step-0 block, built on first
        # use: prefix sums, divisors and the infeasible mask, each (n, T).
        self._first: Optional[Tuple[Any, Any, Any]] = None
        #: Each solved child's best density, keyed by its vertex ``v``.
        self.density: Dict[int, float] = {}
        #: Each solved child's scalar tick total, keyed by ``v``.
        self.ticks: Dict[int, int] = {}
        self._choices: Dict[int, Tuple[Any, Any, int, int]] = {}

    def solve(self, vertices: Sequence[int]) -> None:
        """Solve the children rooted at ``vertices``.

        Memory stays bounded whatever the instance size: Algorithm 5's
        groups are capped at :data:`LOCKSTEP_MAX_CELLS` gathered cells,
        and Algorithm 6's at that many cells of per-child ``(m, n)``
        state, since its passes slice themselves to the cap
        (:meth:`_first_walk`, :meth:`_evaluate`).
        """
        cells = self._prepared.num_vertices
        if not self._pruned:
            cells *= self._prepared.num_terminals
        group = max(1, LOCKSTEP_MAX_CELLS // cells)
        for start in range(0, len(vertices), group):
            self._solve_group(vertices[start : start + group])

    def _solve_group(self, vertices: Sequence[int]) -> None:
        prepared = self._prepared
        closure = prepared.closure
        sorted_costs, sorted_ids = self._block
        n = prepared.num_vertices
        m = len(vertices)
        k0 = self._k
        positions = np.arange(prepared.num_terminals)
        # Per-child state, compacted to the live children after each
        # step; ``idx`` maps live rows back to positions in
        # ``vertices``.  ``rmask`` carries a spare all-False column
        # ``n`` that the terminal-drop scatter uses as a sink.
        idx = np.arange(m)
        incoming = np.stack([closure.costs_from(v) for v in vertices])
        edge = np.array([self._edge_costs[v] for v in vertices])
        rmask = np.zeros((m, n + 1), dtype=bool)
        rmask[:, list(self._remaining)] = True
        k = np.full(m, k0, dtype=np.int64)
        cur = np.zeros(m)
        covered = np.zeros(m, dtype=np.int64)
        tau: Any = None
        walk: Any = None
        # Outputs over the whole group.
        best_density = np.full(m, np.inf)
        best_step = np.full(m, -1, dtype=np.int64)
        ticks = np.zeros(m, dtype=np.int64)
        choice_u = np.zeros((k0 + 1, m), dtype=np.int64)
        choice_j = np.zeros((k0 + 1, m), dtype=np.int64)

        step = 0
        while idx.size:
            live = np.arange(idx.size)
            if not self._pruned:
                densities, counts, sums = _density_block(
                    self._block, None, incoming, rmask, k[:, None, None]
                )
                u, j_pos = np.divmod(
                    np.argmin(densities.reshape(idx.size, -1), axis=1),
                    densities.shape[2],
                )
                found = densities[live, u, j_pos]
                j = counts[live, u, j_pos]
                gain = sums[live, u, j_pos]
                ticks[idx] += 2 * n
            else:
                if step == 0:
                    tau, u, j_pos, found = self._first_walk(incoming)
                    walk = np.tile(np.arange(n), (m, 1))
                    ticks[idx] += 2 * n
                else:
                    walk, u, j_pos, found, evaluated = self._walk(
                        incoming, rmask, k, tau, walk
                    )
                    ticks[idx] += 2 * evaluated
                # The winners' prefix length and branch cost: one row
                # per child, the same cumsums as its density pass.
                mask = rmask[live[:, None], sorted_ids[u]]
                j = np.cumsum(mask, axis=-1)[live, j_pos]
                sums = np.cumsum(np.where(mask, sorted_costs[u], 0.0), axis=-1)
                gain = sums[live, j_pos] + incoming[live, u]
            # Rows without a finite candidate cover nothing and stop;
            # their updates below are discarded with them.
            feasible = found < np.inf
            cur += gain
            covered += j
            k -= j
            density = (cur + edge) / np.maximum(covered, 1)
            better = feasible & (density < best_density[idx])
            best_density[idx[better]] = density[better]
            best_step[idx[better]] = step
            choice_u[step, idx] = u
            choice_j[step, idx] = j
            # Drop the chosen terminals: every terminal up to the
            # winning position of ``u``'s sorted row (covered ones are
            # already False; positions past it go to the sink column).
            rmask[
                live[:, None],
                np.where(positions <= j_pos[:, None], sorted_ids[u], n),
            ] = False

            step += 1
            keep = feasible & (k > 0)
            if not keep.all():
                idx = idx[keep]
                incoming = incoming[keep]
                edge = edge[keep]
                rmask = rmask[keep]
                k = k[keep]
                cur = cur[keep]
                covered = covered[keep]
                if self._pruned:
                    tau = tau[keep]
                    walk = walk[keep]

        for c, (v, d, t) in enumerate(
            zip(vertices, best_density.tolist(), ticks.tolist())
        ):
            self.density[v] = d
            self.ticks[v] = t
            self._choices[v] = (choice_u, choice_j, c, int(best_step[c]))

    def _first_walk(self, incoming: Any) -> Tuple[Any, Any, Any, Any]:
        """Step 0 of the pruned children: every row, shared prefixes.

        Every child starts with the same ``X`` and ``k`` and an all
        ``-inf`` tau, so its walk is ``0..n-1`` and never breaks.  The
        masked prefix sums and counts are therefore the same ``(n, T)``
        block for all of them, built once per ``SubSolves``; a child only
        adds its incoming row, divides and masks, exactly the
        :func:`_density_block` operations (in slices of at most
        :data:`LOCKSTEP_MAX_CELLS` cells).  Returns ``(tau, u, j_pos,
        density)``: each child's per-row best densities (its new tau),
        its winner, the winner's prefix position and its density.
        """
        if self._first is None:
            sorted_costs, sorted_ids = self._block
            rmask = _remaining_mask(self._prepared.num_vertices, self._remaining)
            mask = rmask[sorted_ids]
            counts = np.cumsum(mask, axis=-1, dtype=np.int32)
            sums = np.cumsum(np.where(mask, sorted_costs, 0.0), axis=-1)
            feasible = mask & (counts <= self._k)
            self._first = (sums, np.maximum(counts, 1), ~feasible)
        sums, divisor, infeasible = self._first
        m = len(incoming)
        tau = np.empty((m, sums.shape[0]))
        row_j = np.empty(tau.shape, dtype=np.int64)
        per = max(1, LOCKSTEP_MAX_CELLS // sums.size)
        for start in range(0, m, per):
            densities = sums + incoming[start : start + per, :, None]
            densities /= divisor
            densities[:, infeasible] = np.inf
            tau[start : start + per], row_j[start : start + per] = _row_minima(
                densities
            )
        # First minimum in walk (== index) order; an all-inf row keeps
        # position 0, as the scalar walk keeps its first vertex.
        live = np.arange(m)
        u = np.argmin(tau, axis=1)
        return tau, u, row_j[live, u], tau[live, u]

    def _walk(
        self, incoming: Any, rmask: Any, k: Any, tau: Any, walk: Any
    ) -> Tuple[Any, Any, Any, Any, Any]:
        """A later step of the pruned children: each walk's prefix only.

        Re-sorts every child's walk by its stale ``tau`` (stable
        argsort), then evaluates the walks chunk by chunk: positions
        ``[start, stop)`` of every child still walking, from
        :data:`LOCKSTEP_CHUNK` positions growing by
        :data:`PRUNED_CHUNK_GROWTH`.  A position breaks the walk when
        its stale tau is ``>=`` the best density before it (position 0
        never does), and a child leaves the loop at its first break.
        ``tau`` is updated in place on the evaluated positions.  Returns
        ``(walk, u, j_pos, density, evaluated)`` with ``evaluated`` each
        child's count of evaluated positions.
        """
        n = self._prepared.num_vertices
        p = len(walk)
        rows = np.arange(p)[:, None]
        walk_tau = tau[rows, walk]
        resort = np.argsort(walk_tau, axis=1, kind="stable")
        walk = walk[rows, resort]
        walk_tau = walk_tau[rows, resort]

        best = np.full(p, np.inf)
        best_pos = np.zeros(p, dtype=np.int64)
        best_j = np.zeros(p, dtype=np.int64)
        evaluated = np.zeros(p, dtype=np.int64)
        active = np.arange(p)
        start = 0
        size = LOCKSTEP_CHUNK
        while active.size and start < n:
            stop = min(start + size, n)
            size *= PRUNED_CHUNK_GROWTH
            cols = walk[active, start:stop]
            stale = walk_tau[active, start:stop]
            row_density, row_j = self._evaluate(active, cols, incoming, rmask, k)

            # Exclusive running minimum seeded with each child's best
            # so far: the scalar walk's ``best_density`` at each position.
            carry = best[active]
            prev_best = np.empty_like(row_density)
            prev_best[:, 0] = carry
            prev_best[:, 1:] = np.minimum(
                carry[:, None], np.minimum.accumulate(row_density[:, :-1], axis=1)
            )
            breaks = stale >= prev_best
            if start == 0:
                breaks[:, 0] = False
            broke = breaks.any(axis=1)
            limit = np.where(broke, np.argmax(breaks, axis=1), stop - start)
            inside = np.arange(stop - start) < limit[:, None]
            tau[active[:, None], cols] = np.where(inside, row_density, stale)
            evaluated[active] += limit

            # The first evaluated minimum replaces the best only when
            # strictly lower; an all-inf walk keeps position 0.
            lowest, q = _row_minima(np.where(inside, row_density, np.inf))
            lower = lowest < carry
            q = q[lower]
            winners = active[lower]
            best[winners] = lowest[lower]
            best_pos[winners] = start + q
            best_j[winners] = row_j[lower, q]
            active = active[~broke]
            start = stop

        u = walk[np.arange(p), best_pos]
        return walk, u, best_j, best, evaluated

    def _evaluate(
        self, lanes: Any, cols: Any, incoming: Any, rmask: Any, k: Any
    ) -> Tuple[Any, Any]:
        """Row minima of the children ``lanes`` at the vertices ``cols``.

        ``cols`` is ``(a, c)``: ``c`` walk positions per child.  Runs
        :func:`_density_block` with each child's own mask and ``k`` in
        slices of at most :data:`LOCKSTEP_MAX_CELLS` gathered cells and
        returns :func:`_row_minima` of the ``(a, c, T)`` densities.
        """
        a, c = cols.shape
        row_density = np.empty((a, c))
        row_j = np.empty((a, c), dtype=np.int64)
        per = max(1, LOCKSTEP_MAX_CELLS // (c * self._prepared.num_terminals))
        for start in range(0, a, per):
            rows = lanes[start : start + per]
            block = cols[start : start + per]
            densities, _, _ = _density_block(
                self._block,
                block,
                incoming[rows[:, None], block],
                rmask[rows],
                k[rows, None, None],
            )
            row_density[start : start + per], row_j[start : start + per] = (
                _row_minima(densities)
            )
        return row_density, row_j

    def tree(self, v: int) -> ClosureTree:
        """The solved child ``v``'s best tree, rebuilt from its choices.

        Replays the recorded ``(u, j)`` steps up to the best one with the
        scalar sub-solve's own tree operations, so edges, cost and cover
        are the scalar tree's.
        """
        choice_u, choice_j, c, best = self._choices[v]
        prepared = self._prepared
        row = prepared.cost_row(v)
        remaining = set(self._remaining)
        current = ClosureTree.EMPTY
        for step in range(best + 1):
            u = int(choice_u[step, c])
            branch = materialize_prefix(
                u, prepared.terminal_row(u), remaining, int(choice_j[step, c])
            ).with_edge(v, u, row[u])
            current = current.merged(branch)
            remaining -= branch.covered
        return current
