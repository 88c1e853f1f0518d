"""Exact directed Steiner trees via subset dynamic programming.

A directed adaptation of the Dreyfus-Wagner algorithm running on the
metric closure:

    f[D][v] = cost of the cheapest tree rooted at ``v`` covering the
              terminal subset ``D``

with the recurrence (computed over bitmask subsets in increasing size)::

    f[{t}][v] = dist(v, t)
    g[D][v]   = min over proper splits D = D1 ∪ D2 of f[D1][v] + f[D2][v]
    f[D][v]   = min( g[D][v], min_u dist(v, u) + g[D][u] )

Complexity ``O(3^k n + 2^k n^2)``, practical for ``k <= ~14`` on the
instance sizes of Tables 7/8.  The solver certifies the ``Opt`` column
that the paper takes from SteinLib's published optima.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.resilience.budget import NULL_BUDGET, Budget
from repro.steiner.instance import PreparedInstance

#: Refuse plainly infeasible subset DPs (3^18 ~ 4e8 split operations).
MAX_EXACT_TERMINALS = 18


def exact_dst_cost(
    prepared: PreparedInstance, budget: Optional[Budget] = None
) -> float:
    """The optimal DST cost for ``prepared`` (root covering all terminals)."""
    table = _subset_table(prepared, budget)
    full = (1 << prepared.num_terminals) - 1
    return float(table[full][prepared.root])


def exact_dst(
    prepared: PreparedInstance, budget: Optional[Budget] = None
) -> Tuple[float, List[Tuple[int, int, float]]]:
    """The optimal cost together with a realising edge set.

    Returns ``(cost, edges)`` where ``edges`` are ``(u, v, w)`` triples
    over base-graph indices obtained by expanding the DP's closure-level
    decisions into shortest paths.
    """
    table = _subset_table(prepared, budget)
    full = (1 << prepared.num_terminals) - 1
    cost = float(table[full][prepared.root])
    closure_edges: Set[Tuple[int, int]] = set()
    if math.isfinite(cost):
        _backtrack(prepared, table, prepared.root, full, closure_edges)
    best_in: Dict[int, Tuple[int, float]] = {}
    # Index order, not set order: equal-weight in-edges keep the first
    # seen, and the choice must not hinge on how indices hash.
    for u, v in sorted(closure_edges):
        for (a, b, w) in prepared.closure.path_edges(u, v):
            current = best_in.get(b)
            if current is None or w < current[1]:
                best_in[b] = (a, w)
    edges = [(a, b, w) for b, (a, w) in best_in.items()]
    return cost, edges


def _subset_table(
    prepared: PreparedInstance, budget: Optional[Budget] = None
) -> List[np.ndarray]:
    """Fill the ``f[D]`` arrays for every terminal subset ``D``.

    ``budget`` (optional) is checkpointed once per subset mask, so a
    deadline interrupts the DP between (vectorised) subset rows.
    """
    if budget is None:
        budget = NULL_BUDGET
    elif budget.is_limited:
        budget.start()
    k = prepared.num_terminals
    if k > MAX_EXACT_TERMINALS:
        raise ValueError(
            f"exact solver limited to {MAX_EXACT_TERMINALS} terminals, got {k}"
        )
    n = prepared.num_vertices
    dist = prepared.closure.dist  # (n, n)
    table: List[np.ndarray] = [np.full(n, np.inf)] * (1 << k)
    for j, t in enumerate(prepared.terminals):
        table[1 << j] = dist[:, t].copy()

    masks_by_size: List[List[int]] = [[] for _ in range(k + 1)]
    for mask in range(1, 1 << k):
        masks_by_size[bin(mask).count("1")].append(mask)

    for size in range(2, k + 1):
        for mask in masks_by_size[size]:
            budget.checkpoint()
            # Merge step: split the subset at v, fixing the lowest bit
            # in one side to avoid enumerating each split twice.
            low = mask & (-mask)
            rest = mask ^ low
            g = np.full(n, np.inf)
            sub = (rest - 1) & rest
            while True:
                d1 = sub | low
                d2 = mask ^ d1
                if d2:
                    np.minimum(g, table[d1] + table[d2], out=g)
                if sub == 0:
                    break
                sub = (sub - 1) & rest
            # Also allow "no split at v": hang the whole subset below a
            # single child u (covered by dist(v, u) + g[u] with u == v
            # giving g itself, since dist diagonal is 0).
            extended = np.min(dist + g[np.newaxis, :], axis=1)
            table[mask] = np.minimum(g, extended)
    return table


def _backtrack(
    prepared: PreparedInstance,
    table: List[np.ndarray],
    v: int,
    mask: int,
    closure_edges: Set[Tuple[int, int]],
) -> None:
    """Recover closure-level edges of one optimal tree for ``(v, mask)``."""
    target = table[mask][v]
    if not math.isfinite(target):  # pragma: no cover - guarded by caller
        return
    dist = prepared.closure.dist
    # Singleton: a direct closure edge to the terminal.
    if mask & (mask - 1) == 0:
        j = mask.bit_length() - 1
        t = prepared.terminals[j]
        if t != v:
            closure_edges.add((v, t))
        return
    eps = 1e-9 * max(1.0, abs(target))
    # Case 1: split at v itself.
    low = mask & (-mask)
    rest = mask ^ low
    sub = rest
    while True:
        d1 = sub | low
        d2 = mask ^ d1
        if d2 and table[d1][v] + table[d2][v] <= target + eps:
            _backtrack(prepared, table, v, d1, closure_edges)
            _backtrack(prepared, table, v, d2, closure_edges)
            return
        if sub == 0:
            break
        sub = (sub - 1) & rest
    # Case 2: descend to the child u minimising dist(v, u) + split(u).
    for u in range(prepared.num_vertices):
        if u == v or not math.isfinite(dist[v, u]):
            continue
        remainder = target - dist[v, u]
        sub = rest
        while True:
            d1 = sub | low
            d2 = mask ^ d1
            if d2 and table[d1][u] + table[d2][u] <= remainder + eps:
                closure_edges.add((v, u))
                _backtrack(prepared, table, u, d1, closure_edges)
                _backtrack(prepared, table, u, d2, closure_edges)
                return
            if sub == 0:
                break
            sub = (sub - 1) & rest
    raise AssertionError(
        "exact DST backtracking failed to re-derive an optimal decision"
    )
