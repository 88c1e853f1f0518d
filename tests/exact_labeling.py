"""Test oracle: a second exact DST solver by label-setting search.

The Dreyfus-Wagner DP (:mod:`repro.steiner.exact`) fills subset tables
bottom-up; this solver explores the same state space
``(v, S) -> cheapest tree rooted at v covering terminal subset S``
with a Dijkstra-style priority queue instead (the classical
Steiner-Dijkstra of Polzin & Vahdati Daneshmand).  Because the two
implementations share no code path, agreement between them certifies
the optimum far more strongly than either alone --
``test_exact_labeling.py`` runs them against each other on randomized
instances.  It is a test oracle only, so it lives with the tests.

Transitions from a settled label ``(v, S)`` of cost ``c``:

* **grow**: merge with every previously settled disjoint label
  ``(v, S')`` to form ``(v, S ∪ S')`` at cost ``c + c'``;
* **extend**: for every vertex ``u``, form ``(u, S)`` at cost
  ``c + dist(u, v)`` over the metric closure.

Labels are settled in non-decreasing cost order, so the first time
``(root, all terminals)`` is popped its cost is optimal.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Tuple

from repro.steiner.exact import MAX_EXACT_TERMINALS
from repro.steiner.instance import PreparedInstance


def exact_dst_cost_labeling(prepared: PreparedInstance) -> float:
    """Optimal DST cost via label-setting search.

    Raises
    ------
    ValueError
        If the instance has more than ``MAX_EXACT_TERMINALS`` terminals.
    """
    k = prepared.num_terminals
    if k > MAX_EXACT_TERMINALS:
        raise ValueError(
            f"exact solver limited to {MAX_EXACT_TERMINALS} terminals, got {k}"
        )
    if k == 0:
        return 0.0
    n = prepared.num_vertices
    dist = prepared.closure.dist
    full = (1 << k) - 1
    target_state = (prepared.root, full)

    best: Dict[Tuple[int, int], float] = {}
    settled_masks: List[List[int]] = [[] for _ in range(n)]
    heap: List[Tuple[float, int, int]] = []

    for j, t in enumerate(prepared.terminals):
        state = (t, 1 << j)
        best[state] = 0.0
        heapq.heappush(heap, (0.0, t, 1 << j))

    settled = set()
    while heap:
        cost, v, mask = heapq.heappop(heap)
        state = (v, mask)
        if state in settled or cost > best.get(state, math.inf):
            continue
        if state == target_state:
            return cost
        settled.add(state)
        settled_masks[v].append(mask)

        # grow: merge with settled disjoint subtrees at the same vertex
        for other in settled_masks[v]:
            if other & mask:
                continue
            merged = (v, mask | other)
            new_cost = cost + best[(v, other)]
            if new_cost < best.get(merged, math.inf):
                best[merged] = new_cost
                heapq.heappush(heap, (new_cost, v, mask | other))

        # extend: hang the subtree below any other vertex
        column = dist[:, v]
        for u in range(n):
            w = column[u]
            if u == v or not math.isfinite(w):
                continue
            extended = (u, mask)
            new_cost = cost + float(w)
            if new_cost < best.get(extended, math.inf):
                best[extended] = new_cost
                heapq.heappush(heap, (new_cost, u, mask))

    return best.get(target_state, math.inf)
