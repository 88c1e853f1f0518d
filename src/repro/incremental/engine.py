"""The sliding-window query engine: advance by delta, update every layer.

:class:`SlidingEngine` holds one window's worth of derived state -- the
incremental ``MST_a`` maintainer, the previous window's transformed
graph / prepared DST instance, and the previous solve's iteration
densities -- and advances it window by window:

==================  =================================================
pipeline layer       slide behaviour
==================  =================================================
edge extraction      ``TemporalEdgeIndex.delta`` -- ``O(log M + |Δ|)``
``MST_a``            dirty-cone repair (:class:`IncrementalMSTa`)
DST preparation      closure-row patching (:mod:`.prepare`)
``MST_w`` solve      warm density bound into Algorithm 6's pruning
==================  =================================================

Every layer certifies its shortcut and falls back to the cold
computation when it cannot, so a sweep through the engine is
**output-identical** to the cold :func:`repro.core.sliding.sliding_msta`
/ :func:`~repro.core.sliding.sliding_mstw` loops -- property-tested in
``tests/test_property_incremental.py`` -- only faster.

Budgets: ``measure_*`` accept an optional
:class:`repro.resilience.Budget` that is checkpointed inside the
incremental repair loops only.  A drained budget never raises out of
the engine -- the affected window degrades to its (always-completing,
unbudgeted) cold computation and the resulting
:class:`~repro.core.sliding.WindowMeasurement` carries a ``caveat``
recording the degradation.
"""

from __future__ import annotations

import math
from typing import List, Optional, Set, Tuple

from repro import faults
from repro.core.errors import BudgetExceededError, UnreachableRootError
from repro.core.postprocess import closure_tree_to_temporal
from repro.core.sliding import WindowMeasurement
from repro.core.transformation import TransformedGraph, transform_temporal_graph
from repro.incremental.msta import IncrementalMSTa
from repro.incremental.prepare import patch_prepared_instance
from repro.resilience.budget import Budget
from repro.resilience.retry import DEFAULT_RETRY_POLICY, TRANSIENT_ERRORS
from repro.steiner.charikar import charikar_dst
from repro.steiner.improved import improved_dst
from repro.steiner.instance import PreparedInstance, prepare_instance
from repro.steiner.pruned import pruned_dst
from repro.temporal.edge import TemporalEdge, Vertex
from repro.temporal.graph import TemporalGraph
from repro.temporal.index import TemporalEdgeIndex, edge_index_for
from repro.temporal.window import TimeWindow

__all__ = ["SlidingEngine"]

#: Warm-bound slack: the previous window's worst iteration density is
#: multiplied by this before being used as the new window's pruning
#: bound.  Looser slack certifies more often (fewer cold re-runs);
#: tighter slack skips more candidates.  2.0 certifies essentially
#: always on gradual slides while still skipping far-away vertices.
WARM_BOUND_SLACK = 2.0


class SlidingEngine:
    """Incrementally answers ``MST_a`` / ``MST_w`` queries along a slide.

    Parameters
    ----------
    graph:
        The full temporal graph being slid over (immutable).
    root:
        The prescribed root of every window's tree.
    level / algorithm:
        Forwarded to the ``MST_w`` solve (Algorithm 6 by default);
        warm starting applies only to ``algorithm="pruned"`` with
        ``level >= 2``.
    warm_slack:
        See :data:`WARM_BOUND_SLACK`.

    Windows may arrive in any order; only a forward slide (both
    boundaries non-decreasing) activates the incremental paths, other
    moves recompute cold.  All statistics accumulate in :attr:`stats`.
    """

    def __init__(
        self,
        graph: TemporalGraph,
        root: Vertex,
        level: int = 2,
        algorithm: str = "pruned",
        warm_slack: float = WARM_BOUND_SLACK,
        index: Optional[TemporalEdgeIndex] = None,
    ) -> None:
        self.graph = graph
        self.root = root
        self.level = level
        self.algorithm = algorithm
        self.warm_slack = warm_slack
        self.index = index if index is not None else edge_index_for(graph)
        self.msta = IncrementalMSTa(graph, root, self.index)
        self._prev: Optional[
            Tuple[TimeWindow, TransformedGraph, PreparedInstance]
        ] = None
        self._density_log: List[float] = []
        self.stats = {
            "windows": 0,
            "patched_prepares": 0,
            "cold_prepares": 0,
            "warm_solves": 0,
            "budget_fallbacks": 0,
            "fault_retries": 0,
            "fault_cold_prepares": 0,
        }

    # ------------------------------------------------------------------
    # MST_a
    # ------------------------------------------------------------------
    def measure_msta(
        self, window: TimeWindow, budget: Optional[Budget] = None
    ) -> WindowMeasurement:
        """One window of the earliest-arrival sweep.

        Identical to the corresponding ``sliding_msta`` iteration
        (modulo the ``caveat`` field, set only on budget degradation).
        A drained budget never raises out of this method: the window
        degrades to the cold computation and the caveat records it.
        """
        self.stats["windows"] += 1
        tree = self.msta.advance(window, budget=budget)
        return WindowMeasurement(window, tree, caveat=self.msta.last_caveat)

    # ------------------------------------------------------------------
    # MST_w
    # ------------------------------------------------------------------
    def measure_mstw(
        self, window: TimeWindow, budget: Optional[Budget] = None
    ) -> WindowMeasurement:
        """One window of the minimum-cost sweep.

        Identical to the corresponding ``sliding_mstw`` iteration: the
        reachable set comes from the maintained ``MST_a`` (its arrival
        map's domain *is* ``V_r``), the DST preparation is patched from
        the previous window when certifiable, and the pruned solve is
        warm-started with the previous window's density bound.
        A drained budget never raises out of this method: each layer
        degrades to its cold computation and the caveat records it.
        """
        self.stats["windows"] += 1
        caveats: List[str] = []
        prev_window = self._prev[0] if self._prev is not None else None
        self.msta.advance(window, budget=budget)
        if self.msta.last_caveat:
            caveats.append(self.msta.last_caveat)
        terminals = sorted(
            (v for v in self.msta.covered() if v != self.root), key=repr
        )
        if not terminals:
            # Root absent from the window or reaching nothing: the cold
            # sweep's None-measurement outcome.
            return WindowMeasurement(window, None, caveat=_join(caveats))
        # The parent graph's store slices the window in the window
        # subgraph's (chronological) edge order.
        transformed = transform_temporal_graph(
            self.graph, self.root, window, chronological=True
        )
        try:
            prepared = self._prepare(
                window, prev_window, transformed, terminals, budget, caveats
            )
        except UnreachableRootError:
            return WindowMeasurement(window, None, caveat=_join(caveats))
        closure_tree = self._solve(prepared)
        tree = closure_tree_to_temporal(transformed, prepared, closure_tree)
        self._prev = (window, transformed, prepared)
        return WindowMeasurement(window, tree, caveat=_join(caveats))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _prepare(
        self,
        window: TimeWindow,
        prev_window: Optional[TimeWindow],
        transformed: TransformedGraph,
        terminals: List[Vertex],
        budget: Optional[Budget],
        caveats: List[str],
    ) -> PreparedInstance:
        prepared: Optional[PreparedInstance] = None
        if self._prev is not None and prev_window is not None:
            _, prev_transformed, prev_prepared = self._prev
            added, removed = self.index.delta(prev_window, window)
            changed = _endpoints(added) | _endpoints(removed)
            if budget is not None:
                budget.start()
            policy = DEFAULT_RETRY_POLICY
            for attempt in range(policy.attempts):
                try:
                    faults.fire("incremental.patch")
                    prepared = patch_prepared_instance(
                        prev_transformed,
                        prev_prepared,
                        transformed,
                        terminals,
                        changed,
                        budget=budget,
                    )
                except BudgetExceededError:
                    self.stats["budget_fallbacks"] += 1
                    caveats.append(
                        "incremental closure patch exceeded budget; "
                        "window prepared cold"
                    )
                    prepared = None
                except TRANSIENT_ERRORS:
                    # Injected or OS-level fault in the patch path:
                    # retry on the deterministic schedule, then prepare
                    # cold.  The cold preparation is output-identical,
                    # so no caveat -- the recovery is visible only in
                    # stats, never in results.
                    if attempt < policy.attempts - 1:
                        self.stats["fault_retries"] += 1
                        policy.sleep_before_retry(attempt)
                        continue
                    self.stats["fault_cold_prepares"] += 1
                    prepared = None
                break
            if prepared is not None:
                self.stats["patched_prepares"] += 1
        if prepared is None:
            self.stats["cold_prepares"] += 1
            prepared = prepare_instance(
                transformed.dst_instance(terminals=terminals)
            )
        return prepared

    def _solve(self, prepared: PreparedInstance):
        if self.algorithm == "pruned" and self.level > 1:
            finite = [d for d in self._density_log if math.isfinite(d)]
            bound = self.warm_slack * max(finite) if finite else None
            if bound is not None:
                self.stats["warm_solves"] += 1
            log: List[float] = []
            tree = pruned_dst(
                prepared, self.level, warm_bound=bound, density_log=log
            )
            self._density_log = log
            return tree
        if self.algorithm == "pruned":
            return pruned_dst(prepared, self.level)
        if self.algorithm == "improved":
            return improved_dst(prepared, self.level)
        if self.algorithm == "charikar":
            return charikar_dst(prepared, self.level)
        raise ValueError(
            f"unknown algorithm {self.algorithm!r}; "
            "expected 'pruned', 'improved', or 'charikar'"
        )


def _endpoints(edges: List[TemporalEdge]) -> Set[Vertex]:
    changed: Set[Vertex] = set()
    for e in edges:
        changed.add(e.source)
        changed.add(e.target)
    return changed


def _join(caveats: List[str]) -> Optional[str]:
    return "; ".join(caveats) if caveats else None
