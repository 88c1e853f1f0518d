"""The sliding-window query engine: one window at a time over one graph.

:class:`SlidingEngine` answers a slide's windows over the parent graph:

==================  =================================================
query               per-window work
==================  =================================================
``MST_a``           dirty-cone repair (:class:`IncrementalMSTa`)
``MST_w``           the cold pipeline over the root's reach
==================  =================================================

``MST_w`` carries no state between windows.  Each window is transformed
reach-only from the parent graph's columnar store (no window subgraph is
built), prepared with a fresh rooted closure, solved and postprocessed
-- exactly the per-window :func:`repro.core.mstw.minimum_spanning_tree_w`
of the cold :func:`repro.core.sliding.sliding_mstw` loop.  Patching the
previous window's closure and warm-starting Algorithm 6 from its
densities saved nothing once a cold window cost only what the root's
reach costs (``docs/performance.md``).

``MST_a`` keeps its repair, the one reuse that still measures faster
than a cold window; a sweep through the engine is **output-identical**
to the cold :func:`repro.core.sliding.sliding_msta` loop --
property-tested in ``tests/test_property_incremental.py``.

Budgets: :meth:`SlidingEngine.measure_msta` accepts an optional
:class:`repro.resilience.Budget` that is checkpointed inside the repair
loops only.  A drained budget never raises out of the engine -- the
window degrades to its (always-completing, unbudgeted) cold computation
and the resulting :class:`~repro.core.sliding.WindowMeasurement` carries
a ``caveat`` recording the degradation.
"""

from __future__ import annotations

from typing import Optional

from repro.core.errors import UnreachableRootError
from repro.core.mstw import _SOLVERS, _terminals
from repro.core.postprocess import closure_tree_to_temporal
from repro.core.sliding import WindowMeasurement
from repro.core.transformation import transform_temporal_graph
from repro.incremental.msta import IncrementalMSTa
from repro.resilience.budget import Budget
from repro.steiner.instance import prepare_instance
from repro.temporal.edge import Vertex
from repro.temporal.graph import TemporalGraph
from repro.temporal.index import TemporalEdgeIndex, edge_index_for
from repro.temporal.window import TimeWindow

__all__ = ["SlidingEngine"]


class SlidingEngine:
    """Answers ``MST_a`` / ``MST_w`` queries along a slide.

    Parameters
    ----------
    graph:
        The full temporal graph being slid over (immutable).
    root:
        The prescribed root of every window's tree.
    level / algorithm:
        Forwarded to the ``MST_w`` solve (Algorithm 6 by default).

    Windows may arrive in any order; only a forward slide (both
    boundaries non-decreasing) lets ``MST_a`` repair the previous tree,
    other moves recompute cold.  :attr:`stats` counts the windows
    answered; :attr:`msta` keeps the repair counters.
    """

    def __init__(
        self,
        graph: TemporalGraph,
        root: Vertex,
        level: int = 2,
        algorithm: str = "pruned",
        index: Optional[TemporalEdgeIndex] = None,
    ) -> None:
        self.graph = graph
        self.root = root
        self.level = level
        self.algorithm = algorithm
        self.index = index if index is not None else edge_index_for(graph)
        self.msta = IncrementalMSTa(graph, root, self.index)
        self.stats = {"windows": 0}

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

    def measure_mstw(self, window: TimeWindow) -> WindowMeasurement:
        """One window of the minimum-cost sweep, identical to ``sliding_mstw``.

        A root absent from the window, or reaching nothing in it, gives
        the cold sweep's None-measurement.
        """
        self.stats["windows"] += 1
        try:
            solver = _SOLVERS[self.algorithm]
        except KeyError:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; "
                f"expected one of {sorted(_SOLVERS)}"
            ) from None
        try:
            # The parent graph's store slices the window in the window
            # subgraph's (chronological) edge order.
            transformed = transform_temporal_graph(
                self.graph, self.root, window, chronological=True
            )
            terminals = _terminals(transformed)
        except UnreachableRootError:
            return WindowMeasurement(window, None)
        prepared = prepare_instance(transformed.dst_instance(terminals=terminals))
        closure_tree = solver(prepared, self.level)
        tree = closure_tree_to_temporal(transformed, prepared, closure_tree)
        return WindowMeasurement(window, tree)
