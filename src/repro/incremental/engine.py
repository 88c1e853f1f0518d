"""The sliding-window query engine: one window at a time over one graph.

:class:`SlidingEngine` answers each window of a slide as one windowed
query over the parent graph; no state is carried between windows:

==================  =================================================
query               per-window work
==================  =================================================
``MST_a``           Algorithm 1 over the parent graph's columns
``MST_w``           the cold pipeline over the root's reach
==================  =================================================

``MST_a``: a root with no incident edge inside the window gives the
None-measurement.  On a graph with no zero-duration edge the window's
tree is :func:`repro.core.msta.minimum_spanning_tree_a` on the parent
graph, whose Algorithm 1 reads only the window's slice of the columnar
store -- exactly the tree of the window subgraph.  A graph with a
zero-duration edge would get Algorithm 2 over the parent, which walks
the edges in insertion order rather than the window subgraph's
chronological order and can order the parent dict differently, so such
a graph extracts the window subgraph first.

``MST_w``: each window is transformed reach-only from the parent
graph's columnar store (no window subgraph is built), prepared with a
fresh rooted closure, solved and postprocessed -- exactly the
per-window :func:`repro.core.mstw.minimum_spanning_tree_w`.

Either query equals the cold per-window computation over the window's
subgraph -- property-tested in ``tests/test_property_incremental.py``.
``docs/performance.md`` ("Sliding windows") measures why windows share
no state.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.core.errors import UnreachableRootError
from repro.core.msta import minimum_spanning_tree_a
from repro.core.mstw import _SOLVERS, _terminals
from repro.core.postprocess import closure_tree_to_temporal
from repro.core.sliding import WindowMeasurement
from repro.core.transformation import transform_temporal_graph
from repro.steiner.instance import prepare_instance
from repro.temporal.edge import Vertex
from repro.temporal.graph import TemporalGraph
from repro.temporal.index import TemporalEdgeIndex
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

    Windows may arrive in any order.  :attr:`stats` counts the windows
    answered.
    """

    def __init__(
        self,
        graph: TemporalGraph,
        root: Vertex,
        level: int = 2,
        algorithm: str = "pruned",
    ) -> None:
        self.graph = graph
        self.root = root
        self.level = level
        self.algorithm = algorithm
        self.stats = {"windows": 0}
        # Always empty: the sliding_sweep workload of
        # benchmarks/e2e/workloads.py reads ``engine.msta.stats``.
        self.msta = SimpleNamespace(stats={})

    def measure_msta(self, window: TimeWindow) -> WindowMeasurement:
        """One window of the earliest-arrival sweep.

        Equal to ``minimum_spanning_tree_a`` on the window's subgraph
        (parent edges and arrival times, in the same order), and the
        None-measurement when the root has no edge in the window.
        """
        self.stats["windows"] += 1
        graph = self.graph
        if not graph.columnar().has_incident_in(self.root, window.t_alpha, window.t_omega):
            return WindowMeasurement(window, None)
        if graph.has_zero_duration_edge():
            graph = TemporalEdgeIndex(graph).subgraph(window)
        return WindowMeasurement(window, minimum_spanning_tree_a(graph, self.root, window))

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
