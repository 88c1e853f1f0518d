"""Sliding-window analysis (Section 2.3's forward-looking use case).

The paper motivates ``MST_w`` with: *"As the time window slides
forward, we can predict the minimum cost for the future."*  This module
packages that protocol: slide a fixed-length window across a temporal
graph, recompute the requested tree per window, and collect the
coverage / cost / makespan series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

from repro.core.errors import ReproError, UnreachableRootError
from repro.core.msta import minimum_spanning_tree_a
from repro.core.mstw import minimum_spanning_tree_w
from repro.core.spanning_tree import TemporalSpanningTree
from repro.temporal.edge import Vertex
from repro.temporal.graph import TemporalGraph
from repro.temporal.index import TemporalEdgeIndex
from repro.temporal.window import TimeWindow


@dataclass(frozen=True)
class WindowMeasurement:
    """One window's outcome in a sliding sweep.

    ``tree`` is None when the root reaches nothing inside the window;
    ``coverage``, ``cost``, and ``makespan`` are then 0/0/NaN-free
    (0, 0.0, None) so the series stays plottable.  The same contract
    holds in every downstream rendering (:meth:`SweepResult.rows`, the
    experiment tables): an empty window exports ``None`` -- never NaN --
    for makespan and zero for cost and coverage.

    ``caveat`` is set by the incremental engine when a window degraded
    to a cold recomputation (budget exhaustion); cold sweeps leave it
    None.
    """

    window: TimeWindow
    tree: Optional[TemporalSpanningTree]
    caveat: Optional[str] = None

    @property
    def coverage(self) -> int:
        """Number of vertices reached besides the root."""
        return self.tree.num_edges if self.tree is not None else 0

    @property
    def cost(self) -> float:
        """Total tree weight (0 when nothing is reached)."""
        return self.tree.total_weight if self.tree is not None else 0.0

    @property
    def makespan(self) -> Optional[float]:
        """Latest arrival time, or None when nothing is reached.

        The NaN-free guarantee: a measurement never exposes NaN even if
        a tree's arrival data were empty or non-finite -- callers can
        test ``is None`` instead of ``math.isnan``.
        """
        if self.tree is None or self.tree.num_edges == 0:
            return None
        value = self.tree.max_arrival_time
        if value != value:  # NaN guard: never leak NaN into a series
            return None
        return value


def iter_windows(
    graph: TemporalGraph,
    window_length: float,
    step: Optional[float] = None,
) -> Iterator[TimeWindow]:
    """Fixed-length windows sliding across the graph's full time range.

    The first window starts at ``t_A``; subsequent windows advance by
    ``step`` (default: half the window length); the last window always
    ends exactly at ``t_Omega``.
    """
    if window_length <= 0:
        raise ReproError("window_length must be positive")
    t_start, t_end = graph.time_span()
    if window_length >= t_end - t_start:
        yield TimeWindow(t_start, t_end)
        return
    if step is None:
        step = window_length / 2
    if step <= 0:
        raise ReproError("step must be positive")
    t = t_start
    while True:
        if t + window_length >= t_end:
            yield TimeWindow(t_end - window_length, t_end)
            return
        yield TimeWindow(t, t + window_length)
        t += step


def sliding_msta(
    graph: TemporalGraph,
    root: Vertex,
    window_length: float,
    step: Optional[float] = None,
    engine: str = "cold",
    stats_out: Optional[Dict[str, int]] = None,
) -> List[WindowMeasurement]:
    """Earliest-arrival tree per sliding window (epidemic-style sweep).

    ``engine="incremental"`` routes the sweep through
    :class:`repro.incremental.SlidingEngine`: each slide patches the
    previous window's tree instead of recomputing it.  The output is
    identical window-for-window (property-tested); only the work per
    slide changes.
    """
    if engine == "incremental":
        from repro.incremental import sliding_msta_incremental

        return sliding_msta_incremental(
            graph, root, window_length, step, stats_out=stats_out
        )
    if engine != "cold":
        raise ReproError(f"unknown engine {engine!r}; expected 'cold' or 'incremental'")
    index = TemporalEdgeIndex(graph)
    results = []
    for window in iter_windows(graph, window_length, step):
        active = index.subgraph(window)
        if root not in active.vertices:
            results.append(WindowMeasurement(window, None))
            continue
        tree = minimum_spanning_tree_a(active, root, window)
        results.append(WindowMeasurement(window, tree))
    return results


def sliding_mstw(
    graph: TemporalGraph,
    root: Vertex,
    window_length: float,
    step: Optional[float] = None,
    level: int = 2,
    algorithm: str = "pruned",
    engine: str = "cold",
    stats_out: Optional[Dict[str, int]] = None,
) -> List[WindowMeasurement]:
    """Minimum-cost tree per sliding window (the paper's cost forecast).

    ``engine="incremental"`` routes the sweep through
    :class:`repro.incremental.SlidingEngine`, which runs each window's
    pipeline over the parent graph's columns instead of a window
    subgraph; output-identical to the cold sweep.
    """
    if engine == "incremental":
        from repro.incremental import sliding_mstw_incremental

        return sliding_mstw_incremental(
            graph, root, window_length, step,
            level=level, algorithm=algorithm, stats_out=stats_out,
        )
    if engine != "cold":
        raise ReproError(f"unknown engine {engine!r}; expected 'cold' or 'incremental'")
    index = TemporalEdgeIndex(graph)
    results = []
    for window in iter_windows(graph, window_length, step):
        active = index.subgraph(window)
        if root not in active.vertices:
            results.append(WindowMeasurement(window, None))
            continue
        try:
            result = minimum_spanning_tree_w(
                active, root, window, level=level, algorithm=algorithm
            )
        except UnreachableRootError:
            results.append(WindowMeasurement(window, None))
            continue
        results.append(WindowMeasurement(window, result.tree))
    return results


@dataclass(frozen=True)
class SweepResult:
    """A full sliding sweep plus its export helpers.

    ``rows()`` flattens the sweep into plottable / tabulable records
    with the empty-window contract applied uniformly: ``makespan`` is
    ``None`` (never NaN) and ``cost`` / ``coverage`` are zero when a
    window reached nothing.
    """

    kind: str  #: ``"msta"`` or ``"mstw"``
    root: Vertex
    engine: str
    measurements: List[WindowMeasurement]
    #: Engine work / fault-recovery counters (incremental sweeps only;
    #: ``None`` for cold sweeps).  Diagnostic by contract: excluded
    #: from :meth:`rows`, so exported tables/series stay byte-identical
    #: whether or not recovery actions (retries, cold fallbacks after
    #: injected faults) happened along the way.
    stats: Optional[Dict[str, Any]] = None

    def rows(self) -> List[dict]:
        """One dict per window: boundaries, coverage, cost, makespan."""
        return [
            {
                "t_alpha": m.window.t_alpha,
                "t_omega": m.window.t_omega,
                "coverage": m.coverage,
                "cost": m.cost,
                "makespan": m.makespan,
                "caveat": m.caveat,
            }
            for m in self.measurements
        ]

    def series(self, field: str) -> List:
        """One column of :meth:`rows` (e.g. ``series("cost")``)."""
        return [row[field] for row in self.rows()]


def sweep(
    graph: TemporalGraph,
    root: Vertex,
    window_length: float,
    step: Optional[float] = None,
    kind: str = "msta",
    level: int = 2,
    algorithm: str = "pruned",
    engine: str = "incremental",
) -> SweepResult:
    """The packaged sliding-window protocol (incremental by default).

    A thin front door over :func:`sliding_msta` / :func:`sliding_mstw`
    returning a :class:`SweepResult`; examples, the experiment runner,
    and the bench scenarios all enter here.
    """
    stats: Dict[str, int] = {}
    if kind == "msta":
        measurements = sliding_msta(
            graph, root, window_length, step, engine=engine, stats_out=stats
        )
    elif kind == "mstw":
        measurements = sliding_mstw(
            graph, root, window_length, step,
            level=level, algorithm=algorithm, engine=engine, stats_out=stats,
        )
    else:
        raise ReproError(f"unknown sweep kind {kind!r}; expected 'msta' or 'mstw'")
    return SweepResult(
        kind=kind,
        root=root,
        engine=engine,
        measurements=measurements,
        stats=stats or None,
    )
