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

from repro.core.errors import ReproError
from repro.core.spanning_tree import TemporalSpanningTree
from repro.temporal.edge import Vertex
from repro.temporal.graph import TemporalGraph
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

    ``caveat`` is always None; the field stays because the exported
    :meth:`SweepResult.rows` schema carries it.
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
) -> List[WindowMeasurement]:
    """Earliest-arrival tree per sliding window (epidemic-style sweep).

    Each window is one :meth:`repro.incremental.SlidingEngine.measure_msta`
    query over the parent graph; the trees equal
    ``minimum_spanning_tree_a`` on each window's subgraph.
    """
    return sweep(graph, root, window_length, step, kind="msta").measurements


def sliding_mstw(
    graph: TemporalGraph,
    root: Vertex,
    window_length: float,
    step: Optional[float] = None,
    level: int = 2,
    algorithm: str = "pruned",
) -> List[WindowMeasurement]:
    """Minimum-cost tree per sliding window (the paper's cost forecast).

    Each window is one :meth:`repro.incremental.SlidingEngine.measure_mstw`
    query over the parent graph's columns; the trees equal
    ``minimum_spanning_tree_w`` on each window's subgraph.
    """
    return sweep(
        graph, root, window_length, step,
        kind="mstw", level=level, algorithm=algorithm,
    ).measurements


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
    measurements: List[WindowMeasurement]
    #: The engine's counters (``{"windows": n}``).  Excluded from
    #: :meth:`rows`, so exported tables/series carry results only.
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
) -> SweepResult:
    """The packaged sliding-window protocol, as a :class:`SweepResult`.

    One :class:`repro.incremental.SlidingEngine` answers every window.
    :func:`sliding_msta` / :func:`sliding_mstw`, examples, the
    experiment runner, and the bench scenarios all enter here.
    """
    from repro.incremental import SlidingEngine

    engine = SlidingEngine(graph, root, level=level, algorithm=algorithm)
    if kind == "msta":
        measure = engine.measure_msta
    elif kind == "mstw":
        measure = engine.measure_mstw
    else:
        raise ReproError(f"unknown sweep kind {kind!r}; expected 'msta' or 'mstw'")
    measurements = [measure(window) for window in iter_windows(graph, window_length, step)]
    return SweepResult(
        kind=kind, root=root, measurements=measurements, stats=dict(engine.stats)
    )
