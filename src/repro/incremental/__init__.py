"""Sliding-window engine (one window at a time over one graph).

A sliding sweep asks the same question of many heavily overlapping
windows.  This package answers them over the parent graph:

* :class:`IncrementalMSTa` -- maintains the earliest-arrival tree by
  deleting the removed edges' dirty cone and re-relaxing only there;
* :class:`SlidingEngine` -- ``MST_a`` through that repair (degrading to
  cold, with a recorded caveat, on budget exhaustion), ``MST_w``
  through the cold per-window pipeline over the root's reach;
* :func:`patch_prepared_instance` -- reuses a previous window's closure
  rows wherever the expansion is provably unchanged.  No engine calls
  it: on sliding workloads it costs more than a cold rooted closure.

See ``docs/performance.md`` ("Incremental sliding windows") for what
each reuse layer measured.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.sliding import WindowMeasurement, iter_windows
from repro.incremental.engine import SlidingEngine
from repro.incremental.msta import IncrementalMSTa
from repro.incremental.prepare import patch_prepared_instance
from repro.resilience.budget import Budget
from repro.temporal.edge import Vertex
from repro.temporal.graph import TemporalGraph

__all__ = [
    "IncrementalMSTa",
    "SlidingEngine",
    "patch_prepared_instance",
    "sliding_msta_incremental",
    "sliding_mstw_incremental",
]


def sliding_msta_incremental(
    graph: TemporalGraph,
    root: Vertex,
    window_length: float,
    step: Optional[float] = None,
    budget: Optional[Budget] = None,
    stats_out: Optional[Dict[str, int]] = None,
) -> List[WindowMeasurement]:
    """Drop-in incremental replacement for ``sliding_msta``.

    Output-identical to the cold sweep (trees and series match
    window-for-window); only the work per slide changes.  Pass a dict
    as ``stats_out`` to receive the engine's counters after the sweep.
    """
    engine = SlidingEngine(graph, root)
    measurements = [
        engine.measure_msta(window, budget=budget)
        for window in iter_windows(graph, window_length, step)
    ]
    if stats_out is not None:
        stats_out.update(engine.stats)
    return measurements


def sliding_mstw_incremental(
    graph: TemporalGraph,
    root: Vertex,
    window_length: float,
    step: Optional[float] = None,
    level: int = 2,
    algorithm: str = "pruned",
    stats_out: Optional[Dict[str, int]] = None,
) -> List[WindowMeasurement]:
    """``sliding_mstw`` through :class:`SlidingEngine` (same output)."""
    engine = SlidingEngine(graph, root, level=level, algorithm=algorithm)
    measurements = [
        engine.measure_mstw(window)
        for window in iter_windows(graph, window_length, step)
    ]
    if stats_out is not None:
        stats_out.update(engine.stats)
    return measurements
