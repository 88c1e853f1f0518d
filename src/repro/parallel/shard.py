"""Time-sharded sweep execution: workers get only their shard's slice.

The legacy :func:`repro.parallel.batch.run_batch` engine ships the
*whole* graph to every worker and one task per cell chunk -- the PR 4
bench regression: at small per-cell cost, worker-init deserialization
and per-chunk shipping dominate, and ``jobs=2`` loses to ``jobs=1``.
This module is the fix, and the shape mirrors the batch-partitioned
framing of arXiv 2504.04619 for temporal MST workloads:

* **plan** -- :func:`plan_shards` splits the sweep's window grid into
  contiguous runs of windows, sorted by ``(t_alpha, t_omega)``, one run
  per shard.  A shard's time range is the hull of its windows'
  boundaries, so adjacent shard ranges overlap by up to one window
  length -- the *halo* that guarantees every window's edges live
  entirely inside its own shard's range;
* **slice** -- each shard gets a :class:`ShardPayload`, built from the
  graph's :class:`~repro.temporal.columnar.ColumnarEdgeStore` via an
  ``O(log M + out)`` bisect
  (:meth:`~repro.temporal.columnar.ColumnarEdgeStore.time_slice_columns`):
  stdlib arrays of locally re-interned vertex ids and edge columns, no
  per-edge Python objects, no edges outside the shard's range.  Workers
  deserialize *only their slice*;
* **execute** -- one task per shard.  The worker rebuilds its slice
  graph and runs an independent engine over its windows -- its own
  :class:`~repro.parallel.reuse.WindowReuseIndex` plus worker-side
  :class:`~repro.resilience.budget.Budget`\\ s for cell sweeps
  (:func:`run_shard_task`), or its own
  :class:`~repro.incremental.engine.SlidingEngine` for measurement
  sweeps (:func:`run_sweep_shard_task`).  Crash/retry handling rides on
  :class:`~repro.parallel.engine.ParallelExecutor` -- a shard is one
  task, so a crashed shard is retried/rebuilt as a unit;
* **merge** -- deterministically by window key: shards are planned in
  window order and results concatenated (or scattered back to
  submission order for cell batches), so tables and checkpoints are
  byte-identical to a serial run at any shard/job count.  Per-shard
  timings and payload byte sizes are folded into the result ``stats``
  as diagnostics (never into values or rows).

Why byte-identity holds: a window ``[a, o]`` inside shard range
``[lo, hi]`` (``lo <= a``, ``o <= hi``) selects exactly the edges with
``start >= a`` and ``arrival <= o`` -- all of which satisfy the shard
membership ``start >= lo``, ``arrival <= hi`` -- and the slice keeps
them in insertion order, so per-window extraction from the slice yields
the identical edge sequence (hence identical subgraph, preparation, and
solve) as extraction from the full graph.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import BudgetExceededError, ReproError
from repro.core.sliding import SweepResult, WindowMeasurement, iter_windows
from repro.experiments.checkpoint import decode_cell, encode_cell
from repro.experiments.runner import OverBudgetCell
from repro.incremental.engine import SlidingEngine
from repro.parallel.batch import (
    REUSE_MAX_WINDOWS,
    BatchResult,
    SweepCell,
    _cell_value,
)
from repro.parallel.engine import ParallelExecutor
from repro.parallel.reuse import WindowReuseIndex
from repro.resilience.budget import Budget
from repro.temporal.graph import TemporalGraph
from repro.temporal.window import TimeWindow

__all__ = [
    "ShardPayload",
    "ShardSpec",
    "plan_shards",
    "run_batch_sharded",
    "run_shard_task",
    "run_sweep_shard_task",
    "sweep_sharded",
]


@dataclass(frozen=True)
class ShardSpec:
    """One planned shard: a contiguous run of the sweep's windows.

    ``windows`` are in ``(t_alpha, t_omega)`` order; the shard's edge
    range ``[t_lo, t_hi]`` is the hull of their boundaries, which is
    what makes every window self-contained in its shard's slice.
    """

    index: int
    windows: Tuple[TimeWindow, ...]

    @property
    def t_lo(self) -> float:
        return min(w.t_alpha for w in self.windows)

    @property
    def t_hi(self) -> float:
        return max(w.t_omega for w in self.windows)


def plan_shards(
    windows: Sequence[TimeWindow], shards: int
) -> List[ShardSpec]:
    """Split distinct windows into ``shards`` contiguous runs.

    Windows are deduplicated and sorted by ``(t_alpha, t_omega)`` --
    the slide order -- then cut into near-equal contiguous runs (the
    first ``len(windows) % shards`` runs get one extra window).  More
    shards than windows degrade gracefully: the plan is clamped, never
    padded with empty shards.

    Adjacent runs' time hulls overlap by up to one window length (the
    halo): shard ``k`` ends at its last window's ``t_omega`` while shard
    ``k+1`` starts at its first window's ``t_alpha``, and for a sliding
    grid those are less than one window length apart.  The duplicated
    halo edges are the price of shard independence -- each shard can
    extract every one of its windows without seeing another shard.
    """
    if shards < 1:
        raise ReproError(f"shard count must be >= 1, got {shards}")
    distinct = sorted(set(windows), key=lambda w: (w.t_alpha, w.t_omega))
    if not distinct:
        return []
    count = min(shards, len(distinct))
    base, extra = divmod(len(distinct), count)
    specs: List[ShardSpec] = []
    position = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        run = tuple(distinct[position:position + size])
        position += size
        specs.append(ShardSpec(index=index, windows=run))
    return specs


@dataclass(frozen=True)
class ShardPayload:
    """The compact per-worker slice: columns only, no edge objects.

    ``columns`` is the stdlib export of
    :meth:`~repro.temporal.columnar.ColumnarEdgeStore.time_slice_columns`:
    locally re-interned vertex labels plus five stdlib
    ``array``/tuple columns.  Pickles small, and :meth:`to_graph` decodes
    it through the validated column constructor
    :meth:`~repro.temporal.graph.TemporalGraph.from_columns`, which also
    builds the slice graph's columnar store from the same columns.
    """

    columns: Dict[str, Any]

    @classmethod
    def slice_of(cls, store: Any, t_lo: float, t_hi: float) -> "ShardPayload":
        """Slice ``store`` to the edges inside ``[t_lo, t_hi]``."""
        return cls(columns=store.time_slice_columns(t_lo, t_hi))

    @property
    def num_edges(self) -> int:
        return len(self.columns["sources"])

    def to_graph(self) -> TemporalGraph:
        """Materialise the slice as a :class:`TemporalGraph`."""
        columns = self.columns
        return TemporalGraph.from_columns(
            columns["sources"],
            columns["targets"],
            columns["starts"],
            columns["arrivals"],
            columns["weights"],
            vertices=columns["labels"],
            labels=columns["labels"],
        )


@dataclass(frozen=True)
class _CellShardTask:
    """One worker task of :func:`run_batch_sharded` (picklable)."""

    index: int
    payload: ShardPayload
    cells: Tuple[SweepCell, ...]
    budget_seconds: Optional[float] = None


@dataclass(frozen=True)
class _SweepShardTask:
    """One worker task of :func:`sweep_sharded` (picklable)."""

    index: int
    payload: ShardPayload
    windows: Tuple[TimeWindow, ...]
    root: Any
    kind: str
    level: int = 2
    algorithm: str = "pruned"
    budget_seconds: Optional[float] = None


def run_shard_task(task: _CellShardTask) -> Dict[str, Any]:
    """Worker entry point: solve a shard's cells on its slice.

    Rebuilds the slice graph once, then mirrors the legacy worker loop
    -- shared :class:`WindowReuseIndex`, per-cell worker-side
    :class:`Budget`, outcomes encoded via
    :func:`~repro.experiments.checkpoint.encode_cell` -- so cell values
    round-trip exactly as they do through ``run_batch``.
    """
    started = time.perf_counter()
    graph = task.payload.to_graph()
    reuse = WindowReuseIndex(max_windows=REUSE_MAX_WINDOWS)
    encoded: List[Dict[str, Any]] = []
    for cell in task.cells:
        sub = reuse.extract(graph, cell.window)
        budget = Budget.per_task(task.budget_seconds)
        fallback_summary: Optional[Dict[str, Any]] = None
        try:
            value, fallback_summary = _cell_value(graph, sub, cell, budget)
        except BudgetExceededError as exc:
            value = OverBudgetCell(elapsed=exc.elapsed_seconds)
        encoded.append({"cell": encode_cell(value), "fallback": fallback_summary})
    return {
        "index": task.index,
        "cells": encoded,
        "reuse": reuse.stats(),
        "elapsed_s": time.perf_counter() - started,
    }


def run_sweep_shard_task(task: _SweepShardTask) -> Dict[str, Any]:
    """Worker entry point: run one shard's measurement sweep.

    An independent :class:`SlidingEngine` over the slice graph walks the
    shard's windows in slide order.  The engine's outputs are
    output-identical to cold per-window computation (property-tested),
    and per-window extraction from the slice equals extraction from the
    full graph (module docstring), so the measurements merge to exactly
    the serial sweep's.  Engine work counters differ across shard
    counts (each shard pays one cold start) -- they stay diagnostic.

    ``budget_seconds`` bounds each ``MST_a`` window's repair, which
    degrades to a cold solve when drained, so the task never raises for
    budget reasons; ``MST_w`` windows are unbudgeted.
    """
    started = time.perf_counter()
    graph = task.payload.to_graph()
    engine = SlidingEngine(
        graph, task.root, level=task.level, algorithm=task.algorithm
    )
    measurements: List[WindowMeasurement] = []
    for window in task.windows:
        if task.kind == "msta":
            budget = Budget.per_task(task.budget_seconds)
            measurements.append(engine.measure_msta(window, budget=budget))
        else:
            measurements.append(engine.measure_mstw(window))
    stats = dict(engine.msta.stats)
    stats.update(engine.stats)
    return {
        "index": task.index,
        "measurements": measurements,
        "stats": stats,
        "elapsed_s": time.perf_counter() - started,
    }


def _shard_payloads(
    graph: TemporalGraph, specs: Sequence[ShardSpec]
) -> Tuple[List[ShardPayload], List[Dict[str, Any]]]:
    """Materialise payloads plus their diagnostics entries, in plan order."""
    store = graph.columnar()
    payloads: List[ShardPayload] = []
    diagnostics: List[Dict[str, Any]] = []
    for spec in specs:
        payload = ShardPayload.slice_of(store, spec.t_lo, spec.t_hi)
        payloads.append(payload)
        diagnostics.append(
            {
                "shard": spec.index,
                "t_lo": spec.t_lo,
                "t_hi": spec.t_hi,
                "windows": len(spec.windows),
                "edges": payload.num_edges,
                "payload_bytes": len(pickle.dumps(payload)),
            }
        )
    return payloads, diagnostics


def run_batch_sharded(
    graph: TemporalGraph,
    cells: Sequence[SweepCell],
    jobs: int = 1,
    shards: Optional[int] = None,
    budget_seconds: Optional[float] = None,
    start_method: Optional[str] = None,
) -> BatchResult:
    """Execute a cell sweep through the time-sharded engine.

    Cells are routed to the shard owning their window (the planner runs
    over the distinct cell windows; ``shards=None`` plans one shard per
    job).  Each shard ships one :class:`ShardPayload` and one task;
    values come back in submission order, byte-identical to
    :func:`~repro.parallel.batch.run_sweep_serial` /
    :func:`~repro.parallel.batch.run_batch` at any shard/job count
    (property-tested).  ``result.shards`` carries the per-shard
    diagnostics (range, window/edge counts, payload bytes, elapsed).
    """
    cells = list(cells)
    count = jobs if shards is None else shards
    specs = plan_shards([cell.window for cell in cells], max(count, 1))
    shard_of: Dict[TimeWindow, int] = {}
    for spec in specs:
        for window in spec.windows:
            shard_of[window] = spec.index
    assigned: List[List[int]] = [[] for _ in specs]
    for position, cell in enumerate(cells):
        assigned[shard_of[cell.window]].append(position)
    payloads, diagnostics = _shard_payloads(graph, specs)
    tasks = [
        _CellShardTask(
            index=spec.index,
            payload=payload,
            cells=tuple(cells[i] for i in assigned[spec.index]),
            budget_seconds=budget_seconds,
        )
        for spec, payload in zip(specs, payloads)
    ]
    for entry, task in zip(diagnostics, tasks):
        entry["cells"] = len(task.cells)
    # One task per shard: chunk_size=1 keeps each shard an independent
    # retry/rebuild unit inside the executor's recovery ladder.
    executor = ParallelExecutor(
        jobs, start_method=start_method, chunk_size=1
    )
    with executor:
        raw = executor.map(run_shard_task, tasks)
    values: List[Any] = [None] * len(cells)
    fallback_summaries: List[Optional[Dict[str, Any]]] = [None] * len(cells)
    reuse = {
        "hits": 0,
        "misses": 0,
        "containment_derived": 0,
        "index_served_misses": 0,
    }
    for result, entry, positions in zip(raw, diagnostics, assigned):
        entry["elapsed_s"] = result["elapsed_s"]
        for key, value in result["reuse"].items():
            reuse[key] = reuse.get(key, 0) + value
        for position, cell_entry in zip(positions, result["cells"]):
            values[position] = decode_cell(cell_entry["cell"])
            fallback_summaries[position] = cell_entry["fallback"]
    return BatchResult(
        values=values,
        reuse=reuse,
        fallback_summaries=fallback_summaries,
        jobs=jobs,
        faults=executor.stats.as_dict(),
        shards=diagnostics,
    )


def sweep_sharded(
    graph: TemporalGraph,
    root: Any,
    window_length: float,
    step: Optional[float] = None,
    kind: str = "msta",
    level: int = 2,
    algorithm: str = "pruned",
    jobs: int = 1,
    shards: Optional[int] = None,
    budget_seconds: Optional[float] = None,
    start_method: Optional[str] = None,
) -> SweepResult:
    """The sharded counterpart of :func:`repro.core.sliding.sweep`.

    Plans the window grid into shards (``shards=None`` plans one per
    job), ships per-shard slices, runs one independent engine per shard,
    and concatenates measurements in shard order -- which *is* the
    serial window order, because :func:`iter_windows` yields windows in
    strictly increasing ``(t_alpha, t_omega)`` order and the planner
    preserves it.  ``rows()``/``series()`` output is byte-identical to
    the serial sweep at any shard/job count; ``stats`` additionally
    carries summed engine counters plus per-shard diagnostics under
    ``stats["shards"]`` and executor recovery counters under
    ``stats["faults"]``.
    """
    if kind not in ("msta", "mstw"):
        raise ReproError(
            f"unknown sweep kind {kind!r}; expected 'msta' or 'mstw'"
        )
    windows = list(iter_windows(graph, window_length, step))
    count = jobs if shards is None else shards
    specs = plan_shards(windows, max(count, 1))
    payloads, diagnostics = _shard_payloads(graph, specs)
    tasks = [
        _SweepShardTask(
            index=spec.index,
            payload=payload,
            windows=spec.windows,
            root=root,
            kind=kind,
            level=level,
            algorithm=algorithm,
            budget_seconds=budget_seconds,
        )
        for spec, payload in zip(specs, payloads)
    ]
    executor = ParallelExecutor(
        jobs, start_method=start_method, chunk_size=1
    )
    with executor:
        raw = executor.map(run_sweep_shard_task, tasks)
    measurements: List[WindowMeasurement] = []
    stats: Dict[str, Any] = {}
    for result, entry in zip(raw, diagnostics):
        entry["elapsed_s"] = result["elapsed_s"]
        measurements.extend(result["measurements"])
        for key, value in result["stats"].items():
            stats[key] = stats.get(key, 0) + value
    stats["shards"] = diagnostics
    stats["faults"] = executor.stats.as_dict()
    return SweepResult(
        kind=kind,
        root=root,
        engine="sharded",
        measurements=measurements,
        stats=stats,
    )
