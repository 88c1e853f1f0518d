"""The batch MST_w sweep engine: one pool task per ``(window, root)`` run.

This is the end-to-end face of :mod:`repro.parallel`: a list of
:class:`SweepCell` queries over one :class:`TemporalGraph` is executed
by :func:`run_batch` across worker processes with three properties:

* **the graph crosses the process boundary once per worker** -- the
  pool initializer receives ``pickle.dumps(graph)`` via ``initargs``
  (pickled once per worker) and deserializes it into module state;
  individual tasks carry only tiny cell descriptors;
* **one task per run, handed out dynamically** -- consecutive cells
  that share ``(window, root)`` form one task: it extracts the window
  once from the worker's column-built graph (the same
  :func:`~repro.temporal.window.extract_window` call
  :func:`run_sweep_serial` makes) and prepares it once with
  ``prepare_mstw_instance``; the run's query variants (levels /
  algorithms) all solve that one preparation.  Tasks are submitted one
  per pool chunk, so a worker that finishes early takes the next run
  instead of idling behind a fixed share of the windows.  A task keeps
  nothing once it returns;
* **lossless resilience round-trips** -- each cell runs under its own
  per-task :class:`~repro.resilience.budget.Budget` created *inside*
  the worker (budgets anchor to a process-local clock and must never be
  pickled); over-budget and degraded outcomes travel back as the
  JSON-stable :func:`~repro.experiments.checkpoint.encode_cell`
  encoding and are decoded to the exact
  :class:`~repro.experiments.runner.OverBudgetCell` /
  :class:`~repro.experiments.runner.DegradedCell` values a serial run
  would have produced.

:func:`run_sweep_serial` is the *pre-engine* reference loop -- one full
``extract + prepare + solve`` pipeline per cell, no sharing -- kept as
the output-identity oracle for the tests.
"""

from __future__ import annotations

import itertools
import pickle
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import BudgetExceededError
from repro.core.mstw import minimum_spanning_tree_w, prepare_mstw_instance
from repro.core.postprocess import closure_tree_to_temporal
from repro.core.transformation import TransformedGraph
from repro.experiments.checkpoint import decode_cell, encode_cell
from repro.experiments.runner import DegradedCell, OverBudgetCell
from repro.parallel.engine import ParallelExecutor
from repro.resilience.budget import Budget
from repro.resilience.fallback import run_with_fallback
from repro.steiner.charikar import charikar_dst
from repro.steiner.improved import improved_dst
from repro.steiner.instance import PreparedInstance
from repro.steiner.pruned import pruned_dst
from repro.temporal.graph import TemporalGraph
from repro.temporal.window import TimeWindow, extract_window

__all__ = ["SweepCell", "BatchResult", "run_batch", "run_sweep_serial"]

_SOLVERS = {
    "charikar": charikar_dst,
    "improved": improved_dst,
    "pruned": pruned_dst,
}


@dataclass(frozen=True)
class SweepCell:
    """One ``(root, window)`` MST_w query of a batch sweep.

    Cheap and picklable by construction -- cells are the only per-task
    payload that crosses the process boundary.
    """

    root: Any
    window: TimeWindow
    level: int = 2
    algorithm: str = "pruned"
    fallback: bool = False


@dataclass
class BatchResult:
    """The merged outcome of one :func:`run_batch` call.

    Attributes
    ----------
    values:
        One decoded cell value per input cell, in submission order:
        the tree weight (a float), a :class:`DegradedCell`, or an
        :class:`OverBudgetCell`.
    reuse:
        Extraction sharing: ``misses`` counts window extractions (one
        per run of consecutive cells sharing ``(window, root)``) and
        ``hits`` the cells that reused their run's extraction.
        Diagnostic only: it follows from the cell order, and the values
        never depend on it.
    fallback_summaries:
        Per cell, the :meth:`FallbackResult.summary` dict of the
        degradation ladder that answered (``None`` for cells solved
        directly), round-tripped losslessly from the worker.
    jobs:
        The worker count the batch ran with.
    faults:
        The executor's recovery counters (retries / rebuilds /
        inline_fallbacks / timeouts), all zero on a fault-free run.
        Like ``reuse``, purely diagnostic: recovery actions never
        change ``values``.
    """

    values: List[Any]
    reuse: Dict[str, int]
    fallback_summaries: List[Optional[Dict[str, Any]]] = field(
        default_factory=list
    )
    jobs: int = 1
    faults: Dict[str, int] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Worker-side state (per process; set by the initializer, dropped by
# run_batch in the driver once the batch ends)
# ----------------------------------------------------------------------
_worker_graph: Optional[TemporalGraph] = None


def _init_worker(graph_bytes: bytes) -> None:
    """Per-worker initializer: deserialize the graph once per worker."""
    global _worker_graph
    _worker_graph = pickle.loads(graph_bytes)


def _release_worker() -> None:
    """Drop the batch's graph copy from this process.

    Pool workers exit with their pool; the driver holds a copy only
    when it ran tasks inline (``jobs=1``, or a recompute after a
    timeout or a dead pool), and :func:`run_batch` releases it here.
    """
    global _worker_graph
    _worker_graph = None


def _cell_value(
    pair: Tuple[TransformedGraph, PreparedInstance],
    cell: SweepCell,
    budget: Optional[Budget],
):
    """Solve one cell on its run's ``(transformed, prepared)`` pair.

    Mirrors ``minimum_spanning_tree_w`` exactly -- same terminal
    ordering, same solver entry points, same postprocessing -- on the
    stages 1-3 the run prepared once for all its cells.
    """
    transformed, prepared = pair
    if cell.fallback:
        outcome = run_with_fallback(
            prepared, budget=budget, level=cell.level, solver=cell.algorithm
        )
        tree = closure_tree_to_temporal(transformed, prepared, outcome.tree)
        if outcome.degraded:
            return DegradedCell(tree.total_weight, outcome.rung), outcome.summary()
        return tree.total_weight, outcome.summary()
    closure_tree = _SOLVERS[cell.algorithm](prepared, cell.level, budget=budget)
    tree = closure_tree_to_temporal(transformed, prepared, closure_tree)
    return tree.total_weight, None


def run_sweep_cell(
    pair: Tuple[TransformedGraph, PreparedInstance],
    cell: SweepCell,
    budget_seconds: Optional[float] = None,
) -> Dict[str, Any]:
    """Solve one cell on its run's prepared instance.

    Returns a JSON-stable payload -- the encoded cell value and the
    fallback-ladder summary -- so results survive the process boundary
    losslessly.
    """
    budget = Budget.per_task(budget_seconds)
    fallback_summary: Optional[Dict[str, Any]] = None
    try:
        value, fallback_summary = _cell_value(pair, cell, budget)
    except BudgetExceededError as exc:
        value = OverBudgetCell(elapsed=exc.elapsed_seconds)
    return {"cell": encode_cell(value), "fallback": fallback_summary}


def _run_sweep_run(
    run: Tuple[SweepCell, ...], budget_seconds: Optional[float] = None
) -> List[Dict[str, Any]]:
    """Worker task: every cell of one ``(window, root)`` run.

    The window is extracted once from the worker's column-built graph,
    exactly as :func:`run_sweep_serial` extracts it, and prepared once
    with :func:`~repro.core.mstw.prepare_mstw_instance`; each cell then
    goes through :func:`run_sweep_cell` on that pair.  Nothing outlives
    the call: the subgraph and its closure are freed when it returns.
    """
    graph = _worker_graph
    if graph is None:
        raise RuntimeError(
            "a sweep run outside an initialised batch worker; "
            "use run_batch(), which installs the worker initializer"
        )
    first = run[0]
    sub = extract_window(graph, first.window)
    pair = prepare_mstw_instance(sub, first.root, first.window)
    return [run_sweep_cell(pair, cell, budget_seconds) for cell in run]


def _runs(cells: Sequence[SweepCell]) -> List[Tuple[SweepCell, ...]]:
    """``cells`` split into maximal consecutive runs sharing ``(window, root)``."""
    return [
        tuple(run)
        for _, run in itertools.groupby(cells, key=lambda c: (c.window, c.root))
    ]


def run_batch(
    graph: TemporalGraph,
    cells: Sequence[SweepCell],
    jobs: int = 1,
    budget_seconds: Optional[float] = None,
    start_method: Optional[str] = None,
) -> BatchResult:
    """Execute a sweep of cells, one pool task per ``(window, root)`` run.

    Output is identical to :func:`run_sweep_serial` on the same inputs
    at any ``jobs`` value and any cell order (tested): the
    executor's merge layer restores submission order, and each run
    extracts its window exactly as the reference loop does.  Put the
    variants of one ``(window, root)`` pair next to each other in the
    input so they share one extraction and one preparation; any other
    order is still correct and only shares less.
    """
    runs = _runs(cells)
    task = partial(_run_sweep_run, budget_seconds=budget_seconds)
    executor = ParallelExecutor(
        jobs,
        initializer=_init_worker,
        initargs=(pickle.dumps(graph),),
        start_method=start_method,
        chunk_size=1,
    )
    try:
        with executor:
            raw = [entry for run in executor.map(task, runs) for entry in run]
    finally:
        _release_worker()
    return BatchResult(
        values=[decode_cell(entry["cell"]) for entry in raw],
        reuse={"hits": len(raw) - len(runs), "misses": len(runs)},
        fallback_summaries=[entry["fallback"] for entry in raw],
        jobs=jobs,
        faults=executor.stats.as_dict(),
    )


def run_sweep_serial(
    graph: TemporalGraph,
    cells: Sequence[SweepCell],
    budget_seconds: Optional[float] = None,
) -> List[Any]:
    """The pre-engine reference loop: one full pipeline per cell.

    Every cell re-extracts its window from the full graph and re-derives
    the transformation and closure from scratch (no cross-cell sharing
    of any kind) -- exactly what the experiment sweeps did before this
    engine existed.  Kept as the output-identity oracle for the batch
    tests.
    """
    values: List[Any] = []
    for cell in cells:
        sub = extract_window(graph, cell.window)
        budget = Budget.per_task(budget_seconds)
        try:
            result = minimum_spanning_tree_w(
                sub,
                cell.root,
                cell.window,
                level=cell.level,
                algorithm=cell.algorithm,
                budget=budget,
                fallback=cell.fallback,
            )
        except BudgetExceededError as exc:
            values.append(OverBudgetCell(elapsed=exc.elapsed_seconds))
            continue
        if result.degraded:
            values.append(DegradedCell(result.weight, result.rung))
        else:
            values.append(result.weight)
    return values
