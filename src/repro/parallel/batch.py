"""The batch MST_w sweep engine: fan out cells, share work per worker.

This is the end-to-end face of :mod:`repro.parallel`: a list of
:class:`SweepCell` queries over one :class:`TemporalGraph` is executed
by :func:`run_batch` across worker processes with three properties:

* **the graph crosses the process boundary once per worker** -- the
  pool initializer receives ``pickle.dumps(graph)`` via ``initargs``
  (pickled once per worker) and deserializes it into module state;
  individual tasks carry only the tiny cell descriptor;
* **cross-window work sharing** -- every worker owns a
  :class:`~repro.parallel.reuse.WindowReuseIndex`, so a cell whose
  window is contained in an earlier cell's window derives its
  extraction by filtering the cached artifacts instead of rescanning
  the full graph, and same-window cells share one extracted subgraph
  object, which makes the per-process ``prepare_mstw_instance`` memo
  hit across query variants (levels / algorithms);
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
``extract + prepare + solve`` pipeline per cell, no sharing -- kept both
as the output-identity oracle for the tests and as the honest baseline
the ``parallel_speedup`` bench scenarios compare against.
"""

from __future__ import annotations

import itertools
import pickle
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Sequence

from repro.core.errors import BudgetExceededError
from repro.core.mstw import minimum_spanning_tree_w, prepare_mstw_instance
from repro.core.postprocess import closure_tree_to_temporal
from repro.experiments.checkpoint import decode_cell, encode_cell
from repro.experiments.runner import DegradedCell, OverBudgetCell
from repro.parallel.engine import ParallelExecutor
from repro.parallel.reuse import WindowReuseIndex
from repro.resilience.budget import Budget
from repro.resilience.fallback import run_with_fallback
from repro.steiner.charikar import charikar_dst
from repro.steiner.improved import improved_dst
from repro.steiner.pruned import pruned_dst
from repro.temporal.graph import TemporalGraph
from repro.temporal.window import TimeWindow, extract_window

__all__ = ["SweepCell", "BatchResult", "run_batch", "run_sweep_serial"]

_SOLVERS = {
    "charikar": charikar_dst,
    "improved": improved_dst,
    "pruned": pruned_dst,
}

#: Default LRU bound of each worker's window reuse index.
REUSE_MAX_WINDOWS = 16


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
        Worker reuse-index counters (hits / misses /
        ``containment_derived``), summed across workers.  Diagnostic:
        the split depends on which cells land on which worker, the
        values never do.
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
# Worker-side state (per process; reset whenever the batch id changes)
# ----------------------------------------------------------------------
_worker_graph: Optional[TemporalGraph] = None
_worker_reuse: Optional[WindowReuseIndex] = None
_worker_batch: Optional[int] = None

#: Driver-side batch tokens.  A fresh token per run_batch call makes the
#: jobs=1 inline path re-initialise too, so repeated batches (bench
#: repeats) honestly re-derive their artifacts instead of hitting state
#: left over from the previous batch.
_BATCH_TOKENS = itertools.count(1)


def _init_worker(graph_bytes: bytes, batch_token: int) -> None:
    """Per-worker initializer: deserialize the graph once, reset reuse."""
    global _worker_graph, _worker_reuse, _worker_batch
    if _worker_batch == batch_token:
        return
    _worker_graph = pickle.loads(graph_bytes)
    _worker_reuse = WindowReuseIndex(max_windows=REUSE_MAX_WINDOWS)
    _worker_batch = batch_token


def _cell_value(
    sub: TemporalGraph,
    cell: SweepCell,
    budget: Optional[Budget],
):
    """Solve one cell on an already-extracted subgraph.

    Mirrors ``minimum_spanning_tree_w`` exactly -- same terminal
    ordering, same solver entry points, same postprocessing -- but goes
    through the per-process ``prepare_mstw_instance`` memo so cells that
    share a ``(root, window)`` pair share stages 1-3.
    """
    transformed, prepared = prepare_mstw_instance(sub, cell.root, cell.window)
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
    cell: SweepCell, budget_seconds: Optional[float] = None
) -> Dict[str, Any]:
    """Worker task: solve one cell against the worker's shared state.

    Returns a JSON-stable payload -- the encoded cell value, the reuse
    counter delta this cell caused, and the fallback-ladder summary --
    so results survive the process boundary losslessly.
    """
    graph, reuse = _worker_graph, _worker_reuse
    if graph is None or reuse is None:
        raise RuntimeError(
            "run_sweep_cell outside an initialised batch worker; "
            "use run_batch(), which installs the worker initializer"
        )
    before = reuse.stats()
    sub = reuse.extract(graph, cell.window)
    budget = Budget.per_task(budget_seconds)
    fallback_summary: Optional[Dict[str, Any]] = None
    try:
        value, fallback_summary = _cell_value(sub, cell, budget)
    except BudgetExceededError as exc:
        value = OverBudgetCell(elapsed=exc.elapsed_seconds)
    after = reuse.stats()
    return {
        "cell": encode_cell(value),
        "reuse": {key: after[key] - before[key] for key in sorted(after)},
        "fallback": fallback_summary,
    }


def _window_aligned_chunk_size(
    cells: Sequence[SweepCell], jobs: int = 1
) -> Optional[int]:
    """Chunk size aligning pool chunks with consecutive same-window runs.

    A pure function of the cell list: when the cells form uniform
    consecutive window groups (the sweep shape -- every window queried
    by the same variant list), chunking by the group size puts each
    window's cells in exactly one chunk, so one worker pays that
    window's extraction + preparation and every variant shares it.

    When the groups additionally *slide forward* (both window
    boundaries non-decreasing group to group), the chunk grows to
    ``group_size * ceil(groups / jobs)``: each worker then receives one
    contiguous **slide-ordered chain** of windows, the shape under
    which its reuse index and prepare memo see consecutive windows in
    slide order (the incremental engine's sweet spot) instead of an
    arbitrary interleaving.  Outputs are unaffected either way -- the
    merge layer restores submission order; alignment is a work-sharing
    optimisation, never a correctness requirement.

    Any other shape returns ``None`` (engine default).
    """
    sizes: List[int] = []
    group_windows: List[TimeWindow] = []
    previous: Optional[TimeWindow] = None
    for cell in cells:
        if previous is not None and cell.window == previous:
            sizes[-1] += 1
        else:
            sizes.append(1)
            group_windows.append(cell.window)
        previous = cell.window
    if len(sizes) > 1 and len(set(sizes)) == 1 and sizes[0] > 1:
        forward = all(
            b.t_alpha >= a.t_alpha and b.t_omega >= a.t_omega
            for a, b in zip(group_windows, group_windows[1:])
        )
        if forward and jobs > 1:
            chains = -(-len(sizes) // jobs)  # ceil
            return sizes[0] * chains
        return sizes[0]
    return None


def run_batch(
    graph: TemporalGraph,
    cells: Sequence[SweepCell],
    jobs: int = 1,
    budget_seconds: Optional[float] = None,
    chunk_size: Optional[int] = None,
    start_method: Optional[str] = None,
) -> BatchResult:
    """Execute a sweep of cells with per-worker graph state and reuse.

    Output is identical to :func:`run_sweep_serial` on the same inputs
    at any ``jobs`` value (property-tested): the executor's merge layer
    restores submission order, and every derivation the reuse index
    performs is exact.  Group cells by window in the input order --
    chunks are contiguous, and when the groups are uniform the default
    chunk size aligns chunks with them
    (:func:`_window_aligned_chunk_size`), so a window's extraction and
    preparation are paid by exactly one worker no matter how many
    variants query it.
    """
    if chunk_size is None:
        chunk_size = _window_aligned_chunk_size(cells, jobs)
    payload = pickle.dumps(graph)
    token = next(_BATCH_TOKENS)
    task = partial(run_sweep_cell, budget_seconds=budget_seconds)
    executor = ParallelExecutor(
        jobs,
        initializer=_init_worker,
        initargs=(payload, token),
        start_method=start_method,
        chunk_size=chunk_size,
    )
    with executor:
        raw = executor.map(task, list(cells))
    reuse = {
        "hits": 0,
        "misses": 0,
        "containment_derived": 0,
        "index_served_misses": 0,
    }
    for entry in raw:
        for key, delta in entry["reuse"].items():
            reuse[key] = reuse.get(key, 0) + delta
    return BatchResult(
        values=[decode_cell(entry["cell"]) for entry in raw],
        reuse=reuse,
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
    tests and as the honest baseline of the ``parallel_speedup`` bench
    scenarios.
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
