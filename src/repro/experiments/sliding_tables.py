"""Experiment: the Section 2.3 sliding-window forecast sweep.

"As the time window slides forward, we can predict the minimum cost
for the future": this table slides a fixed-length window across the
Phone contact network and reports, per window, how far the root
reaches (``MST_a``) and at what minimum cost (``MST_w``).  Both sweeps
run through :func:`repro.core.sliding.sweep`: each ``MST_a``
window is Algorithm 1 over the parent graph's columns, and each
``MST_w`` window runs the cold pipeline over the root's reach.

Like the table modules, the sweep cells run through the
:class:`ExperimentContext` cell protocol (budgeted, checkpointed,
resumable), and their values come from module-level functions.  Each
cell value is a JSON-encodable dict (one row per window plus the
engine's window count), so a full sweep checkpoints and resumes as a
unit.

Empty windows follow the :class:`repro.core.sliding.WindowMeasurement`
contract end to end: ``makespan`` is ``None`` (never NaN) and renders
as the paper's ``'-'``; ``cost`` and ``coverage`` are exact zeros.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.sliding import sweep
from repro.datasets.registry import load_dataset
from repro.experiments.checkpoint import ExperimentContext
from repro.experiments.runner import TableResult
from repro.resilience.budget import Budget

#: Call-detail records as the contact network (real durations).
DATASET = "phone"

#: Level of the ``MST_w`` approximation (Alg6-2: the paper's sweet spot
#: between quality and runtime).
MSTW_LEVEL = 2

#: At most this many windows are printed; the sweep itself always
#: covers every window and the notes report the full count.
MAX_DISPLAY_ROWS = 12


def sweep_params(quick: bool) -> Tuple[float, float, float]:
    """``(scale, window_fraction, step_fraction)`` of the sweep.

    The step is a small fraction of the window so consecutive windows
    overlap heavily: a fine-grained forecast series.
    """
    return (0.1, 0.5, 0.0125) if quick else (0.15, 0.5, 0.01)


def sweep_cell_value(kind: str, quick: bool) -> Dict[str, Any]:
    """One full sweep of ``kind`` (``"msta"`` or ``"mstw"``).

    Returns a JSON-encodable ``{"rows": [...], "stats": {...}}`` where
    each row carries the window boundaries and the measurement's
    coverage / cost / makespan / caveat (empty-window contract applied:
    ``makespan`` is ``None``, ``cost`` and ``coverage`` are zero).
    Windows are unbudgeted.
    """
    scale, window_fraction, step_fraction = sweep_params(quick)
    graph = load_dataset(DATASET, scale=scale)
    t_start, t_end = graph.time_span()
    span = t_end - t_start
    window_length = span * window_fraction
    step = span * step_fraction
    root = max(graph.vertices, key=lambda v: len(graph.out_edges(v)))
    result = sweep(graph, root, window_length, step, kind=kind, level=MSTW_LEVEL)
    return {"rows": result.rows(), "stats": result.stats}


def run_sweep(
    quick: bool = False, context: Optional[ExperimentContext] = None
) -> TableResult:
    """The sliding-window forecast table (one row per sampled window)."""
    ctx = context if context is not None else ExperimentContext()
    scale, window_fraction, step_fraction = sweep_params(quick)

    def msta_cell(budget: Optional[Budget], quick=quick) -> Dict[str, Any]:
        return sweep_cell_value("msta", quick)

    def mstw_cell(budget: Optional[Budget], quick=quick) -> Dict[str, Any]:
        return sweep_cell_value("mstw", quick)

    msta = ctx.cell("sweep:msta", msta_cell)
    mstw = ctx.cell("sweep:mstw", mstw_cell)

    result = TableResult(
        name="sweep",
        title=(
            f"Sliding-window sweep: MST_a reach and MST_w cost on "
            f"{DATASET} (scale {scale}, window {window_fraction:.0%} of "
            f"span, step {step_fraction:.1%})"
        ),
        header=["t_alpha", "t_omega", "reached", "makespan", "mstw cost"],
    )
    msta_rows: List[Dict[str, Any]] = msta["rows"]
    mstw_rows: List[Dict[str, Any]] = mstw["rows"]
    stride = max(1, -(-len(msta_rows) // MAX_DISPLAY_ROWS))
    for i, (reach_row, cost_row) in enumerate(zip(msta_rows, mstw_rows)):
        if i % stride:
            continue
        makespan = reach_row["makespan"]
        result.add_row(
            reach_row["t_alpha"],
            reach_row["t_omega"],
            reach_row["coverage"],
            "-" if makespan is None else makespan,
            cost_row["cost"],
        )
    result.notes.append(
        f"showing 1 of every {stride} of the {len(msta_rows)} windows; "
        "empty windows "
        "report coverage 0, cost 0.0, and makespan '-' (None in the API, "
        "never NaN)"
    )
    return result
