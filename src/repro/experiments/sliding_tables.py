"""Experiment: the Section 2.3 sliding-window forecast sweep.

"As the time window slides forward, we can predict the minimum cost
for the future": this table slides a fixed-length window across the
Phone contact network and reports, per window, how far the root
reaches (``MST_a``) and at what minimum cost (``MST_w``).  Both sweeps
run through :class:`repro.incremental.SlidingEngine`: each ``MST_a``
slide repairs the previous window's tree where certifiable (the
repair/cold split is reported in the notes), and each ``MST_w`` window
runs the cold pipeline over the root's reach.

Like the table modules, the sweep cells run through the
:class:`ExperimentContext` cell protocol (budgeted, checkpointed,
resumable), and their values come from module-level functions.  Each
cell value is a JSON-encodable dict (one row per window plus the
engine statistics), so a full sweep checkpoints and resumes as a unit.

Empty windows follow the :class:`repro.core.sliding.WindowMeasurement`
contract end to end: ``makespan`` is ``None`` (never NaN) and renders
as the paper's ``'-'``; ``cost`` and ``coverage`` are exact zeros.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.sliding import iter_windows
from repro.datasets.registry import load_dataset
from repro.experiments.checkpoint import ExperimentContext
from repro.experiments.runner import TableResult
from repro.incremental import SlidingEngine
from repro.resilience.budget import Budget

#: Call-detail records as the contact network (real durations, so the
#: ``MST_a`` repair applies; zero-duration datasets force cold solves).
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
    overlap heavily -- the sliding regime the ``MST_a`` repair is built
    for (coarse jumps would dirty most of the tree and fall back to
    cold solves).
    """
    return (0.1, 0.5, 0.0125) if quick else (0.15, 0.5, 0.01)


def sweep_cell_value(
    kind: str, quick: bool, budget: Optional[Budget] = None
) -> Dict[str, Any]:
    """One full sweep of ``kind`` (``"msta"`` or ``"mstw"``).

    Returns a JSON-encodable ``{"rows": [...], "stats": {...}}`` where
    each row carries the window boundaries and the measurement's
    coverage / cost / makespan / caveat (empty-window contract applied:
    ``makespan`` is ``None``, ``cost`` and ``coverage`` are zero).
    ``budget`` bounds the ``MST_a`` repair, which degrades to a cold
    solve when drained, so a sweep never raises for budget reasons;
    ``MST_w`` windows are unbudgeted.
    """
    scale, window_fraction, step_fraction = sweep_params(quick)
    graph = load_dataset(DATASET, scale=scale)
    t_start, t_end = graph.time_span()
    span = t_end - t_start
    window_length = span * window_fraction
    step = span * step_fraction
    root = max(graph.vertices, key=lambda v: len(graph.out_edges(v)))
    engine = SlidingEngine(graph, root, level=MSTW_LEVEL)
    rows: List[Dict[str, Any]] = []
    for window in iter_windows(graph, window_length, step):
        if kind == "msta":
            measurement = engine.measure_msta(window, budget=budget)
        else:
            measurement = engine.measure_mstw(window)
        rows.append(
            {
                "t_alpha": window.t_alpha,
                "t_omega": window.t_omega,
                "coverage": measurement.coverage,
                "cost": measurement.cost,
                "makespan": measurement.makespan,
                "caveat": measurement.caveat,
            }
        )
    stats = dict(engine.msta.stats)
    stats.update(engine.stats)
    return {"rows": rows, "stats": stats}


def run_sweep(
    quick: bool = False, context: Optional[ExperimentContext] = None
) -> TableResult:
    """The sliding-window forecast table (one row per sampled window)."""
    ctx = context if context is not None else ExperimentContext()
    scale, window_fraction, step_fraction = sweep_params(quick)

    def msta_cell(budget: Optional[Budget], quick=quick) -> Dict[str, Any]:
        return sweep_cell_value("msta", quick, budget)

    def mstw_cell(budget: Optional[Budget], quick=quick) -> Dict[str, Any]:
        return sweep_cell_value("mstw", quick, budget)

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
    caveats = set()
    for i, (reach_row, cost_row) in enumerate(zip(msta_rows, mstw_rows)):
        for row in (reach_row, cost_row):
            if row["caveat"]:
                caveats.add(row["caveat"])
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
    msta_stats = msta["stats"]
    result.notes.append(
        f"showing 1 of every {stride} of the {len(msta_rows)} windows; "
        "empty windows "
        "report coverage 0, cost 0.0, and makespan '-' (None in the API, "
        "never NaN)"
    )
    result.notes.append(
        f"MST_a sweep: {msta_stats['incremental_slides']} slides answered "
        f"by dirty-cone repair, {msta_stats['cold_solves']} cold"
    )
    if caveats:
        result.notes.append("caveats: " + "; ".join(sorted(caveats)))
    return result
