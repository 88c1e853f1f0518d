"""The four end-to-end workloads, driven only through public entry points.

:data:`WORKLOADS` maps each name to its set-up, which turns
``(seed, size)`` into a :class:`Pass`: a fixed list of operations plus
a way to read the engine counters afterwards.  A pass is the unit
``run.py`` repeats, each time in a fresh process, so every repeat
starts from the same empty caches.

This module imports nothing from ``repro`` at import time: ``child.py``
installs the tracing wrappers first (when asked to) and only then calls
a workload's set-up, so every library function it binds is already the
wrapped one.

The digest of an operation covers its outputs but never its timings:
float results by ``repr``, ``MST_a`` arrival maps, batch cell values,
and the non-timing cells of the paper tables.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``check(result) -> (digest, failure or None)``.
Check = Callable[[Any], Tuple[str, Optional[str]]]


@dataclass(frozen=True)
class Op:
    """One timed call and the untimed check of its result."""

    id: str
    run: Callable[[], Any]
    check: Check


@dataclass
class Pass:
    """The operations of one pass and the counters the engines kept."""

    ops: List[Op]
    stats: Callable[[], Dict[str, float]] = field(default=lambda: {})


#: ``setup(seed, size, workdir) -> Pass``.
Setup = Callable[[int, str, str], Pass]


def digest_of(value: Any) -> str:
    """sha256/16 of a canonical JSON rendering (floats keep every digit)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# paper_tables: run_experiment for Tables 4-8 with checkpointing on
# ----------------------------------------------------------------------
#: ``(experiment, quick)`` per size.  Full-mode Table 7 takes ~31 s on
#: its own (Alg6-4 on b01-b11), longer than a whole pass may run, so it
#: runs in quick mode: its level-3 cells (Charik-3, Alg6-3) stay.
PAPER_TABLES = {
    "full": [
        ("table4", False),
        ("table5", False),
        ("table6", False),
        ("table7", True),
        ("table8", False),
    ],
    "tiny": [("table4", True), ("table6", True), ("table8", True)],
}

#: Columns whose cells are wall-clock timings; ``"*"`` means every
#: column after the row label.  They are left out of the digest.
TIMING_COLUMNS = {
    "table4": {"Tprep"},
    "table5": "*",
    "table7": {"Charik-3", "Alg6-3", "Alg6-4"},
}


def _check_table(result: Any) -> Tuple[str, Optional[str]]:
    from repro.experiments.checkpoint import encode_cell
    from repro.experiments.runner import DegradedCell, OverBudgetCell

    timing = TIMING_COLUMNS.get(result.name, set())
    rows = []
    failure = None
    for row in result.rows:
        cells = []
        for column, cell in zip(result.header, row):
            if isinstance(cell, (OverBudgetCell, DegradedCell)):
                failure = f"{result.name}: {column} cell is {cell}"
            is_timing = timing == "*" and column != result.header[0]
            if (is_timing or column in timing) and isinstance(cell, float):
                cells.append("<time>")
            else:
                cells.append(encode_cell(cell))
        rows.append(cells)
    return digest_of([result.name, result.header, rows]), failure


def setup_paper_tables(seed: int, size: str, workdir: str) -> Pass:
    """The paper's fixed instances: seed-invariant by design."""
    from repro.experiments.checkpoint import ExperimentContext
    from repro.experiments.registry import run_experiment

    context = ExperimentContext(checkpoint_dir=os.path.join(workdir, "checkpoints"))
    ops = [
        Op(
            name,
            partial(run_experiment, name, quick=quick, context=context),
            _check_table,
        )
        for name, quick in PAPER_TABLES[size]
    ]
    return Pass(ops)


def _first_window_reach(graph: Any, window: Any) -> Dict[Any, int]:
    """Vertices of ``window``'s subgraph -> how many vertices each reaches."""
    from repro.temporal.paths import reachable_set
    from repro.temporal.window import extract_window

    sub = extract_window(graph, window)
    vertices = sorted(sub.vertices, key=repr)
    return {v: len(reachable_set(sub, v, window)) for v in vertices}


# ----------------------------------------------------------------------
# sliding_sweep: SlidingEngine(level=2).measure_mstw along short sweeps
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SlidingShape:
    dataset: str
    scale: float
    window: float  # share of the time span
    step: float  # share of the time span
    windows: int  # per root
    roots: int
    reach: float  # target share of the first window's vertices a root reaches


#: Roots are the vertices whose first-window reach is closest to
#: ``reach``.  The paper's rule (the first vertex reaching 2%) or the
#: top-reach vertex makes the work per window depend on one heavy-tailed
#: draw and varied 30% between seeds; several roots of similar reach
#: vary 8%.
SLIDING = {
    "full": SlidingShape("slashdot", 3.0, 0.35, 0.005, 10, 6, 0.05),
    "tiny": SlidingShape("slashdot", 0.5, 0.35, 0.02, 4, 2, 0.05),
}


def _check_window(measurement: Any) -> Tuple[str, Optional[str]]:
    digest = digest_of([measurement.coverage, measurement.cost, measurement.makespan])
    if measurement.caveat is not None:
        return digest, f"degraded window: {measurement.caveat}"
    return digest, None


def setup_sliding_sweep(seed: int, size: str, workdir: str) -> Pass:
    from repro.core.sliding import iter_windows
    from repro.datasets.registry import load_dataset
    from repro.incremental import SlidingEngine

    shape = SLIDING[size]
    graph = load_dataset(shape.dataset, scale=shape.scale, seed=seed, weighted=True)
    t_start, t_end = graph.time_span()
    span = t_end - t_start
    windows = list(iter_windows(graph, span * shape.window, span * shape.step))
    windows = windows[: shape.windows]
    reach = _first_window_reach(graph, windows[0])
    target = shape.reach * len(reach)
    roots = sorted(reach, key=lambda v: (abs(reach[v] - target), repr(v)))
    roots = roots[: shape.roots]
    engines = [SlidingEngine(graph, root, level=2) for root in roots]
    ops = [
        Op(f"r{r}w{i:02d}", partial(engine.measure_mstw, window), _check_window)
        for r, engine in enumerate(engines)
        for i, window in enumerate(windows)
    ]

    def stats() -> Dict[str, float]:
        counters: Dict[str, float] = {}
        for engine in engines:
            for source in (engine.msta.stats, engine.stats):
                for key, value in source.items():
                    counters[key] = counters.get(key, 0.0) + value
        return counters

    return Pass(ops, stats)


# ----------------------------------------------------------------------
# batch_sweep: run_batch(jobs=2) per dataset over a sliding cell grid
# ----------------------------------------------------------------------
BATCH_JOBS = 2
#: Pool workers inherit the tracing wrappers only through ``fork``; the
#: untraced repeats use it too so both run the same configuration.
BATCH_START_METHOD = "fork"

#: ``(algorithm, level)`` queried for every (window, root) pair.
BATCH_VARIANTS = (("pruned", 1), ("pruned", 2), ("improved", 2), ("charikar", 2))


@dataclass(frozen=True)
class BatchShape:
    datasets: Tuple[Tuple[str, float], ...]
    window: float
    step: float
    roots: int


BATCH = {
    "full": BatchShape(
        (("epinions", 1.0), ("slashdot", 2.0), ("facebook", 0.5), ("enron", 0.5)),
        0.2,
        0.1,
        5,
    ),
    "tiny": BatchShape((("facebook", 0.2), ("enron", 0.2)), 0.25, 0.25, 2),
}


def _batch_grid(graph: Any, shape: BatchShape) -> List[Any]:
    """Sliding windows x top-reach roots of the first window x variants.

    A (window, root) pair whose root reaches nothing is left out: the
    library raises for it, and the workload must not fail.
    """
    from repro.core.sliding import iter_windows
    from repro.parallel.batch import SweepCell
    from repro.temporal.paths import reachable_set
    from repro.temporal.window import extract_window

    t_start, t_end = graph.time_span()
    span = t_end - t_start
    windows = list(iter_windows(graph, span * shape.window, span * shape.step))
    reach = _first_window_reach(graph, windows[0])
    roots = sorted(reach, key=lambda v: (-reach[v], repr(v)))[: shape.roots]
    cells = []
    for window in windows:
        sub = extract_window(graph, window)
        for root in roots:
            if root in sub.vertices and len(reachable_set(sub, root, window)) > 1:
                cells.extend(
                    SweepCell(root, window, level=level, algorithm=algorithm)
                    for algorithm, level in BATCH_VARIANTS
                )
    return cells


def setup_batch_sweep(seed: int, size: str, workdir: str) -> Pass:
    from repro.datasets.registry import load_dataset
    from repro.experiments.checkpoint import encode_cell
    from repro.experiments.runner import DegradedCell, OverBudgetCell
    from repro.parallel.batch import run_batch

    shape = BATCH[size]
    counters = dict.fromkeys(("reuse_hits", "reuse_lookups", "retries", "cells"), 0.0)
    counters["jobs"] = float(BATCH_JOBS)

    def check(result: Any) -> Tuple[str, Optional[str]]:
        counters["reuse_hits"] += result.reuse.get("hits", 0)
        counters["reuse_lookups"] += result.reuse.get("hits", 0) + result.reuse.get(
            "misses", 0
        )
        counters["retries"] += result.faults.get("retries", 0)
        counters["cells"] += len(result.values)
        failure = None
        bad = [
            v for v in result.values if isinstance(v, (OverBudgetCell, DegradedCell))
        ]
        if bad:
            failure = f"{len(bad)} over-budget/degraded cells, e.g. {bad[0]}"
        elif result.faults.get("timeouts", 0):
            failure = f"{result.faults['timeouts']} timed-out cells"
        return digest_of([encode_cell(v) for v in result.values]), failure

    ops = []
    for dataset, scale in shape.datasets:
        graph = load_dataset(dataset, scale=scale, seed=seed, weighted=True)
        cells = _batch_grid(graph, shape)
        run = partial(
            run_batch, graph, cells, jobs=BATCH_JOBS, start_method=BATCH_START_METHOD
        )
        ops.append(Op(f"{dataset}-{scale:g}", run, check))
    return Pass(ops, lambda: dict(counters))


# ----------------------------------------------------------------------
# query_stream: independent point queries, MST_a then MST_w, full graph
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QueryShape:
    dataset: str
    scale: float
    window: float  # share of the time span
    queries: int


QUERIES = {
    "full": QueryShape("epinions", 25.0, 0.01, 32),
    "tiny": QueryShape("epinions", 2.0, 0.02, 4),
}


def _check_query(outcome: Tuple[Any, Any]) -> Tuple[str, Optional[str]]:
    tree, result = outcome
    arrivals = sorted(tree.arrival_times.items(), key=lambda item: repr(item[0]))
    digest = digest_of(
        [[repr(v), t] for v, t in arrivals] + [result.weight, result.num_terminals]
    )
    if result.degraded:
        return digest, f"MST_w degraded to {result.rung}"
    return digest, None


def setup_query_stream(seed: int, size: str, workdir: str) -> Pass:
    from repro import minimum_spanning_tree_a, minimum_spanning_tree_w
    from repro.datasets.registry import load_dataset
    from repro.temporal.window import TimeWindow, extract_window

    shape = QUERIES[size]
    graph = load_dataset(shape.dataset, scale=shape.scale, seed=seed, weighted=True)
    graph.columnar()

    def query(root: Any, window: Any) -> Tuple[Any, Any]:
        tree = minimum_spanning_tree_a(graph, root, window)
        return tree, minimum_spanning_tree_w(graph, root, window, level=2)

    t_start, t_end = graph.time_span()
    width = (t_end - t_start) * shape.window
    stratum = (t_end - t_start - width) / shape.queries
    rng = random.Random(seed)
    ops = []
    while len(ops) < shape.queries:
        # One uniform draw per equal slice of the time range: the same
        # spread of window positions at every seed.
        t_alpha = t_start + (len(ops) + rng.random()) * stratum
        window = TimeWindow(t_alpha, t_alpha + width)
        edges = extract_window(graph, window).edges
        if not edges:
            continue
        root = edges[rng.randrange(len(edges))].source
        ops.append(Op(f"q{len(ops):03d}", partial(query, root, window), _check_query))
    return Pass(ops)


WORKLOADS: Dict[str, Setup] = {
    "paper_tables": setup_paper_tables,
    "sliding_sweep": setup_sliding_sweep,
    "batch_sweep": setup_batch_sweep,
    "query_stream": setup_query_stream,
}
