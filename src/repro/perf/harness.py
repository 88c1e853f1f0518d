"""Median-of-N timing harness emitting schema-versioned JSON.

Each scenario's ``setup`` runs once (untimed); the ``run`` body is then
timed ``repeats`` times with :func:`time.perf_counter` and the median
is reported, followed by one *untimed* :mod:`tracemalloc` pass for the
peak-allocation figure (tracing would distort the timings).  Scenarios
declaring a ``baseline`` get a ``speedup`` field --
``baseline_median / median`` -- computed after the whole suite has run.

The output document is versioned (:data:`SCHEMA_VERSION`); the
comparator (:mod:`repro.perf.compare`) refuses to diff documents whose
schema versions it does not know to be comparable, so CI fails loudly
instead of comparing apples to oranges when the schema evolves.

Schema history:

* v1 -- the PR-2 shape: scale/repeats/platform + scenario rows.
* v2 -- adds a top-level ``jobs`` field, ``cpu_count`` and
  ``start_method`` to ``platform``, and an optional ``reuse_hits``
  per-scenario field (the batch engine's reuse-index hit count).  All
  v1 fields are unchanged, so the comparator accepts v1 baselines.
* v3 -- added an optional per-scenario ``shard_stats`` field for the
  time-sharded engine's per-shard diagnostics.  That engine is gone and
  the field is no longer written; committed v3 documents that still
  carry ``"shard_stats": null`` stay comparable, since the comparator
  reads only the fields it gates on.  The comparator accepts v1 and v2
  baselines too.
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
import time
import tracemalloc
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.parallel.engine import cpu_count, default_start_method
from repro.perf.scenarios import Scenario, build_scenarios

SCHEMA_VERSION = 3


@dataclass
class ScenarioResult:
    """Measured figures for one scenario."""

    name: str
    group: str
    description: str
    params: Dict[str, Any]
    repeats: int
    median_s: float
    min_s: float
    max_s: float
    expansions: Optional[int] = None
    peak_alloc_bytes: Optional[int] = None
    baseline: Optional[str] = None
    tolerance: Optional[float] = None
    speedup: Optional[float] = None
    reuse_hits: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass
class _Timing:
    samples: List[float] = field(default_factory=list)
    expansions: Optional[int] = None
    peak_alloc_bytes: Optional[int] = None
    reuse_hits: Optional[int] = None
    params: Dict[str, Any] = field(default_factory=dict)


def _size_params(scenario: Scenario, state: Any) -> Dict[str, Any]:
    """Enrich the scenario params with measured instance sizes.

    ``n``/``M`` are the temporal graph's vertex/edge counts, ``k`` the
    terminal count of the prepared DST instance (with ``closure_n`` its
    transformed vertex count), and ``i`` the solver level -- the axes
    the paper's complexity bounds are stated in.
    """
    params = dict(scenario.params)
    if isinstance(state, dict):
        graph = state.get("graph")
        if graph is not None:
            params.setdefault("n", graph.num_vertices)
            params.setdefault("M", graph.num_edges)
        prepared = state.get("prepared")
        if prepared is not None:
            params.setdefault("closure_n", prepared.num_vertices)
            params.setdefault("k", prepared.num_terminals)
    if "level" in params:
        params.setdefault("i", params.pop("level"))
    return params


def _measure(scenario: Scenario, repeats: int, track_alloc: bool) -> _Timing:
    state = scenario.setup()
    timing = _Timing()
    for _ in range(repeats):
        start = time.perf_counter()
        outcome = scenario.run(state)
        timing.samples.append(time.perf_counter() - start)
        # run() returns None, a bare expansion count, or a dict of
        # counters ({"expansions", "reuse_hits"}).
        if isinstance(outcome, dict):
            if outcome.get("expansions") is not None:
                timing.expansions = outcome["expansions"]
            if outcome.get("reuse_hits") is not None:
                timing.reuse_hits = outcome["reuse_hits"]
        elif outcome is not None:
            timing.expansions = outcome
    if track_alloc:
        tracemalloc.start()
        try:
            scenario.run(state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        timing.peak_alloc_bytes = peak
    timing.params = _size_params(scenario, state)
    return timing


def run_benchmarks(
    scale: str,
    repeats: int = 5,
    names: Optional[Iterable[str]] = None,
    track_alloc: bool = True,
    progress: Optional[Any] = None,
    jobs: int = 1,
) -> Dict[str, Any]:
    """Run the scenario suite and return the bench document (a dict).

    ``names`` restricts the run to a subset of scenario names (baseline
    scenarios referenced by a selected scenario are pulled in
    automatically so speedups stay computable).  ``progress`` is an
    optional ``callable(str)`` for per-scenario status lines.  ``jobs``
    unlocks the pool-backed ``parallel_speedup`` variants up to that
    worker count and is recorded in the document.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    scenarios = build_scenarios(scale, jobs)
    if names is not None:
        wanted = set(names)
        known = {s.name for s in scenarios}
        unknown = wanted - known
        if unknown:
            raise KeyError(
                f"unknown scenario(s) {sorted(unknown)}; "
                f"available: {sorted(known)}"
            )
        # Pull in baselines of selected scenarios.
        by_name = {s.name: s for s in scenarios}
        for name in list(wanted):
            baseline = by_name[name].baseline
            if baseline is not None:
                wanted.add(baseline)
        scenarios = [s for s in scenarios if s.name in wanted]

    results: List[ScenarioResult] = []
    for scenario in scenarios:
        if progress is not None:
            progress(f"  {scenario.name} ...")
        timing = _measure(scenario, repeats, track_alloc)
        results.append(
            ScenarioResult(
                name=scenario.name,
                group=scenario.group,
                description=scenario.description,
                params=timing.params,
                repeats=repeats,
                median_s=statistics.median(timing.samples),
                min_s=min(timing.samples),
                max_s=max(timing.samples),
                expansions=timing.expansions,
                peak_alloc_bytes=timing.peak_alloc_bytes,
                baseline=scenario.baseline,
                tolerance=scenario.tolerance,
                reuse_hits=timing.reuse_hits,
            )
        )

    by_name = {r.name: r for r in results}
    for result in results:
        if result.baseline and result.baseline in by_name:
            baseline_median = by_name[result.baseline].median_s
            if result.median_s > 0:
                result.speedup = baseline_median / result.median_s

    return {
        "schema_version": SCHEMA_VERSION,
        "scale": scale,
        "repeats": repeats,
        "jobs": jobs,
        "platform": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "system": platform.system(),
            "machine": platform.machine(),
            "cpu_count": cpu_count(),
            "start_method": default_start_method(),
        },
        "scenarios": [r.to_dict() for r in results],
    }


def write_benchmarks(document: Dict[str, Any], path: str) -> None:
    """Serialise a bench document to ``path`` (pretty, trailing newline)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=False)
        handle.write("\n")


def summarize(document: Dict[str, Any], stream=None) -> None:
    """Print a human-oriented table of a bench document."""
    if stream is None:
        stream = sys.stdout
    rows = document.get("scenarios", [])
    name_width = max((len(r["name"]) for r in rows), default=4)
    header = (
        f"{'scenario':<{name_width}}  {'median':>10}  {'min':>10}  "
        f"{'expansions':>10}  {'speedup':>8}"
    )
    print(header, file=stream)
    print("-" * len(header), file=stream)
    for row in rows:
        expansions = row.get("expansions")
        speedup = row.get("speedup")
        print(
            f"{row['name']:<{name_width}}"
            f"  {row['median_s'] * 1e3:>8.2f}ms"
            f"  {row['min_s'] * 1e3:>8.2f}ms"
            f"  {expansions if expansions is not None else '-':>10}"
            f"  {f'{speedup:.2f}x' if speedup is not None else '-':>8}",
            file=stream,
        )
