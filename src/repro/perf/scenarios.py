"""Deterministic benchmark scenarios covering the hot paths.

Every scenario is a seeded synthetic workload with an untimed ``setup``
(dataset generation, window/root selection, instance preparation) and a
timed ``run``.  Two scales are defined:

* ``smoke`` -- CI-sized; the whole suite finishes well under a minute;
* ``full`` -- the Table 4/5 shapes (closure graphs with ``n`` in the
  low hundreds); this is the scale behind the committed
  ``BENCH_PR2.json`` speedup numbers.

Scenarios with a ``baseline`` name are speedup pairs: the harness
records ``baseline_median / median`` as the scenario's ``speedup``.
The headline pair is ``solve_improved_i2`` vs
``solve_improved_i2_legacy`` (the verbatim pre-optimisation solver from
:mod:`repro.perf.legacy`), whose output equality is property-tested in
``tests/test_perf_caches.py``.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import faults
from repro.experiments.checkpoint import ExperimentContext
from repro.faults import TASK_ERROR, TORN_WRITE, FaultPlan, FaultSpec

from repro.core.mstw import minimum_spanning_tree_w, prepare_mstw_instance
from repro.core.sliding import iter_windows, sliding_msta, sliding_mstw
from repro.core.transformation import transform_temporal_graph
from repro.datasets.registry import load_dataset
from repro.experiments.workloads import nested_sweep_windows
from repro.parallel.batch import SweepCell, run_batch, run_sweep_serial
from repro.perf.legacy import (
    legacy_ascending_adjacency,
    legacy_earliest_arrival,
    legacy_extract_window,
    legacy_improved_dst,
    legacy_transform,
    scalar_charikar_dst,
    scalar_improved_dst,
    scalar_pruned_dst,
)
from repro.temporal.columnar import ColumnarEdgeStore
from repro.resilience.budget import Budget
from repro.steiner.charikar import charikar_dst
from repro.steiner.improved import improved_dst
from repro.steiner.pruned import pruned_dst
from repro.temporal.paths import earliest_arrival_times, reachable_set
from repro.temporal.window import (
    TimeWindow,
    extract_window,
    middle_tenth_window,
    select_root,
)


@dataclass(frozen=True)
class Scenario:
    """One timed workload.

    ``setup`` is called once (untimed) and returns an opaque state
    object; ``run(state)`` is the timed body and returns the expansion
    count when the workload threads a :class:`Budget` through a solver,
    else ``None``.  ``baseline`` names another scenario whose median
    this one is compared against (``speedup`` in the emitted document);
    ``tolerance`` overrides the comparator's default regression factor.
    """

    name: str
    group: str
    description: str
    params: Dict[str, Any] = field(default_factory=dict)
    setup: Callable[[], Any] = lambda: None
    run: Callable[[Any], Optional[int]] = lambda state: None
    baseline: Optional[str] = None
    tolerance: Optional[float] = None


@dataclass(frozen=True)
class _ScaleSpec:
    """Dataset shapes for one scale."""

    # (dataset name, generator scale, window fraction) for the MST_w
    # pipeline scenarios.
    mstw_dataset: Tuple[str, float, float]
    # Same, for the MST_a / path-scan scenarios (cheap, so larger).
    msta_dataset: Tuple[str, float, float]
    # DST level used by the "i2" solver scenarios (always 2) and
    # whether the level-3 pruned scenario is included.
    include_level3: bool
    # (dataset name, generator scale) for the parallel_speedup batch
    # sweep, plus its nested window fractions (decreasing -> nested).
    parallel_dataset: Tuple[str, float] = ("epinions", 0.05)
    sweep_fractions: Tuple[float, ...] = (0.6, 0.45, 0.3)
    # (dataset name, generator scale, window fraction, step fraction)
    # for the sharded_sweep family: a *sliding* window grid, whose
    # forward-sliding window groups the batch engine chains per worker.
    shard_sweep: Tuple[str, float, float, float] = (
        "epinions", 0.05, 0.3, 0.15,
    )
    # (dataset name, generator scale, window fraction, step fraction)
    # for the sliding_sweep family, one scenario per kind.
    sliding_msta_dataset: Tuple[str, float, float, float] = (
        "slashdot", 0.5, 0.5, 0.1,
    )
    sliding_mstw_dataset: Tuple[str, float, float, float] = (
        "slashdot", 0.5, 0.35, 0.08,
    )
    # (dataset name, generator scale, window fraction) for the
    # columnar_core window-extraction / transformation pairs.  The
    # shape is a *narrow* window over a *long* history -- the sliding /
    # interactive regime where the legacy O(M) edge scans dominate and
    # the columnar store's O(log M + output) queries pay off.
    columnar_dataset: Tuple[str, float, float] = ("epinions", 4.0, 0.02)
    # Same, for the earliest-arrival pair: a dense temporal multigraph
    # whose window reaches every vertex, so the sweep is relaxation-
    # bound (on sparse low-reach shapes the legacy heap already wins
    # and the batched kernel has nothing to vectorise).
    columnar_ea_dataset: Tuple[str, float, float] = ("phone", 1.0, 0.6)
    # (dataset name, generator scale, window fraction) for the
    # dst_kernels solver pairs.  The prepared instance MUST land above
    # the batched-kernel size floor (``n * |T|`` >=
    # ``repro.steiner.kernels.KERNEL_MIN_CELLS``) or the kernel legs
    # silently run the scalar loops and the pair measures nothing; the
    # setup asserts this.  The default mstw_dataset shapes sit *below*
    # the floor by design (quick-mode tables stay scalar), hence the
    # separate, larger spec here.  The cells count the *rooted*
    # instance (the vertices the root reaches), not the whole 𝔾.
    dst_kernels_dataset: Tuple[str, float, float] = ("slashdot", 1.0, 0.45)


SCALES: Dict[str, _ScaleSpec] = {
    "smoke": _ScaleSpec(
        mstw_dataset=("epinions", 0.02, 0.3),
        msta_dataset=("slashdot", 0.3, 0.5),
        include_level3=True,
        parallel_dataset=("epinions", 0.05),
        sweep_fractions=(0.6, 0.45, 0.3),
        columnar_dataset=("epinions", 4.0, 0.02),
        columnar_ea_dataset=("phone", 1.0, 0.6),
        dst_kernels_dataset=("slashdot", 1.0, 0.45),
    ),
    "full": _ScaleSpec(
        mstw_dataset=("epinions", 0.08, 0.3),
        msta_dataset=("slashdot", 1.0, 0.5),
        include_level3=False,
        parallel_dataset=("epinions", 1.0),
        sweep_fractions=(0.8, 0.65, 0.5, 0.35, 0.2),
        shard_sweep=("epinions", 2.0, 0.25, 0.125),
        sliding_msta_dataset=("slashdot", 0.5, 0.5, 0.02),
        sliding_mstw_dataset=("slashdot", 1.0, 0.35, 0.02),
        columnar_dataset=("epinions", 600.0, 0.002),
        columnar_ea_dataset=("phone", 30.0, 0.6),
        dst_kernels_dataset=("epinions", 0.12, 0.3),
    ),
}

#: (algorithm, level) variants queried per sweep window in the
#: parallel_speedup scenarios: Table 5's i=1 solver comparison (Alg 1 /
#: Alg 4 / Alg 6) replayed per window.  Several variants per window is
#: exactly the shape where per-window prep sharing pays -- at i=1 the
#: preparation pipeline (reachability sweep, transformation, metric
#: closure) dominates each query, so the engine's shared prep carries
#: the whole sweep while the naive loop re-derives it per cell.
_SWEEP_VARIANTS: Tuple[Tuple[str, int], ...] = (
    ("pruned", 1),
    ("improved", 1),
    ("charikar", 1),
)


def _mstw_state(spec: _ScaleSpec):
    """Graph, window, root, and a prepared instance for the MST_w runs."""
    name, scale, fraction = spec.mstw_dataset
    base = load_dataset(name, scale=scale, weighted=True)
    window = middle_tenth_window(base, fraction=fraction)
    sub = extract_window(base, window)
    root = select_root(sub, window, min_reach_fraction=0.02)
    transformed, prepared = prepare_mstw_instance(sub, root, window)
    return {
        "base": base,
        "graph": sub,
        "window": window,
        "root": root,
        "transformed": transformed,
        "prepared": prepared,
    }


def _dst_kernels_state(spec: _ScaleSpec):
    """A prepared instance big enough for the batched density kernels.

    Same pipeline as :func:`_mstw_state` but over
    ``spec.dst_kernels_dataset``, and the instance is verified to sit
    above the kernel size floor: below it ``kernels.eligible`` is
    False and the "kernel" legs time the scalar loops -- a silent
    no-op pair.  Shrinking the dataset must fail loudly instead.
    """
    from repro.steiner import kernels

    name, scale, fraction = spec.dst_kernels_dataset
    base = load_dataset(name, scale=scale, weighted=True)
    window = middle_tenth_window(base, fraction=fraction)
    sub = extract_window(base, window)
    root = select_root(sub, window, min_reach_fraction=0.02)
    _, prepared = prepare_mstw_instance(sub, root, window)
    cells = prepared.num_vertices * len(prepared.terminals)
    if cells < kernels.KERNEL_MIN_CELLS:
        raise RuntimeError(
            f"dst_kernels dataset {spec.dst_kernels_dataset} prepares "
            f"{prepared.num_vertices} x {len(prepared.terminals)} = "
            f"{cells} cells, below KERNEL_MIN_CELLS="
            f"{kernels.KERNEL_MIN_CELLS}: the kernel legs would "
            "silently run scalar"
        )
    return {"prepared": prepared}


def _msta_state(spec: _ScaleSpec):
    name, scale, fraction = spec.msta_dataset
    graph = load_dataset(name, scale=scale)
    window = middle_tenth_window(graph, fraction=fraction)
    sub = extract_window(graph, window)
    root = select_root(sub, window, min_reach_fraction=0.02)
    return {"base": graph, "graph": sub, "window": window, "root": root}


def _columnar_state(spec: _ScaleSpec):
    """Long-history graph, narrow window, and a root with in-window out-edges.

    The columnar store (and, for the legacy earliest-arrival sweep, the
    per-vertex ascending adjacency) is warmed here so the timed bodies
    compare steady-state query costs, not one-off layout builds -- the
    build itself is measured separately by ``columnar_store_build``.
    """
    name, scale, fraction = spec.columnar_dataset
    graph = load_dataset(name, scale=scale)
    window = middle_tenth_window(graph, fraction=fraction)
    store = graph.columnar()
    positions = store.window_positions_graph_order(window.t_alpha, window.t_omega)
    root = store.edges_at(positions[:1])[0].source
    return {"graph": graph, "window": window, "root": root}


def _columnar_state_with_edges(spec: _ScaleSpec):
    # A column-built graph makes its edge tuple on first read: read it
    # here, so no timed run pays for it.
    state = _columnar_state(spec)
    state["edges"] = state["graph"].edges
    return state


def _columnar_ea_state(spec: _ScaleSpec):
    name, scale, fraction = spec.columnar_ea_dataset
    base = load_dataset(name, scale=scale)
    window = middle_tenth_window(base, fraction=fraction)
    sub = extract_window(base, window)
    root = select_root(sub, window, min_reach_fraction=0.02)
    sub.columnar()
    layout = legacy_ascending_adjacency(sub)
    return {"graph": sub, "window": window, "root": root, "layout": layout}


def _solver_run(solver, level: int):
    def run(state):
        budget = Budget.unlimited()
        solver(state["prepared"], level, budget=budget)
        return budget.expansions

    return run


def build_scenarios(scale: str, jobs: int = 1) -> List[Scenario]:
    """The scenario list for a named scale (see :data:`SCALES`).

    ``jobs`` gates the pool-backed ``parallel_speedup`` /
    ``sharded_sweep`` variants: the serial baseline and the ``jobs=1``
    engine runs are always included; the ``jobs=2`` / ``jobs=4`` runs
    only when the requested job count reaches them (the default CI
    bench stays pool-free).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    try:
        spec = SCALES[scale]
    except KeyError:
        raise KeyError(
            f"unknown scale {scale!r}; available: {sorted(SCALES)}"
        ) from None

    mstw_name, mstw_scale, mstw_fraction = spec.mstw_dataset
    msta_name, msta_scale, msta_fraction = spec.msta_dataset
    mstw_params = {
        "dataset": mstw_name,
        "scale": mstw_scale,
        "fraction": mstw_fraction,
    }
    msta_params = {
        "dataset": msta_name,
        "scale": msta_scale,
        "fraction": msta_fraction,
    }

    def prepare_run(state):
        prepare_mstw_instance(state["graph"], state["root"], state["window"])
        return None

    def pipeline_run(state):
        budget = Budget.unlimited()
        minimum_spanning_tree_w(
            state["graph"],
            state["root"],
            state["window"],
            level=2,
            algorithm="pruned",
            budget=budget,
        )
        return budget.expansions

    def msta_setup():
        return _msta_state(spec)

    def msta_chrono_run(state):
        from repro.core.msta import msta_chronological

        msta_chronological(state["graph"], state["root"], state["window"])
        return None

    def msta_stack_run(state):
        from repro.core.msta import msta_stack

        msta_stack(state["graph"], state["root"], state["window"])
        return None

    def arrival_run(state):
        earliest_arrival_times(state["graph"], state["root"], state["window"])
        return None

    def window_extract_run(state):
        window = middle_tenth_window(state["base"], fraction=msta_fraction)
        extract_window(state["base"], window)
        return None

    def select_root_run(state):
        select_root(state["graph"], state["window"], min_reach_fraction=0.02)
        return None

    parallel_name, parallel_scale = spec.parallel_dataset
    parallel_params = {
        "dataset": parallel_name,
        "scale": parallel_scale,
        "windows": len(spec.sweep_fractions),
        "cells": len(spec.sweep_fractions) * len(_SWEEP_VARIANTS),
    }

    def parallel_setup():
        base = load_dataset(parallel_name, scale=parallel_scale, weighted=True)
        windows = nested_sweep_windows(base, spec.sweep_fractions)
        # A root valid on the smallest (innermost) window is valid for
        # every containing window of the nest.
        innermost = windows[-1]
        root = select_root(
            extract_window(base, innermost), innermost, min_reach_fraction=0.02
        )
        cells = [
            SweepCell(root=root, window=window, level=level, algorithm=algorithm)
            for window in windows
            for algorithm, level in _SWEEP_VARIANTS
        ]
        return {"graph": base, "cells": cells}

    def parallel_serial_run(state):
        run_sweep_serial(state["graph"], state["cells"])
        return None

    def parallel_batch_run(jobs_n: int):
        def run(state):
            result = run_batch(state["graph"], state["cells"], jobs=jobs_n)
            return {"reuse_hits": result.reuse["hits"]}

        return run

    shard_name, shard_scale, shard_wf, shard_sf = spec.shard_sweep
    shard_params = {
        "dataset": shard_name,
        "scale": shard_scale,
        "window_fraction": shard_wf,
        "step_fraction": shard_sf,
        "variants": len(_SWEEP_VARIANTS),
    }

    def shard_setup():
        base = load_dataset(shard_name, scale=shard_scale, weighted=True)
        t_start, t_end = base.time_span()
        span = t_end - t_start
        windows = list(iter_windows(base, span * shard_wf, span * shard_sf))
        root = select_root(
            extract_window(base, windows[0]), windows[0],
            min_reach_fraction=0.02,
        )
        # Keep only windows where the root reaches something: the
        # sliding grid moves past the root's active period eventually,
        # and a root reaching nothing raises out of the MST_w pipeline.
        usable = [
            w for w in windows if len(reachable_set(base, root, w)) > 1
        ]
        cells = [
            SweepCell(root=root, window=window, level=level, algorithm=algorithm)
            for window in usable
            for algorithm, level in _SWEEP_VARIANTS
        ]
        return {"graph": base, "cells": cells}

    scenarios = [
        Scenario(
            name="closure_prepare",
            group="transformation",
            description=(
                "Full instance preparation (reachability sweep, "
                "transformation, DAG metric closure)."
            ),
            params=dict(mstw_params),
            setup=lambda: _mstw_state(spec),
            run=prepare_run,
        ),
        Scenario(
            name="solve_charikar_i1",
            group="solver",
            description="Algorithm 3 (Charikar A^i) at level 1.",
            params=dict(mstw_params, level=1),
            setup=lambda: _mstw_state(spec),
            run=_solver_run(charikar_dst, 1),
        ),
        Scenario(
            name="solve_improved_i2_legacy",
            group="solver",
            description=(
                "Verbatim pre-optimisation Algorithm 4/5 at level 2 "
                "(repro.perf.legacy) -- the speedup baseline."
            ),
            params=dict(mstw_params, level=2),
            setup=lambda: _mstw_state(spec),
            run=_solver_run(legacy_improved_dst, 2),
        ),
        Scenario(
            name="solve_improved_i2",
            group="solver",
            description=(
                "Optimised Algorithm 4/5 at level 2 (memoised cost "
                "rows, prefix-scan base case, allocation hoisting)."
            ),
            params=dict(mstw_params, level=2),
            setup=lambda: _mstw_state(spec),
            run=_solver_run(improved_dst, 2),
            baseline="solve_improved_i2_legacy",
        ),
        Scenario(
            name="solve_pruned_i2",
            group="solver",
            description="Algorithm 6 (density-pruned) at level 2.",
            params=dict(mstw_params, level=2),
            setup=lambda: _mstw_state(spec),
            run=_solver_run(pruned_dst, 2),
        ),
        Scenario(
            name="pipeline_mstw",
            group="pipeline",
            description=(
                "End-to-end minimum_spanning_tree_w (level 2, pruned), "
                "including preparation."
            ),
            params=dict(mstw_params, level=2),
            setup=lambda: _mstw_state(spec),
            run=pipeline_run,
        ),
        Scenario(
            name="msta_chronological",
            group="msta",
            description="Algorithm 1: chronological single-pass MST_a.",
            params=dict(msta_params),
            setup=msta_setup,
            run=msta_chrono_run,
        ),
        Scenario(
            name="msta_stack",
            group="msta",
            description="Algorithm 2: stack-driven MST_a.",
            params=dict(msta_params),
            setup=msta_setup,
            run=msta_stack_run,
        ),
        Scenario(
            name="earliest_arrival",
            group="paths",
            description=(
                "Single-source earliest-arrival sweep over the cached "
                "ascending adjacency."
            ),
            params=dict(msta_params),
            setup=msta_setup,
            run=arrival_run,
        ),
        Scenario(
            name="window_extract",
            group="paths",
            description="Window computation + subgraph extraction.",
            params=dict(msta_params),
            setup=msta_setup,
            run=window_extract_run,
        ),
        Scenario(
            name="select_root",
            group="paths",
            description=(
                "Reach-fraction root selection (one earliest-arrival "
                "sweep per candidate, via the cached start arrays)."
            ),
            params=dict(msta_params),
            setup=msta_setup,
            run=select_root_run,
        ),
    ]

    columnar_name, columnar_scale, columnar_fraction = spec.columnar_dataset
    columnar_params = {
        "dataset": columnar_name,
        "scale": columnar_scale,
        "fraction": columnar_fraction,
    }
    ea_name, ea_scale, ea_fraction = spec.columnar_ea_dataset
    ea_params = {
        "dataset": ea_name,
        "scale": ea_scale,
        "fraction": ea_fraction,
    }

    def columnar_setup():
        return _columnar_state(spec)

    def columnar_extract_legacy_run(state):
        legacy_extract_window(state["graph"], state["window"])
        return None

    def columnar_extract_run(state):
        extract_window(state["graph"], state["window"])
        return None

    def columnar_transform_legacy_run(state):
        legacy_transform(state["graph"], state["root"], state["window"])
        return None

    def columnar_transform_run(state):
        transform_temporal_graph(state["graph"], state["root"], state["window"])
        return None

    def columnar_ea_legacy_run(state):
        legacy_earliest_arrival(
            state["graph"], state["root"], state["window"], state["layout"]
        )
        return None

    def columnar_ea_run(state):
        earliest_arrival_times(state["graph"], state["root"], state["window"])
        return None

    def store_build_run(state):
        # Constructed directly (not via graph.columnar()) so every
        # repeat pays the full build instead of hitting the per-graph
        # cached store; reading one order builds the lazy sort views.
        store = ColumnarEdgeStore.from_edges(state["edges"], state["graph"].vertices)
        store.positions_by_start()
        return None

    scenarios.extend(
        [
            Scenario(
                name="columnar_window_extract_legacy",
                group="columnar_core",
                description=(
                    "Pre-columnar window extraction: the O(M) "
                    "generator scan over the full edge tuple "
                    "(repro.perf.legacy) -- the speedup baseline."
                ),
                params=dict(columnar_params),
                setup=lambda: _columnar_state_with_edges(spec),
                run=columnar_extract_legacy_run,
            ),
            Scenario(
                name="columnar_window_extract",
                group="columnar_core",
                description=(
                    "Window extraction answered from the columnar "
                    "store: binary search on the start column plus a "
                    "vectorised arrival filter, O(log M + output)."
                ),
                params=dict(columnar_params),
                setup=columnar_setup,
                run=columnar_extract_run,
                baseline="columnar_window_extract_legacy",
            ),
            Scenario(
                name="columnar_transform_legacy",
                group="columnar_core",
                description=(
                    "Pre-columnar Section 4.2 transformation: O(M) "
                    "window scan, per-edge grouping and bisects, one "
                    "add_vertex/add_edge call per transformed element "
                    "(repro.perf.legacy) -- the speedup baseline."
                ),
                params=dict(columnar_params),
                setup=lambda: _columnar_state_with_edges(spec),
                run=columnar_transform_legacy_run,
            ),
            Scenario(
                name="columnar_transform",
                group="columnar_core",
                description=(
                    "Reach-only Section 4.2 transformation as batched "
                    "columnar passes: vectorised window gather, the "
                    "root's earliest-arrival sweep, grouped rank "
                    "computation, lexsort dedup, and bulk assembly of "
                    "the reachable part via StaticDigraph.from_parts "
                    "(rooted instance byte-identical, property-tested)."
                ),
                params=dict(columnar_params),
                setup=columnar_setup,
                run=columnar_transform_run,
                baseline="columnar_transform_legacy",
            ),
            Scenario(
                name="columnar_ea_legacy",
                group="columnar_core",
                description=(
                    "Pre-columnar earliest-arrival: heap-based label-"
                    "setting sweep over the per-vertex ascending "
                    "adjacency (repro.perf.legacy) -- the speedup "
                    "baseline."
                ),
                params=dict(ea_params),
                setup=lambda: _columnar_ea_state(spec),
                run=columnar_ea_legacy_run,
            ),
            Scenario(
                name="columnar_ea",
                group="columnar_core",
                description=(
                    "Earliest-arrival as the store's chunked scatter-"
                    "min relaxation over the arrival-sorted columns "
                    "(same arrivals, canonical float form)."
                ),
                params=dict(ea_params),
                setup=lambda: _columnar_ea_state(spec),
                run=columnar_ea_run,
                baseline="columnar_ea_legacy",
            ),
            Scenario(
                name="columnar_store_build",
                group="columnar_core",
                description=(
                    "One-off columnar store construction (dual sort "
                    "orders, intern tables, permutation mapping) -- "
                    "the amortised cost the query speedups buy against."
                ),
                params=dict(columnar_params),
                setup=lambda: _columnar_state_with_edges(spec),
                run=store_build_run,
            ),
        ]
    )

    dk_name, dk_scale, dk_fraction = spec.dst_kernels_dataset
    dst_kernels_params = {
        "dataset": dk_name,
        "scale": dk_scale,
        "fraction": dk_fraction,
        "level": 2,
    }
    _DST_KERNEL_PAIRS = (
        ("charikar", charikar_dst, scalar_charikar_dst, "Algorithm 3"),
        ("improved", improved_dst, scalar_improved_dst, "Algorithm 4/5"),
        ("pruned", pruned_dst, scalar_pruned_dst, "Algorithm 6"),
    )
    for dk_label, dk_solver, dk_scalar, dk_alg in _DST_KERNEL_PAIRS:
        scenarios.extend(
            [
                Scenario(
                    name=f"dst_kernels_{dk_label}_scalar",
                    group="dst_kernels",
                    description=(
                        f"{dk_alg} at level 2 through the frozen "
                        "pre-kernel scalar walk (repro.perf.legacy "
                        f"scalar_{dk_label}_dst) on an above-floor "
                        "instance -- the speedup baseline."
                    ),
                    params=dict(dst_kernels_params),
                    setup=lambda: _dst_kernels_state(spec),
                    run=_solver_run(dk_scalar, 2),
                ),
                Scenario(
                    name=f"dst_kernels_{dk_label}",
                    group="dst_kernels",
                    description=(
                        f"{dk_alg} at level 2 through the batched "
                        "density kernels (repro.steiner.kernels): "
                        "cost-sorted terminal layout, cumsum prefix "
                        "densities, one argmin per scan -- output "
                        "bit-identical to the scalar baseline "
                        "(property-tested)."
                    ),
                    params=dict(dst_kernels_params),
                    setup=lambda: _dst_kernels_state(spec),
                    run=_solver_run(dk_solver, 2),
                    baseline=f"dst_kernels_{dk_label}_scalar",
                ),
            ]
        )

    if spec.include_level3:
        scenarios.append(
            Scenario(
                name="solve_pruned_i3",
                group="solver",
                description="Algorithm 6 at level 3.",
                params=dict(mstw_params, level=3),
                setup=lambda: _mstw_state(spec),
                run=_solver_run(pruned_dst, 3),
            )
        )

    scenarios.append(
        Scenario(
            name="parallel_sweep_serial",
            group="parallel_speedup",
            description=(
                "Nested-window sweep, naive per-query loop (the pre-"
                "engine path): every cell re-extracts its window from "
                "the full graph and re-derives transformation + closure "
                "from scratch."
            ),
            params=dict(parallel_params),
            setup=parallel_setup,
            run=parallel_serial_run,
        )
    )
    engine_description = (
        "Same sweep through the batch engine ({}): each window's "
        "variants form one task that extracts the window once and "
        "shares one preparation.  On a single-core host the speedup "
        "over the serial baseline comes from that per-window sharing, "
        "not from hardware parallelism."
    )
    scenarios.append(
        Scenario(
            name="parallel_sweep_jobs1",
            group="parallel_speedup",
            description=engine_description.format("jobs=1, inline, no pool"),
            params=dict(parallel_params, jobs=1),
            setup=parallel_setup,
            run=parallel_batch_run(1),
            baseline="parallel_sweep_serial",
        )
    )
    for jobs_n in (2, 4):
        if jobs < jobs_n:
            continue
        scenarios.append(
            Scenario(
                name=f"parallel_sweep_jobs{jobs_n}",
                group="parallel_speedup",
                description=engine_description.format(
                    f"jobs={jobs_n}, process pool, graph shipped once "
                    "per worker"
                ),
                params=dict(parallel_params, jobs=jobs_n),
                setup=parallel_setup,
                run=parallel_batch_run(jobs_n),
                baseline="parallel_sweep_serial",
            )
        )

    scenarios.append(
        Scenario(
            name="sharded_sweep_jobs1",
            group="sharded_sweep",
            description=(
                "Sliding-grid sweep through the batch engine at jobs=1 "
                "(whole graph, inline)."
            ),
            params=dict(shard_params, jobs=1),
            setup=shard_setup,
            run=parallel_batch_run(1),
        )
    )
    if jobs >= 2:
        scenarios.append(
            Scenario(
                name="sharded_sweep_jobs2_wholegraph",
                group="sharded_sweep",
                description=(
                    "Same sweep, batch engine at jobs=2: every worker "
                    "deserializes the whole graph's column export once."
                ),
                params=dict(shard_params, jobs=2),
                setup=shard_setup,
                run=parallel_batch_run(2),
                baseline="sharded_sweep_jobs1",
                tolerance=5.0,
            )
        )

    def sliding_setup(dataset_spec):
        def setup():
            name, dataset_scale, wf, sf = dataset_spec
            graph = load_dataset(name, scale=dataset_scale, weighted=True)
            t_start, t_end = graph.time_span()
            span = t_end - t_start
            window_length = span * wf
            root = select_root(
                graph,
                TimeWindow(t_start, t_start + window_length),
                min_reach_fraction=0.02,
            )
            return {
                "graph": graph,
                "root": root,
                "window_length": window_length,
                "step": span * sf,
            }

        return setup

    def sliding_msta_run(state):
        sliding_msta(
            state["graph"],
            state["root"],
            state["window_length"],
            state["step"],
        )
        return None

    def sliding_mstw_run(state):
        sliding_mstw(
            state["graph"],
            state["root"],
            state["window_length"],
            state["step"],
            level=2,
        )
        return None

    def sliding_params(dataset_spec):
        name, dataset_scale, wf, sf = dataset_spec
        return {
            "dataset": name,
            "scale": dataset_scale,
            "window_fraction": wf,
            "step_fraction": sf,
        }

    scenarios.extend(
        [
            Scenario(
                name="sliding_msta_incremental",
                group="sliding_sweep",
                description=(
                    "MST_a sliding sweep through SlidingEngine: each "
                    "window is Algorithm 1 over the parent graph's "
                    "columns, with no window subgraph and no state "
                    "carried between windows (output-identical to the "
                    "per-window cold tree)."
                ),
                params=sliding_params(spec.sliding_msta_dataset),
                setup=sliding_setup(spec.sliding_msta_dataset),
                run=sliding_msta_run,
            ),
            Scenario(
                name="sliding_mstw_incremental",
                group="sliding_sweep",
                description=(
                    "MST_w sliding sweep (level 2, pruned) through "
                    "SlidingEngine: each window's cold pipeline reads the "
                    "parent graph's columns, with no window subgraph and "
                    "no state carried between windows (output-identical "
                    "to the per-window cold tree)."
                ),
                params=dict(sliding_params(spec.sliding_mstw_dataset), level=2),
                setup=sliding_setup(spec.sliding_mstw_dataset),
                run=sliding_mstw_run,
            ),
        ]
    )

    def fault_retry_run(state):
        plan = FaultPlan.of(FaultSpec("parallel.task", TASK_ERROR, occurrence=1))
        with faults.injected(plan):
            result = run_batch(state["graph"], state["cells"], jobs=1)
        return {"fault_retries": result.faults["retries"]}

    def fault_checkpoint_setup():
        return {"dir": tempfile.mkdtemp(prefix="repro-bench-ckpt-")}

    def fault_checkpoint_run(state):
        plan = FaultPlan.of(
            FaultSpec("checkpoint.write", TORN_WRITE, occurrence=2)
        )
        with faults.injected(plan):
            context = ExperimentContext(checkpoint_dir=state["dir"])
            context.begin("bench_faults", quick=True)
            for i in range(4):
                context.cell(f"cell:{i}", lambda budget, i=i: float(i))
        resumed = ExperimentContext(checkpoint_dir=state["dir"], resume=True)
        resumed.begin("bench_faults", quick=True)
        salvaged = sum(1 for i in range(4) if resumed.has(f"cell:{i}"))
        resumed.complete("bench_faults")
        return {"salvaged_cells": salvaged}

    scenarios.extend(
        [
            Scenario(
                name="fault_retry_inline",
                group="fault_paths",
                description=(
                    "The parallel sweep workload (jobs=1) with one "
                    "injected task error: the retry path's overhead -- "
                    "one deterministic backoff plus one recomputed "
                    "window run "
                    "-- measured against the fault-free run."
                ),
                params=dict(parallel_params, jobs=1, injected_faults=1),
                setup=parallel_setup,
                run=fault_retry_run,
                baseline="parallel_sweep_jobs1",
            ),
            Scenario(
                name="fault_checkpoint_recovery",
                group="fault_paths",
                description=(
                    "Checkpointed cells with one torn intermediate "
                    "write, then a resume that checksum-validates and "
                    "salvages the file: the integrity machinery's "
                    "round-trip cost."
                ),
                params={"cells": 4, "injected_faults": 1},
                setup=fault_checkpoint_setup,
                run=fault_checkpoint_run,
            ),
        ]
    )

    return scenarios


def scenario_names(scale: str, jobs: int = 1) -> List[str]:
    """Names only, in run order (for ``bench --list``)."""
    return [s.name for s in build_scenarios(scale, jobs)]
