"""Per-layer spans for the traced run, installed from outside the library.

:func:`install` wraps one public function per pipeline layer (the
*patch sites* in :data:`SITES`).  A wrapper passes its arguments and
result through unchanged; around the call it records a span (layer,
start, duration) on a :class:`Recorder`.  The original function object
is rebound by identity wherever the library holds it: in the globals of
every loaded ``repro.*`` module and in the module-level solver
registries.  Methods are replaced on their class.

Self time of a span is its duration minus the spans nested inside it,
so the per-layer self times of one process add up to the time its
top-level spans cover.  ``calls`` and ``total`` count a span only when
its parent belongs to another layer (``extract_window`` calling
``TemporalGraph.restricted`` is one extraction, not two).

Pool workers inherit the wrappers through the ``fork`` start method.
The first span a forked process opens resets its copy of the recorder;
whenever its span stack empties it appends the aggregate of that
top-level span to ``<spool_dir>/<pid>.jsonl``, because pool workers end
with ``os._exit`` and never run exit handlers.

A site that cannot be found (renamed or removed) is listed in
``Recorder.missing`` and reported as ``trace.missing_sites``; it never
fails the run.
"""

from __future__ import annotations

import functools
import glob
import importlib
import json
import os
import resource
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

#: Module-level dicts whose values (or tuple values) hold solver
#: functions; they are rebound along with module globals.
REGISTRIES = ("_SOLVERS", "SOLVERS", "_SOLVER_FNS")

#: Layers recorded in the pass process before the first operation too:
#: they are what ``setup_s`` is made of.
SETUP_LAYERS = frozenset({"datasets.load", "temporal.store_build"})

Counters = Dict[str, float]


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _solver_layer(name: str) -> Callable[[tuple, dict], str]:
    def layer(args: tuple, kwargs: dict) -> str:
        level = args[1] if len(args) > 1 else kwargs.get("level")
        return f"solve.{name}-{level}"

    return layer


# ----------------------------------------------------------------------
# Probes: cheap reads taken before / after a call, outside its span
# ----------------------------------------------------------------------
def _transform_before(args: tuple, kwargs: dict) -> Dict[str, int]:
    from repro.core.transformation import transformation_cache_info

    return transformation_cache_info()


def _transform_after(args, kwargs, result, before) -> Counters:
    from repro.core.transformation import transformation_cache_info

    after = transformation_cache_info()
    delta = {key: after[key] - before.get(key, 0) for key in after}
    return {
        "transform.vertices": result.num_vertices,
        "transform.cache_hits": sum(delta.values()) - delta["misses"],
        "transform.cache_lookups": sum(delta.values()),
    }


def _prepare_before(args: tuple, kwargs: dict) -> Dict[str, int]:
    from repro.core.mstw import prepare_cache_info

    return prepare_cache_info()


def _prepare_after(args, kwargs, result, before) -> Counters:
    from repro.core.mstw import prepare_cache_info

    after = prepare_cache_info()
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return {"prepare.hits": hits, "prepare.lookups": hits + misses}


def _array_bytes(obj: Any) -> int:
    """Bytes of every numpy array held directly by ``obj``."""
    names = set(getattr(obj, "__dict__", {}))
    for cls in type(obj).__mro__:
        slots = getattr(cls, "__slots__", ())
        names.update([slots] if isinstance(slots, str) else slots)
    total = 0
    for name in names:
        value = getattr(obj, name, None)
        if hasattr(value, "nbytes") and hasattr(value, "shape"):
            total += int(value.nbytes)
    return total


def _closure_before(args: tuple, kwargs: dict) -> float:
    return _maxrss_mb()


def _closure_after(args, kwargs, result, before) -> Counters:
    n = result.closure.num_vertices
    return {
        "closure.cells": n * n,
        "closure.bytes": _array_bytes(result.closure),
        "closure.rss_growth_mb": _maxrss_mb() - before,
    }


def _fallback_after(args, kwargs, result, before) -> Counters:
    return {
        f"fallback.rung.{result.rung}": 1,
        "fallback.degraded": int(result.degraded),
    }


def _task_after(args, kwargs, result, before) -> Counters:
    return {"peak:parallel.worker_peak_rss_mb": _maxrss_mb()}


def _init_after(args, kwargs, result, before) -> Counters:
    return {"parallel.payload_bytes": len(args[0])}


def _cell_after(args, kwargs, result, before) -> Counters:
    directory = args[0].checkpoint_dir
    files = glob.glob(os.path.join(directory, "*.json")) if directory else []
    return {"experiments.checkpoint_bytes": sum(os.path.getsize(f) for f in files)}


@dataclass(frozen=True)
class Site:
    """One wrapped function: ``module`` + ``name`` (``Class.method`` for methods)."""

    module: str
    name: str
    layer: Union[str, Callable[[tuple, dict], str]]
    before: Optional[Callable[[tuple, dict], Any]] = None
    after: Optional[Callable[[tuple, dict, Any, Any], Counters]] = None

    @property
    def key(self) -> str:
        return f"{self.module}.{self.name}"


SITES: Tuple[Site, ...] = (
    # temporal / datasets
    Site("repro.datasets.registry", "load_dataset", "datasets.load"),
    Site(
        "repro.temporal.columnar", "ColumnarEdgeStore.__init__", "temporal.store_build"
    ),
    Site("repro.temporal.window", "extract_window", "temporal.extract"),
    Site("repro.temporal.graph", "TemporalGraph.restricted", "temporal.extract"),
    Site("repro.temporal.index", "TemporalEdgeIndex.subgraph", "temporal.extract"),
    Site("repro.parallel.reuse", "WindowReuseIndex.extract", "temporal.extract"),
    Site("repro.temporal.paths", "earliest_arrival_times", "temporal.reach"),
    Site("repro.temporal.paths", "reachable_set", "temporal.reach"),
    # core.msta
    Site("repro.core.msta", "minimum_spanning_tree_a", "msta"),
    Site("repro.core.msta", "msta_chronological", "msta"),
    Site("repro.core.msta", "msta_stack", "msta"),
    # core.mstw pipeline and its stages
    Site("repro.core.mstw", "minimum_spanning_tree_w", "mstw"),
    Site(
        "repro.core.mstw",
        "prepare_mstw_instance",
        "prepare",
        _prepare_before,
        _prepare_after,
    ),
    Site(
        "repro.core.transformation",
        "transform_temporal_graph",
        "transform",
        _transform_before,
        _transform_after,
    ),
    Site("repro.core.transformation", "TransformedGraph.dst_instance", "transform"),
    Site(
        "repro.steiner.instance",
        "prepare_instance",
        "closure",
        _closure_before,
        _closure_after,
    ),
    Site("repro.core.postprocess", "closure_tree_to_temporal", "postprocess"),
    # steiner
    Site("repro.steiner.charikar", "charikar_dst", _solver_layer("charikar")),
    Site("repro.steiner.improved", "improved_dst", _solver_layer("improved")),
    Site("repro.steiner.pruned", "pruned_dst", _solver_layer("pruned")),
    Site("repro.steiner.exact", "exact_dst_cost", "exact"),
    Site("repro.steiner.exact", "exact_dst", "exact"),
    Site(
        "repro.resilience.fallback",
        "run_with_fallback",
        "fallback",
        None,
        _fallback_after,
    ),
    # incremental
    Site("repro.incremental.engine", "SlidingEngine.measure_mstw", "sliding"),
    Site("repro.incremental.msta", "IncrementalMSTa.advance", "repair"),
    Site("repro.incremental.prepare", "patch_prepared_instance", "patch"),
    # parallel
    Site("repro.parallel.batch", "run_batch", "parallel"),
    Site("repro.parallel.engine", "ParallelExecutor.map", "parallel.map"),
    Site("repro.parallel.batch", "run_sweep_cell", "parallel.task", None, _task_after),
    Site("repro.parallel.batch", "_init_worker", "parallel.init", None, _init_after),
    # experiments
    Site("repro.experiments.registry", "run_experiment", "experiments.table"),
    Site(
        "repro.experiments.checkpoint",
        "ExperimentContext.cell",
        "experiments.cell",
        None,
        _cell_after,
    ),
)


class Recorder:
    """Span stack and per-layer aggregates of one process."""

    def __init__(self, spool_dir: str) -> None:
        self.spool_dir = spool_dir
        #: True while the benchmark times an operation; only spans closed
        #: then (or in a worker, or of a set-up layer) are recorded, and
        #: top-level ones count towards coverage.
        self.in_op = False
        self.missing: List[str] = []
        self._begin_process(worker=False)

    def _begin_process(self, worker: bool) -> None:
        self.pid = os.getpid()
        self.worker = worker
        self.stack: List[List[Any]] = []
        self.covered_s = 0.0
        self._clear()

    def _clear(self) -> None:
        #: layer -> [self seconds, total seconds, calls]
        self.layers: Dict[str, List[float]] = {}
        self.counters: Counters = {}

    def push(self, layer: str) -> List[Any]:
        if os.getpid() != self.pid:
            self._begin_process(worker=True)
        frame = [layer, time.perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def pop(self, frame: List[Any], end: float, counters: Counters) -> None:
        """Close ``frame`` at ``end``; ``counters`` are probe readings
        taken after ``end`` (a worker flushes them with the span).

        Outside a timed operation only :data:`SETUP_LAYERS` are kept: the
        benchmark's own set-up (root selection, grid building) calls the
        same library functions, and must not show in their layers.  A
        dropped span's time stays in its parent's self time."""
        duration = end - frame[1]
        self.stack.pop()
        layer = frame[0]
        if not (self.worker or self.in_op or layer in SETUP_LAYERS):
            return
        self.add(counters)
        entry = self.layers.setdefault(layer, [0.0, 0.0, 0])
        entry[0] += duration - frame[2]
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        if parent is None or parent[0] != layer:
            entry[1] += duration
            entry[2] += 1
        if parent is None:
            if self.worker:
                self.add({"parallel.worker_busy_s": duration})
                self._flush()
            elif self.in_op:
                self.covered_s += duration

    def add(self, counters: Counters) -> None:
        _accumulate(self.counters, counters)

    def _flush(self) -> None:
        line = json.dumps({"layers": self.layers, "counters": self.counters})
        with open(os.path.join(self.spool_dir, f"{self.pid}.jsonl"), "a") as handle:
            handle.write(line + "\n")
        self._clear()

    def snapshot(self) -> Dict[str, Any]:
        """This process's aggregates merged with every worker's spool."""
        layers = {name: list(values) for name, values in self.layers.items()}
        counters = dict(self.counters)
        for path in sorted(glob.glob(os.path.join(self.spool_dir, "*.jsonl"))):
            with open(path) as handle:
                for line in handle:
                    record = json.loads(line)
                    for layer, values in record["layers"].items():
                        entry = layers.setdefault(layer, [0.0, 0.0, 0])
                        for i, value in enumerate(values):
                            entry[i] += value
                    _accumulate(counters, record["counters"])
        return {
            "layers": layers,
            "counters": counters,
            "covered_s": self.covered_s,
            "missing_sites": list(self.missing),
        }


def _accumulate(target: Counters, counters: Counters) -> None:
    """Sum counters into ``target``; ``peak:`` counters keep the maximum."""
    for name, value in counters.items():
        if name.startswith("peak:"):
            target[name] = max(target.get(name, 0.0), value)
        else:
            target[name] = target.get(name, 0.0) + value


def _wrap(original: Callable, site: Site, recorder: Recorder) -> Callable:
    layer_of = site.layer
    before_of, after_of = site.before, site.after

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        layer = layer_of if isinstance(layer_of, str) else layer_of(args, kwargs)
        before = before_of(args, kwargs) if before_of is not None else None
        frame = recorder.push(layer)
        try:
            result = original(*args, **kwargs)
        except BaseException:
            recorder.pop(frame, time.perf_counter(), {})
            raise
        end = time.perf_counter()
        counters = after_of(args, kwargs, result, before) if after_of else {}
        recorder.pop(frame, end, counters)
        return result

    return wrapper


def install(spool_dir: str) -> Recorder:
    """Wrap every site in :data:`SITES`; returns the recording handle."""
    recorder = Recorder(spool_dir)
    replaced: Dict[int, Tuple[Callable, Callable]] = {}
    for site in SITES:
        try:
            owner: Any = importlib.import_module(site.module)
        except ImportError:
            recorder.missing.append(site.key)
            continue
        *path, attr = site.name.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = vars(owner).get(attr) if owner is not None else None
        if not callable(original):
            recorder.missing.append(site.key)
            continue
        wrapper = _wrap(original, site, recorder)
        setattr(owner, attr, wrapper)
        if not path:
            replaced[id(original)] = (original, wrapper)
    _rebind(replaced)
    return recorder


def _rebind(replaced: Dict[int, Tuple[Callable, Callable]]) -> None:
    def swap(value: Any) -> Any:
        hit = replaced.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else value

    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if swap(value) is not value:
                namespace[key] = swap(value)
            elif key in REGISTRIES and isinstance(value, dict):
                for entry, item in list(value.items()):
                    if isinstance(item, tuple):
                        value[entry] = tuple(swap(part) for part in item)
                    else:
                        value[entry] = swap(item)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
SOLVER_KEYS = tuple(
    f"{algorithm}-{level}"
    for algorithm in ("charikar", "improved", "pruned")
    for level in (1, 2, 3)
)
FALLBACK_RUNGS = ("pruned-1", "pruned-2", "pruned-3", "shortest-paths")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    snapshot: Dict[str, Any], op_wall_s: float, stats: Counters
) -> Dict[str, Tuple[float, str]]:
    """``name -> (value, unit)`` for every per-layer metric of one pass.

    ``trace.overhead`` needs the untraced wall time, so ``run.py`` fills
    it in; it is 0 here.
    """
    layers, counters = snapshot["layers"], snapshot["counters"]

    def self_s(*names: str) -> float:
        return sum(layers.get(name, (0.0, 0.0, 0))[0] for name in names)

    def total_s(name: str) -> float:
        return layers.get(name, (0.0, 0.0, 0))[1]

    def calls(name: str) -> float:
        return layers.get(name, (0.0, 0.0, 0))[2]

    def count(name: str) -> float:
        return counters.get(name, 0.0)

    metrics: Dict[str, Tuple[float, str]] = {}
    for key in SOLVER_KEYS:
        metrics[f"solve.{key}.s"] = (self_s(f"solve.{key}"), "s")
        metrics[f"solve.{key}.calls"] = (calls(f"solve.{key}"), "count")
    windows = stats.get("windows", 0.0)
    map_s = total_s("parallel.map")
    busy_s = count("parallel.worker_busy_s")
    metrics.update(
        {
            "exact.s": (self_s("exact"), "s"),
            "exact.calls": (calls("exact"), "count"),
            "fallback.s": (self_s("fallback"), "s"),
            "fallback.calls": (calls("fallback"), "count"),
            "fallback.degraded": (count("fallback.degraded"), "count"),
            "closure.s": (self_s("closure"), "s"),
            "closure.calls": (calls("closure"), "count"),
            "closure.cells": (count("closure.cells"), "count"),
            "closure.bytes": (count("closure.bytes"), "B"),
            "closure.rss_growth_mb": (count("closure.rss_growth_mb"), "MB"),
            "patch.s": (self_s("patch"), "s"),
            "patch.calls": (calls("patch"), "count"),
            "repair.s": (self_s("repair"), "s"),
            "repair.calls": (calls("repair"), "count"),
            "sliding.s": (self_s("sliding"), "s"),
            "sliding.patch_ratio": (
                _ratio(stats.get("patched_prepares", 0), windows),
                "ratio",
            ),
            "sliding.warm_ratio": (
                _ratio(stats.get("warm_solves", 0), windows),
                "ratio",
            ),
            "sliding.msta_repair_ratio": (
                _ratio(stats.get("incremental_slides", 0), windows),
                "ratio",
            ),
            "transform.s": (self_s("transform"), "s"),
            "transform.calls": (calls("transform"), "count"),
            "transform.vertices": (count("transform.vertices"), "count"),
            "transform.cache_hit_ratio": (
                _ratio(count("transform.cache_hits"), count("transform.cache_lookups")),
                "ratio",
            ),
            "temporal.extract_s": (self_s("temporal.extract"), "s"),
            "temporal.extract_calls": (calls("temporal.extract"), "count"),
            "temporal.reach_s": (self_s("temporal.reach"), "s"),
            "temporal.reach_calls": (calls("temporal.reach"), "count"),
            "temporal.store_build_s": (self_s("temporal.store_build"), "s"),
            "datasets.load_s": (self_s("datasets.load"), "s"),
            "msta.s": (self_s("msta"), "s"),
            "msta.calls": (calls("msta"), "count"),
            "mstw.s": (self_s("mstw"), "s"),
            "mstw.calls": (calls("mstw"), "count"),
            "prepare.s": (self_s("prepare"), "s"),
            "prepare.calls": (calls("prepare"), "count"),
            "prepare.memo_hit_ratio": (
                _ratio(count("prepare.hits"), count("prepare.lookups")),
                "ratio",
            ),
            "postprocess.s": (self_s("postprocess"), "s"),
            "parallel.s": (self_s("parallel", "parallel.task", "parallel.init"), "s"),
            "parallel.map_s": (map_s, "s"),
            "parallel.worker_busy_s": (busy_s, "s"),
            "parallel.utilization": (
                _ratio(busy_s, stats.get("jobs", 1.0) * map_s),
                "ratio",
            ),
            "parallel.reuse_hit_ratio": (
                _ratio(stats.get("reuse_hits", 0), stats.get("reuse_lookups", 0)),
                "ratio",
            ),
            "parallel.payload_bytes": (count("parallel.payload_bytes"), "B"),
            "parallel.retries": (stats.get("retries", 0.0), "count"),
            "parallel.worker_peak_rss_mb": (
                count("peak:parallel.worker_peak_rss_mb"),
                "MB",
            ),
            "experiments.table_s": (self_s("experiments.table"), "s"),
            "experiments.cell_s": (self_s("experiments.cell"), "s"),
            "experiments.cells": (calls("experiments.cell"), "count"),
            "experiments.checkpoint_bytes": (
                count("experiments.checkpoint_bytes"),
                "B",
            ),
            "trace.coverage": (_ratio(snapshot["covered_s"], op_wall_s), "ratio"),
            "trace.overhead": (0.0, "ratio"),
            "trace.missing_sites": (float(len(snapshot["missing_sites"])), "count"),
            "other.s": (max(0.0, op_wall_s - snapshot["covered_s"]), "s"),
        }
    )
    for rung in FALLBACK_RUNGS:
        metrics[f"fallback.rung.{rung}"] = (count(f"fallback.rung.{rung}"), "count")
    return metrics
