"""Process-pool batch-query engine with cross-window work sharing.

Three layers:

* :mod:`repro.parallel.engine` -- :class:`ParallelExecutor`, the pool
  wrapper with per-worker initialization, deterministic chunking, and a
  deterministic result-merge layer (output byte-identical to serial at
  any ``jobs`` value);
* :mod:`repro.parallel.reuse` -- :class:`WindowReuseIndex`, deriving a
  contained window's extraction artifacts from a cached containing
  window instead of rescanning the full graph;
* :mod:`repro.parallel.batch` / :mod:`repro.parallel.tasks` -- the two
  fan-out surfaces: ad-hoc ``(root, window)`` sweeps (:func:`run_batch`)
  and experiment-grid cell prefetch
  (:func:`~repro.parallel.tasks.experiment_tasks`).

See ``docs/performance.md`` ("Parallel execution") for the worker
model, the determinism guarantees, and when containment reuse fires.
"""

from repro.parallel.batch import (
    BatchResult,
    SweepCell,
    run_batch,
    run_sweep_serial,
)
from repro.parallel.engine import (
    ParallelExecutor,
    chunk_size_for,
    cpu_count,
    default_start_method,
)
from repro.parallel.reuse import ReuseStats, WindowReuseIndex

__all__ = [
    "BatchResult",
    "ParallelExecutor",
    "ReuseStats",
    "SweepCell",
    "WindowReuseIndex",
    "chunk_size_for",
    "cpu_count",
    "default_start_method",
    "run_batch",
    "run_sweep_serial",
]
