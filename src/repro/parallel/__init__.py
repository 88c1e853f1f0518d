"""Process-pool batch-query engine.

Two layers:

* :mod:`repro.parallel.engine` -- :class:`ParallelExecutor`, the pool
  wrapper with per-worker initialization, deterministic chunking, and a
  deterministic result-merge layer (output byte-identical to serial at
  any ``jobs`` value);
* :mod:`repro.parallel.batch` / :mod:`repro.parallel.tasks` -- the two
  fan-out surfaces: ad-hoc ``(root, window)`` sweeps (:func:`run_batch`,
  one dynamically dispatched task per run of cells sharing a window and
  a root, each extracting its window once from the worker's columns)
  and experiment-grid cell prefetch
  (:func:`~repro.parallel.tasks.experiment_tasks`).

See ``docs/performance.md`` ("Parallel execution") for the worker
model, the determinism guarantees, and what the run dispatch measured.
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

__all__ = [
    "BatchResult",
    "ParallelExecutor",
    "SweepCell",
    "chunk_size_for",
    "cpu_count",
    "default_start_method",
    "run_batch",
    "run_sweep_serial",
]
