"""The process-pool execution core of the batch-query engine.

:class:`ParallelExecutor` owns a lazily created
:class:`concurrent.futures.ProcessPoolExecutor` and runs picklable task
functions over item lists with the guarantees the rest of
:mod:`repro.parallel` builds on:

* **one initializer call per worker** -- the per-worker ``initializer``
  receives its ``initargs`` exactly once, when the worker starts; heavy
  state (a deserialized :class:`~repro.temporal.graph.TemporalGraph`)
  is paid per *worker*, never per task;
* **deterministic chunking** -- :func:`chunk_size_for` is a pure
  function of the item count, the job count, and an optional caller
  override, so the grouping of tasks into pool chunks never depends on
  scheduling (only *which worker* gets a chunk does);
* **a deterministic merge layer** -- chunks may finish out of order
  (completed futures are drained as they arrive), but :meth:`map`
  always reassembles results in submission order, so callers observe
  output byte-identical to a serial run at any ``jobs`` value;
* **crash-safe execution** -- tasks that raise a transient error are
  retried on a deterministic, jitter-free backoff schedule
  (:class:`repro.resilience.retry.RetryPolicy`); a dead worker
  (``BrokenProcessPool``) triggers an automatic pool rebuild and, past
  ``max_rebuilds``, an inline fallback that finishes the remaining
  work in the driver; chunks pending past ``task_timeout_seconds`` are
  abandoned, recomputed inline, and recorded as :class:`TimeoutCell`
  entries.  Every recovery action increments :class:`ExecutorStats`.

``jobs=1`` runs everything inline in the current process -- same
initializer, same task functions, no pool -- which is both the serial
reference implementation and the degenerate case the determinism tests
compare against.

Fault injection: each worker's bootstrap installs the driver's active
:class:`repro.faults.FaultPlan` (see :mod:`repro.faults`) and marks the
process as a worker, so a chaos schedule built in the driver crashes,
stalls, and errors workers deterministically.  After a crash-triggered
rebuild the shipped plan drops its ``worker-crash`` entries -- a crash
schedule exercises the rebuild path once, it cannot wedge it.

This module is the only place in the repository allowed to consume
unordered pool results; the ``determinism`` lint rule (REP103) flags
``imap_unordered``/``as_completed`` anywhere else.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro import faults
from repro.resilience.retry import (
    DEFAULT_RETRY_POLICY,
    RetryPolicy,
    TRANSIENT_ERRORS,
)

__all__ = [
    "ExecutorStats",
    "ParallelExecutor",
    "TimeoutCell",
    "chunk_size_for",
    "cpu_count",
    "default_start_method",
]

#: Upper bound on chunks handed out per worker; smaller chunks balance
#: load better, larger chunks keep related tasks on one worker so its
#: per-worker caches (workloads, prepared instances) get reuse.
_CHUNKS_PER_WORKER = 2

#: How often the dispatch loop wakes to check per-task deadlines when
#: ``task_timeout_seconds`` is armed.
_TIMEOUT_POLL_SECONDS = 0.02


def cpu_count() -> int:
    """The usable CPU count (affinity-aware where the OS exposes it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def default_start_method() -> str:
    """The multiprocessing start method the engine will use by default."""
    import multiprocessing

    return multiprocessing.get_start_method()


def chunk_size_for(num_items: int, jobs: int, override: Optional[int] = None) -> int:
    """Deterministic pool chunk size for ``num_items`` over ``jobs`` workers.

    A pure function -- the same inputs always produce the same chunking,
    so the assignment of tasks to chunks (and therefore which tasks
    share a worker's caches) is reproducible.  ``override`` pins an
    exact size (the batch engine pins 1: one run per chunk, so idle
    workers take the next run).
    """
    if override is not None:
        if override < 1:
            raise ValueError(f"chunk size must be >= 1, got {override}")
        return override
    if num_items <= 0:
        return 1
    chunks = max(1, jobs * _CHUNKS_PER_WORKER)
    return max(1, -(-num_items // chunks))


@dataclass(frozen=True)
class TimeoutCell:
    """A task abandoned at its deadline and recomputed inline.

    Recorded in :attr:`ExecutorStats.timeout_cells` so reports can name
    exactly which submissions blew their per-task deadline; the value
    itself is recovered (inline), never lost.
    """

    index: int
    elapsed_seconds: float
    timeout_seconds: float


@dataclass
class ExecutorStats:
    """Recovery-action counters for one :class:`ParallelExecutor`.

    All zeros on a fault-free run.  These never enter result tables --
    the output-identity discipline requires tables to be byte-identical
    with and without faults -- they are surfaced separately (stderr
    summaries, ``BatchResult.faults``, checkpoint stats).
    """

    retries: int = 0
    rebuilds: int = 0
    inline_fallbacks: int = 0
    timeouts: int = 0
    timeout_cells: List[TimeoutCell] = field(default_factory=list)

    def as_dict(self) -> Dict[str, int]:
        """Counter snapshot (no cell detail) for stats merging."""
        return {
            "retries": self.retries,
            "rebuilds": self.rebuilds,
            "inline_fallbacks": self.inline_fallbacks,
            "timeouts": self.timeouts,
        }

    def merge(self, other: "ExecutorStats") -> None:
        """Fold ``other`` into this instance (batch-of-batches rollup)."""
        self.retries += other.retries
        self.rebuilds += other.rebuilds
        self.inline_fallbacks += other.inline_fallbacks
        self.timeouts += other.timeouts
        self.timeout_cells.extend(other.timeout_cells)


def _worker_bootstrap(
    plan: Optional[Any],
    initializer: Optional[Callable[..., None]],
    initargs: Tuple[Any, ...],
) -> None:
    """Per-worker startup (top-level for picklability): mark the process
    as a pool worker, install the shipped fault plan, then run the
    caller's initializer exactly once."""
    faults.enter_worker(plan)
    if initializer is not None:
        initializer(*initargs)


def _run_chunk(
    payloads: Sequence[Tuple[Callable[[Any], Any], int, Any]]
) -> List[Tuple[int, Any]]:
    """Top-level chunk trampoline (must be picklable): run each task
    behind the ``parallel.task`` injection site and tag results with
    their submission index so the merge layer can restore order."""
    results: List[Tuple[int, Any]] = []
    for fn, index, item in payloads:
        faults.fire("parallel.task")
        results.append((index, fn(item)))
    return results


class _ChunkState:
    """Book-keeping for one in-flight chunk."""

    __slots__ = ("payloads", "attempts", "submitted_at")

    def __init__(self, payloads: List[Tuple[Callable[[Any], Any], int, Any]]):
        self.payloads = payloads
        self.attempts = 0
        self.submitted_at = 0.0


class ParallelExecutor:
    """A reusable process pool with a deterministic result-merge layer.

    Parameters
    ----------
    jobs:
        Worker process count.  ``1`` executes inline (no pool, no
        pickling) -- the serial reference path.
    initializer / initargs:
        Run once in each worker as it starts (and once, lazily, in the
        current process when ``jobs == 1``).  ``initargs`` are pickled
        once per worker, which is how the batch engine ships a
        serialized graph to every worker without per-task pickling.
    start_method:
        ``"fork"`` / ``"spawn"`` / ``"forkserver"``; ``None`` uses the
        platform default (recorded by the perf harness in its output).
    chunk_size:
        Optional fixed pool chunk size; ``None`` derives one via
        :func:`chunk_size_for`.
    retry_policy:
        Deterministic backoff schedule for transient task failures
        (default :data:`~repro.resilience.retry.DEFAULT_RETRY_POLICY`).
    task_timeout_seconds:
        Per-chunk deadline; ``None`` (default) disables deadline
        enforcement.  Timed-out chunks are recomputed inline and
        recorded as :class:`TimeoutCell` entries in :attr:`stats`.
    max_rebuilds:
        Pool rebuilds tolerated after worker crashes before the
        executor falls back to finishing the remaining work inline.

    The pool is created lazily on first use and reused across calls
    (warm workers keep their per-process caches); call :meth:`close` or
    use the executor as a context manager to reap it.
    """

    def __init__(
        self,
        jobs: int,
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple[Any, ...] = (),
        start_method: Optional[str] = None,
        chunk_size: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
        task_timeout_seconds: Optional[float] = None,
        max_rebuilds: int = 2,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if task_timeout_seconds is not None and task_timeout_seconds <= 0:
            raise ValueError(
                f"task_timeout_seconds must be > 0, got {task_timeout_seconds}"
            )
        if max_rebuilds < 0:
            raise ValueError(f"max_rebuilds must be >= 0, got {max_rebuilds}")
        self.jobs = jobs
        self.chunk_size = chunk_size
        self.retry_policy = retry_policy or DEFAULT_RETRY_POLICY
        self.task_timeout_seconds = task_timeout_seconds
        self.max_rebuilds = max_rebuilds
        self.stats = ExecutorStats()
        self._initializer = initializer
        self._initargs = initargs
        self._start_method = start_method
        self._pool: Optional[Any] = None
        self._inline_initialized = False
        # The fault plan shipped to workers; captured from the driver's
        # active plan at pool creation, stripped of crash entries after
        # a rebuild so a crash schedule cannot wedge the rebuild loop.
        self._shipped_plan = faults.active_plan()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def start_method(self) -> str:
        """The effective start method (resolved even before first use)."""
        return self._start_method or default_start_method()

    def _ensure_pool(self) -> Any:
        if self._pool is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            context = multiprocessing.get_context(self._start_method)
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=context,
                initializer=_worker_bootstrap,
                initargs=(self._shipped_plan, self._initializer, self._initargs),
            )
        return self._pool

    def _rebuild_pool(self) -> Any:
        """Replace a broken pool, stripping crash faults from the plan."""
        self._discard_pool()
        if self._shipped_plan is not None:
            self._shipped_plan = self._shipped_plan.drop_kind(faults.WORKER_CRASH)
        self.stats.rebuilds += 1
        return self._ensure_pool()

    def _discard_pool(self) -> None:
        if self._pool is not None:
            # A broken pool's workers are already gone; don't wait on
            # them.  cancel_futures also drops queued work we are about
            # to resubmit ourselves.
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def _ensure_inline(self) -> None:
        if not self._inline_initialized:
            if self._initializer is not None:
                self._initializer(*self._initargs)
            self._inline_initialized = True

    def close(self) -> None:
        """Shut the pool down (if one was started).  Idempotent."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """Run ``fn`` over ``items``; results in submission order.

        The deterministic merge layer: whatever order workers complete
        in, the returned list is ordered like ``items``, so output is
        identical to ``[fn(x) for x in items]`` for deterministic
        ``fn`` -- including under injected faults, whose recovery paths
        (retry, rebuild, inline recompute) all re-run the same pure
        task function.
        """
        merged: List[Any] = [None] * len(items)
        for index, value in self.unordered(fn, items):
            merged[index] = value
        return merged

    def unordered(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> Iterator[Tuple[int, Any]]:
        """Yield ``(submission_index, result)`` pairs in completion order.

        Completion order is scheduling-dependent and therefore *not*
        deterministic for ``jobs > 1``; callers must either merge by
        index (what :meth:`map` does) or be order-insensitive (the
        checkpoint layer, which stores cells in a keyed dict).  Inline
        mode (``jobs == 1``) completes in submission order by
        construction.
        """
        if self.jobs == 1:
            self._ensure_inline()
            for index, item in enumerate(items):
                yield index, self._call_with_retry(fn, item)
            return
        yield from self._dispatch(fn, items)

    # ------------------------------------------------------------------
    # Inline recovery path
    # ------------------------------------------------------------------
    def _call_with_retry(self, fn: Callable[[Any], Any], item: Any) -> Any:
        """One task behind the injection site, retried on transient errors."""
        policy = self.retry_policy
        for attempt in range(policy.attempts):
            try:
                faults.fire("parallel.task")
                return fn(item)
            except TRANSIENT_ERRORS:
                if attempt == policy.attempts - 1:
                    raise
                self.stats.retries += 1
                policy.sleep_before_retry(attempt)
        raise AssertionError("unreachable")  # pragma: no cover

    def _inline_chunk(
        self, payloads: Sequence[Tuple[Callable[[Any], Any], int, Any]]
    ) -> List[Tuple[int, Any]]:
        """Recompute a chunk in the driver (timeout / rebuild fallback)."""
        self._ensure_inline()
        return [
            (index, self._call_with_retry(fn, item)) for fn, index, item in payloads
        ]

    # ------------------------------------------------------------------
    # Pool dispatch loop
    # ------------------------------------------------------------------
    def _dispatch(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> Iterator[Tuple[int, Any]]:
        import concurrent.futures as cf
        from concurrent.futures.process import BrokenProcessPool

        payloads = [(fn, index, item) for index, item in enumerate(items)]
        if not payloads:
            return
        chunk = chunk_size_for(len(payloads), self.jobs, self.chunk_size)
        states = [
            _ChunkState(payloads[start : start + chunk])
            for start in range(0, len(payloads), chunk)
        ]

        pool = self._ensure_pool()
        in_flight: Dict[Any, _ChunkState] = {}

        def submit(state: _ChunkState) -> None:
            state.submitted_at = time.monotonic()
            try:
                future = pool.submit(_run_chunk, state.payloads)
            except BrokenProcessPool as exc:
                # A worker died while chunks were still being submitted
                # (a fast crash can beat the submit loop): record the
                # chunk as failed so the loop below rebuilds and resubmits.
                future = cf.Future()
                future.set_exception(exc)
            in_flight[future] = state

        for state in states:
            submit(state)

        inline_only = False
        while in_flight:
            poll = (
                _TIMEOUT_POLL_SECONDS
                if self.task_timeout_seconds is not None
                else None
            )
            done, _ = cf.wait(
                set(in_flight), timeout=poll, return_when=cf.FIRST_COMPLETED
            )

            # Deadline sweep: abandon chunks pending past the per-task
            # timeout, recompute them inline, and record TimeoutCells.
            # A late result from the abandoned future is ignored -- its
            # state is no longer tracked.
            if self.task_timeout_seconds is not None:
                now = time.monotonic()
                for future, state in list(in_flight.items()):
                    if future in done:
                        continue
                    if not future.running():
                        # Still queued behind other chunks: the deadline
                        # clocks execution, not queue time.
                        state.submitted_at = now
                        continue
                    elapsed = now - state.submitted_at
                    if elapsed <= self.task_timeout_seconds:
                        continue
                    future.cancel()
                    del in_flight[future]
                    for _fn, index, _item in state.payloads:
                        self.stats.timeouts += 1
                        self.stats.timeout_cells.append(
                            TimeoutCell(
                                index=index,
                                elapsed_seconds=elapsed,
                                timeout_seconds=self.task_timeout_seconds,
                            )
                        )
                    yield from self._inline_chunk(state.payloads)

            broken: List[_ChunkState] = []
            for future in done:
                state = in_flight.pop(future, None)
                if state is None:  # already abandoned by the sweep
                    continue
                try:
                    results = future.result()
                except BrokenProcessPool:
                    broken.append(state)
                except cf.CancelledError:
                    broken.append(state)
                except TRANSIENT_ERRORS:
                    state.attempts += 1
                    if state.attempts < self.retry_policy.attempts:
                        self.stats.retries += 1
                        self.retry_policy.sleep_before_retry(state.attempts - 1)
                        if not inline_only:
                            submit(state)
                        else:
                            broken.append(state)
                    else:
                        # Out of pool-side retries: the inline path has
                        # its own (fresh) retry budget and never loses
                        # the cell.
                        self.stats.inline_fallbacks += 1
                        yield from self._inline_chunk(state.payloads)
                else:
                    yield from results

            if broken:
                # A dead worker poisons every queued future; reclaim
                # all surviving states and resubmit on a fresh pool (or
                # inline, once the rebuild budget is spent).
                pending = broken + list(in_flight.values())
                in_flight.clear()
                if not inline_only and self.stats.rebuilds < self.max_rebuilds:
                    pool = self._rebuild_pool()
                    for state in pending:
                        submit(state)
                else:
                    inline_only = True
                    self._discard_pool()
                    for state in pending:
                        self.stats.inline_fallbacks += 1
                        yield from self._inline_chunk(state.payloads)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "live" if self._pool is not None else "idle"
        return f"ParallelExecutor(jobs={self.jobs}, {state})"
