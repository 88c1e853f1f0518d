"""The process-pool execution core: chunking, merge layer, lifecycle.

The engine's contract is that ``ParallelExecutor.map`` output is
byte-identical to a serial loop at any ``jobs`` value, the per-worker
initializer runs exactly once per worker, and chunking is a pure
function of its inputs.
"""

import os

import pytest

from repro.parallel.engine import (
    ParallelExecutor,
    chunk_size_for,
    cpu_count,
    default_start_method,
)

# ----------------------------------------------------------------------
# Top-level task/initializer functions (must be picklable for jobs > 1).
# ----------------------------------------------------------------------
_INIT_CALLS = 0
_INIT_TOKEN = None


def _record_init(token):
    global _INIT_CALLS, _INIT_TOKEN
    _INIT_CALLS += 1
    _INIT_TOKEN = token


def _observe_init(_item):
    return (_INIT_CALLS, _INIT_TOKEN, os.getpid())


def _square(x):
    return x * x


class TestChunkSizeFor:
    def test_pure_and_deterministic(self):
        for num_items in range(0, 40):
            for jobs in (1, 2, 4, 8):
                first = chunk_size_for(num_items, jobs)
                assert first == chunk_size_for(num_items, jobs)
                assert first >= 1

    def test_covers_all_items(self):
        """chunks-per-worker bound: ceil division never strands items."""
        for num_items in (1, 7, 16, 100):
            for jobs in (1, 2, 4):
                chunk = chunk_size_for(num_items, jobs)
                chunks = -(-num_items // chunk)
                assert chunks * chunk >= num_items
                assert chunks <= max(1, jobs * 2) + 1

    def test_override_pins_exact_size(self):
        assert chunk_size_for(100, 4, override=7) == 7

    def test_bad_override_rejected(self):
        with pytest.raises(ValueError):
            chunk_size_for(10, 2, override=0)

    def test_empty_input(self):
        assert chunk_size_for(0, 4) == 1


class TestLifecycle:
    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError):
            ParallelExecutor(0)

    def test_close_is_idempotent(self):
        executor = ParallelExecutor(2)
        assert executor.map(_square, [1, 2, 3]) == [1, 4, 9]
        executor.close()
        executor.close()

    def test_context_manager_reaps_pool(self):
        with ParallelExecutor(2) as executor:
            executor.map(_square, [1, 2])
        assert executor._pool is None

    def test_pool_broken_during_submit_is_rebuilt(self, monkeypatch):
        """A worker that dies before every chunk is submitted breaks
        ``submit`` itself; the executor rebuilds instead of raising."""
        from concurrent.futures.process import BrokenProcessPool

        class BrokenPool:
            def submit(self, *args, **kwargs):
                raise BrokenProcessPool("a child process terminated abruptly")

            def shutdown(self, *args, **kwargs):
                pass

        real_ensure_pool = ParallelExecutor._ensure_pool

        def ensure_pool(executor):
            if executor.stats.rebuilds == 0:
                executor._pool = BrokenPool()
                return executor._pool
            return real_ensure_pool(executor)

        monkeypatch.setattr(ParallelExecutor, "_ensure_pool", ensure_pool)
        with ParallelExecutor(2, chunk_size=1) as executor:
            assert executor.map(_square, [1, 2, 3]) == [1, 4, 9]
        assert executor.stats.rebuilds == 1

    def test_platform_probes(self):
        assert cpu_count() >= 1
        assert default_start_method() in ("fork", "spawn", "forkserver")
        assert ParallelExecutor(1).start_method == default_start_method()


class TestDeterministicMerge:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_map_matches_serial(self, jobs):
        items = list(range(37))
        expected = [_square(x) for x in items]
        with ParallelExecutor(jobs) as executor:
            assert executor.map(_square, items) == expected

    def test_unordered_tags_submission_indices(self):
        items = [5, 6, 7]
        with ParallelExecutor(2) as executor:
            pairs = sorted(executor.unordered(_square, items))
        assert pairs == [(0, 25), (1, 36), (2, 49)]

    def test_empty_items(self):
        with ParallelExecutor(2) as executor:
            assert executor.map(_square, []) == []


class TestInitializer:
    def test_initializer_runs_once_per_worker(self):
        with ParallelExecutor(
            2, initializer=_record_init, initargs=("tok",)
        ) as executor:
            seen = executor.map(_observe_init, range(16))
        # Every task observed exactly one initializer call in its
        # worker, with the initargs applied -- heavy state is paid per
        # worker, never per task.
        assert {(calls, token) for calls, token, _pid in seen} == {(1, "tok")}

    def test_inline_initializer_runs_once_across_calls(self):
        global _INIT_CALLS, _INIT_TOKEN
        _INIT_CALLS, _INIT_TOKEN = 0, None
        with ParallelExecutor(
            1, initializer=_record_init, initargs=("inline",)
        ) as executor:
            executor.map(_observe_init, [1])
            seen = executor.map(_observe_init, [2])
        assert seen == [(1, "inline", os.getpid())]
        _INIT_CALLS, _INIT_TOKEN = 0, None
