"""The batch sweep engine: one pool task per ``(window, root)`` run.

Headline property (the engine's reason to exist): ``run_batch`` output
equals the pre-engine serial reference loop ``run_sweep_serial`` on the
same cells at any ``jobs`` value and any cell order -- including cells
that go over budget or answer through the fallback ladder -- while each
run extracts and prepares its window once, from the worker's columns,
and leaves nothing behind in the driver.
"""

import gc
import random
import weakref

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.parallel import batch
from repro.parallel.batch import (
    BatchResult,
    SweepCell,
    run_batch,
    run_sweep_serial,
)
from repro.experiments.runner import OverBudgetCell
from repro.temporal.edge import TemporalEdge
from repro.temporal.graph import TemporalGraph
from repro.temporal.index import TemporalEdgeIndex
from repro.temporal.window import TimeWindow


def _sweep_graph(n=14, extra=30, seed=11):
    """A deterministic temporal graph with activity spread over [0, 20].

    Vertex 0 reaches a growing prefix of the chain as the window widens,
    so nested sweep windows give distinct but always-solvable cells.
    """
    rng = random.Random(seed)
    edges = []
    for v in range(1, n):
        start = 4 + (v - 1)
        edges.append(TemporalEdge(v - 1, v, start, start, rng.randint(1, 9)))
    for _ in range(extra):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        start = rng.randint(0, 18)
        edges.append(
            TemporalEdge(u, v, start, start + rng.randint(0, 2), rng.randint(1, 9))
        )
    return TemporalGraph(edges, vertices=range(n))


#: Nested sweep windows, widest first (mirrors the bench scenarios).
WINDOWS = (TimeWindow(0, 20), TimeWindow(2, 16), TimeWindow(4, 12))

VARIANTS = (("pruned", 1), ("pruned", 2), ("improved", 1), ("improved", 2))


def _cells(windows=WINDOWS, fallback=False):
    return [
        SweepCell(0, window, level=level, algorithm=algorithm, fallback=fallback)
        for window in windows
        for algorithm, level in VARIANTS
    ]


class TestBatchEqualsSerial:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_values_identical_to_reference_loop(self, jobs):
        graph = _sweep_graph()
        cells = _cells()
        expected = run_sweep_serial(graph, cells)
        result = run_batch(graph, cells, jobs=jobs)
        assert isinstance(result, BatchResult)
        assert result.values == expected
        assert result.jobs == jobs
        # Each window's variants form one run: one extraction per
        # window, reused by the run's other cells.
        assert result.reuse == {
            "hits": len(cells) - len(WINDOWS),
            "misses": len(WINDOWS),
        }
        assert result.fallback_summaries == [None] * len(cells)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_interleaved_cells_identical_to_reference_loop(self, jobs):
        graph = _sweep_graph()
        # Roots alternate cell by cell: no two neighbours share
        # (window, root), so every cell is a run of its own.
        cells = [
            SweepCell(root, window, level=level, algorithm=algorithm)
            for algorithm, level in VARIANTS
            for window in WINDOWS
            for root in (0, 1)
        ]
        assert all(
            (a.window, a.root) != (b.window, b.root) for a, b in zip(cells, cells[1:])
        )
        result = run_batch(graph, cells, jobs=jobs)
        assert result.values == run_sweep_serial(graph, cells)
        assert result.reuse == {"hits": 0, "misses": len(cells)}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fallback_cells_round_trip(self, jobs):
        graph = _sweep_graph()
        cells = _cells(windows=WINDOWS[:2], fallback=True)
        expected = run_sweep_serial(graph, cells)
        result = run_batch(graph, cells, jobs=jobs)
        assert result.values == expected
        # The ladder answered at its first rung (no budget pressure),
        # and its summary survived the process boundary.
        for summary in result.fallback_summaries:
            assert summary is not None
            assert summary["degraded"] is False
            assert summary["attempts"][0]["status"] == "ok"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_over_budget_cells_survive_the_boundary(self, jobs):
        graph = _sweep_graph()
        cells = _cells(windows=WINDOWS[:1])
        serial = run_sweep_serial(graph, cells, budget_seconds=1e-9)
        result = run_batch(graph, cells, jobs=jobs, budget_seconds=1e-9)
        assert all(isinstance(v, OverBudgetCell) for v in serial)
        assert all(isinstance(v, OverBudgetCell) for v in result.values)
        assert len(result.values) == len(serial)
        for value in result.values:
            assert value.elapsed > 0


class TestWorkerState:
    def _spy_on_init(self, monkeypatch, keep):
        """Record the graph copy each ``_init_worker`` call installs."""
        init = batch._init_worker

        def spy(graph_bytes):
            init(graph_bytes)
            keep(batch._worker_graph)

        monkeypatch.setattr(batch, "_init_worker", spy)

    def test_tasks_stay_column_native(self, monkeypatch):
        copies = []
        self._spy_on_init(monkeypatch, copies.append)
        indexed = []
        build_index = TemporalEdgeIndex.__init__

        def spy_index(index, graph):
            indexed.append(graph)
            build_index(index, graph)

        monkeypatch.setattr(TemporalEdgeIndex, "__init__", spy_index)
        graph = _sweep_graph()
        cells = _cells()
        assert run_batch(graph, cells, jobs=1).values == run_sweep_serial(
            graph, cells
        )
        [copy] = copies
        # Extraction reads the copy's columns: its edge tuple is never
        # built, nor the TemporalEdgeIndex that would need it.
        assert copy._edges is None
        assert not any(g is copy for g in indexed)

    def test_jobs1_batch_releases_the_graph_copy(self, monkeypatch):
        copies = []
        self._spy_on_init(monkeypatch, lambda g: copies.append(weakref.ref(g)))
        graph = _sweep_graph()
        run_batch(graph, _cells(), jobs=1)
        gc.collect()
        assert len(copies) == 1
        assert batch._worker_graph is None
        assert copies[0]() is None

    def test_one_preparation_per_run_freed_on_return(self, monkeypatch):
        subs = []
        prepare = batch.prepare_mstw_instance

        def spy(sub, root, window=None):
            subs.append(weakref.ref(sub))
            return prepare(sub, root, window)

        monkeypatch.setattr(batch, "prepare_mstw_instance", spy)
        graph = _sweep_graph()
        cells = _cells()
        gc.disable()
        try:
            result = run_batch(graph, cells, jobs=1)
            # Each window's variants form one run, prepared once.
            assert len(subs) == len(WINDOWS) < len(cells)
            # No reference cycle holds a run's subgraph (and with it
            # the run's closure): refcounting alone frees it.
            assert [ref() for ref in subs] == [None] * len(WINDOWS)
        finally:
            gc.enable()
        assert result.values == run_sweep_serial(graph, cells)


@st.composite
def small_graphs(draw, max_vertices=6):
    """Reachable random graphs (mirrors the perf-cache strategy)."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    edges = []
    arrival = {0: 0}
    for v in range(1, n):
        parent = draw(st.sampled_from(sorted(arrival)))
        start = arrival[parent] + draw(st.integers(min_value=0, max_value=3))
        duration = draw(st.integers(min_value=0, max_value=2))
        edges.append(
            TemporalEdge(
                parent, v, start, start + duration,
                draw(st.integers(min_value=1, max_value=9)),
            )
        )
        arrival[v] = start + duration
    return TemporalGraph(edges, vertices=range(n))


class TestBatchProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        graph=small_graphs(),
        level=st.integers(min_value=1, max_value=2),
    )
    def test_inline_batch_equals_serial_on_random_graphs(self, graph, level):
        windows = (TimeWindow(0, float("inf")), TimeWindow(0, 8))
        cells = [
            SweepCell(0, window, level=level, algorithm=algorithm)
            for window in windows
            for algorithm in ("pruned", "improved")
        ]
        assert run_batch(graph, cells, jobs=1).values == run_sweep_serial(
            graph, cells
        )
