"""Chaos suite: seeded fault schedules against every hardened layer.

The tests here run real workloads under an installed
:class:`repro.faults.FaultPlan` and assert the PR-6 contract:

* **byte-identical output** -- values, tables, and sweep rows match the
  fault-free run exactly (over-budget cells are compared structurally,
  since their recorded ``elapsed`` is a wall-clock measurement);
* **never a traceback** -- recovery absorbs every injected fault;
* **never silent data loss** -- faults leave evidence in the stats
  counters (``BatchResult.faults``, ``ExperimentContext.fault_stats``,
  ``SweepResult.stats``) or the process-local fired log.

Selected by the ``chaos`` marker (``make chaos``); also part of the
regular suite -- the schedules are deterministic, so these are ordinary
tests that happen to break things on purpose.
"""

import io
import json
import os
import pickle
import random

import pytest

from repro import faults
from repro.cli import main as cli_main
from repro.core.errors import (
    ExperimentInterruptedError,
    GraphFormatError,
    UnreachableRootError,
)
from repro.core.mstw import (
    clear_prepare_memo,
    minimum_spanning_tree_w,
    prepare_cache_info,
    prepare_mstw_instance,
)
from repro.core.sliding import SweepResult, WindowMeasurement, iter_windows, sweep
from repro.experiments.checkpoint import (
    ExperimentContext,
    decode_cell,
    encode_cell,
)
from repro.experiments.registry import run_experiment
from repro.experiments.runner import DegradedCell, OverBudgetCell
from repro.faults import (
    CORRUPT_READ,
    FaultPlan,
    FaultSpec,
    TASK_ERROR,
    TASK_STALL,
    TORN_WRITE,
    WORKER_CRASH,
)
from repro.parallel.batch import SweepCell, run_batch, run_sweep_serial
from repro.parallel.engine import ParallelExecutor, TimeoutCell
from repro.temporal import io as tio
from repro.temporal.edge import TemporalEdge
from repro.temporal.graph import TemporalGraph
from repro.temporal.index import TemporalEdgeIndex
from repro.temporal.window import TimeWindow

pytestmark = pytest.mark.chaos


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Chaos must stay scoped: no plan may outlive its test."""
    assert faults.active_plan() is None
    yield
    assert faults.active_plan() is None


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def _sweep_graph(n=14, extra=30, seed=11):
    """The deterministic batch-sweep graph (mirrors test_parallel_batch)."""
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


WINDOWS = (TimeWindow(0, 20), TimeWindow(2, 16), TimeWindow(4, 12))
VARIANTS = (("pruned", 1), ("pruned", 2), ("improved", 1), ("improved", 2))


def _cells(windows=WINDOWS, fallback=False):
    return [
        SweepCell(0, window, level=level, algorithm=algorithm, fallback=fallback)
        for window in windows
        for algorithm, level in VARIANTS
    ]


def _normalized(values):
    """Cell values with wall-clock measurements erased.

    ``OverBudgetCell.elapsed`` records how long the cell ran before its
    budget tripped -- a timing, not a result -- so identity assertions
    compare the structured outcome (type + rung) instead.
    """
    return [
        (type(v).__name__, v.rung) if isinstance(v, OverBudgetCell) else v
        for v in values
    ]


# ----------------------------------------------------------------------
# Worker-side probes (top level: they cross the pickle boundary)
# ----------------------------------------------------------------------
_PROBE_GRAPH = None


def _install_probe_graph(payload):
    global _PROBE_GRAPH
    _PROBE_GRAPH = pickle.loads(payload)


def _cache_probe(_item):
    """Warm this worker's per-process caches and report their counters."""
    graph = _PROBE_GRAPH
    clear_prepare_memo()
    window = TimeWindow(0, 20)
    prepare_mstw_instance(graph, 0, window)
    prepare_mstw_instance(graph, 0, window)
    info = prepare_cache_info()
    return {
        "pid": os.getpid(),
        "memo_hits": info["hits"],
        "memo_misses": info["misses"],
    }


def _encode_probe(item):
    """A cell value of every structured flavor, encoded worker-side."""
    if item % 3 == 0:
        value = OverBudgetCell(elapsed=0.5, rung="pruned-1")
    elif item % 3 == 1:
        value = DegradedCell(value=float(item), rung="shortest-paths")
    else:
        value = float(item)
    return encode_cell(value)


def _double(item):
    return item * 2


# ----------------------------------------------------------------------
# Pool recovery
# ----------------------------------------------------------------------
class TestPoolRecovery:
    @pytest.mark.parametrize(
        "occurrence", [1, 3, 5], ids=["first-chunk", "middle-chunk", "last-chunk"]
    )
    def test_cell_round_trips_survive_worker_crash(self, occurrence):
        """OverBudget/Degraded markers survive a crash wherever it lands.

        12 tasks in 6 chunks over 2 workers: by pigeonhole one worker
        reaches at least 6 site visits, so occurrences 1/3/5 land in the
        first / a middle / a late chunk of some worker's run and are
        guaranteed to detonate.
        """
        plan = FaultPlan.of(
            FaultSpec("parallel.task", WORKER_CRASH, occurrence=occurrence)
        )
        items = list(range(12))
        expected = [decode_cell(_encode_probe(item)) for item in items]
        with faults.injected(plan):
            with ParallelExecutor(2, chunk_size=2) as executor:
                got = [decode_cell(v) for v in executor.map(_encode_probe, items)]
        assert got == expected
        assert executor.stats.rebuilds >= 1  # the crash left evidence

    def test_batch_values_identical_under_worker_crash(self):
        graph = _sweep_graph()
        cells = _cells()
        expected = run_sweep_serial(graph, cells)
        plan = FaultPlan.of(FaultSpec("parallel.task", WORKER_CRASH, occurrence=1))
        with faults.injected(plan):
            result = run_batch(graph, cells, jobs=2)
        assert result.values == expected
        assert result.faults["rebuilds"] >= 1
        # One extraction per (window, root) run, whoever ran it.
        assert result.reuse == {
            "hits": len(cells) - len(WINDOWS),
            "misses": len(WINDOWS),
        }

    def test_over_budget_cells_survive_worker_crash(self):
        graph = _sweep_graph()
        cells = _cells(windows=WINDOWS[:1])
        serial = run_sweep_serial(graph, cells, budget_seconds=1e-9)
        plan = FaultPlan.of(FaultSpec("parallel.task", WORKER_CRASH, occurrence=1))
        with faults.injected(plan):
            result = run_batch(graph, cells, jobs=2, budget_seconds=1e-9)
        assert all(isinstance(v, OverBudgetCell) for v in serial)
        assert _normalized(result.values) == _normalized(serial)
        assert result.faults["rebuilds"] >= 1

    def test_injected_task_error_is_retried_in_pool(self):
        graph = _sweep_graph()
        cells = _cells()
        expected = run_sweep_serial(graph, cells)
        plan = FaultPlan.of(FaultSpec("parallel.task", TASK_ERROR, occurrence=1))
        with faults.injected(plan):
            result = run_batch(graph, cells, jobs=2)
        assert result.values == expected
        assert result.faults["retries"] >= 1

    def test_stalled_chunk_times_out_and_recovers_inline(self):
        plan = FaultPlan.of(
            FaultSpec("parallel.task", TASK_STALL, occurrence=1, seconds=0.6)
        )
        items = list(range(8))
        with faults.injected(plan):
            with ParallelExecutor(
                2, chunk_size=2, task_timeout_seconds=0.1
            ) as executor:
                got = executor.map(_double, items)
        assert got == [item * 2 for item in items]
        assert executor.stats.timeouts >= 1
        for cell in executor.stats.timeout_cells:
            assert isinstance(cell, TimeoutCell)
            assert cell.elapsed_seconds > cell.timeout_seconds

    @pytest.mark.parametrize("seed", [7, 11, 23])
    def test_seeded_schedule_matrix_preserves_batch_output(self, seed):
        graph = _sweep_graph()
        cells = _cells()
        expected = run_sweep_serial(graph, cells)
        plan = FaultPlan.seeded(
            seed,
            sites=("parallel.task",),
            faults=2,
            max_occurrence=4,
            stall_seconds=0.05,
        )
        with faults.injected(plan):
            result = run_batch(graph, cells, jobs=2)
        assert result.values == expected


class TestCacheRewarm:
    def test_worker_caches_rewarm_after_pool_rebuild(self):
        """Satellite: per-process caches survive (re-warm after) a rebuild.

        The ``prepare_mstw_instance`` memo is process-local, so a
        crashed worker takes its copy with it.  The probes run after
        the rebuild and must see a *working* cache in the replacement
        workers: a miss on first derivation and a hit on the repeat.
        """
        graph = _sweep_graph()
        payload = pickle.dumps(graph)
        plan = FaultPlan.of(FaultSpec("parallel.task", WORKER_CRASH, occurrence=1))
        driver_pid = os.getpid()
        with faults.injected(plan):
            with ParallelExecutor(
                2, initializer=_install_probe_graph, initargs=(payload,), chunk_size=1
            ) as executor:
                results = executor.map(_cache_probe, list(range(4)))
        assert executor.stats.rebuilds >= 1
        for entry in results:
            assert entry["pid"] != driver_pid  # computed in a (fresh) worker
            assert entry["memo_misses"] >= 1  # re-derived, not inherited
            assert entry["memo_hits"] >= 1  # ...and serving hits again


# ----------------------------------------------------------------------
# Sliding sweeps
# ----------------------------------------------------------------------
class TestSlidingSweepChaos:
    """The engine's sweep path has no injection site of its own; these
    pin the sweep contract the recovery counters must never break."""

    def test_incremental_sweep_identity_with_empty_windows(self):
        """The engine's sweep equals the cold one, empty windows included.

        Root 9's activity only starts at t=12, so the sweep's early
        windows are empty -- their rows must carry the empty-window
        contract (no coverage, zero cost, ``None`` makespan) identically
        in the cold reference and the incremental run.
        """
        graph = _sweep_graph()
        root = 9  # chain edge (8, 9) starts at t=12
        index = TemporalEdgeIndex(graph)
        cold = []
        for window in iter_windows(graph, 6, 5):
            active = index.subgraph(window)
            try:
                tree = minimum_spanning_tree_w(active, root, window, level=2).tree
            except UnreachableRootError:
                tree = None
            cold.append(WindowMeasurement(window, tree))
        expected = SweepResult(kind="mstw", root=root, measurements=cold)
        result = sweep(graph, root, window_length=6, step=5, kind="mstw")
        assert result.rows() == expected.rows()
        empty_rows = [row for row in result.rows() if row["coverage"] == 0]
        assert empty_rows, "workload must include empty windows"
        for row in empty_rows:
            assert row["cost"] == 0
            assert row["makespan"] is None
        assert result.stats == {"windows": len(cold)}

    def test_sweep_stats_stay_out_of_rows(self):
        graph = _sweep_graph()
        result = sweep(graph, 0, window_length=8, step=4, kind="mstw")
        assert result.stats
        for row in result.rows():
            assert set(row) == {
                "t_alpha", "t_omega", "coverage", "cost", "makespan", "caveat",
            }


# ----------------------------------------------------------------------
# Experiments and checkpoints
# ----------------------------------------------------------------------
EXPERIMENT = "table8"  # the suite's cheapest checkpointed table


class TestExperimentChaos:
    def test_table_identical_under_cell_and_write_faults(self, tmp_path):
        baseline = run_experiment(EXPERIMENT, quick=True)
        plan = FaultPlan.of(
            FaultSpec("experiments.cell", TASK_ERROR, occurrence=2),
            FaultSpec("checkpoint.write", TORN_WRITE, occurrence=3),
        )
        context = ExperimentContext(checkpoint_dir=str(tmp_path))
        with faults.injected(plan):
            result = run_experiment(EXPERIMENT, quick=True, context=context)
            fired = faults.fired_log()
        assert result.rows == baseline.rows
        assert result.render() == baseline.render()
        assert len(fired) == 2
        assert context.fault_stats["cell_retries"] == 1
        assert context.fault_stats["torn_writes"] == 1
        summary = context.fault_summary()
        assert summary is not None and "cell_retries=1" in summary
        # A torn intermediate save was overwritten by later good saves,
        # and the completed run removed its checkpoint as usual.
        assert not (tmp_path / f"{EXPERIMENT}.json").exists()

    def test_torn_final_checkpoint_is_quarantined_on_resume(self, tmp_path):
        baseline = run_experiment(EXPERIMENT, quick=True)
        interrupted = ExperimentContext(
            checkpoint_dir=str(tmp_path), interrupt_after=2
        )
        plan = FaultPlan.of(FaultSpec("checkpoint.write", TORN_WRITE, occurrence=2))
        with faults.injected(plan):
            with pytest.raises(ExperimentInterruptedError):
                run_experiment(EXPERIMENT, quick=True, context=interrupted)
        path = tmp_path / f"{EXPERIMENT}.json"
        assert path.exists()
        with pytest.raises(json.JSONDecodeError):
            json.loads(path.read_text())  # the tear reached the disk
        resumed = ExperimentContext(checkpoint_dir=str(tmp_path), resume=True)
        result = run_experiment(EXPERIMENT, quick=True, context=resumed)
        assert result.rows == baseline.rows
        assert result.render() == baseline.render()
        assert resumed.fault_stats["quarantined_files"] == 1
        # Quarantine preserves the evidence instead of deleting it.
        assert (tmp_path / f"{EXPERIMENT}.json.quarantined").exists()
        assert not path.exists()

    def test_parallel_prefetch_identity_under_worker_crash(self, tmp_path):
        baseline = run_experiment("table4", quick=True)
        plan = FaultPlan.of(FaultSpec("experiments.cell", WORKER_CRASH, occurrence=1))
        context = ExperimentContext(checkpoint_dir=str(tmp_path), jobs=2)
        with faults.injected(plan):
            result = run_experiment("table4", quick=True, context=context)
        assert result.rows == baseline.rows
        assert result.render() == baseline.render()
        assert context.fault_stats["pool_rebuilds"] >= 1

    def test_cli_reports_fault_note_on_stderr(self, tmp_path, capsys):
        clean_code = cli_main(["experiment", EXPERIMENT, "--quick"])
        clean_out = capsys.readouterr().out
        assert clean_code == 0
        plan = FaultPlan.of(FaultSpec("experiments.cell", TASK_ERROR, occurrence=1))
        with faults.injected(plan):
            code = cli_main(
                [
                    "experiment", EXPERIMENT, "--quick",
                    "--checkpoint-dir", str(tmp_path),
                ]
            )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == clean_out  # the table itself is untouched
        assert "note: fault recovery:" in captured.err
        assert "cell_retries=1" in captured.err


# ----------------------------------------------------------------------
# Dataset reads
# ----------------------------------------------------------------------
class TestIoChaos:
    def test_corrupt_read_recovers_from_path(self, tmp_path):
        graph = _sweep_graph()
        path = tmp_path / "graph.tg"
        tio.write_native(graph, str(path))
        clean = tio.read_native(str(path))
        plan = FaultPlan.of(FaultSpec("temporal.io.read", CORRUPT_READ, occurrence=3))
        with faults.injected(plan):
            recovered = tio.read_native(str(path))
            assert faults.fired_log() == (("temporal.io.read", CORRUPT_READ, 3),)
        assert recovered.edges == clean.edges
        assert recovered.vertices == clean.vertices

    def test_corrupt_read_on_konect_path_recovers(self, tmp_path):
        path = tmp_path / "contacts.tsv"
        path.write_text("1 2 1.0 100\n2 3 2.0 200\n3 4 1.5 300\n")
        clean = tio.read_konect(str(path))
        plan = FaultPlan.of(FaultSpec("temporal.io.read", CORRUPT_READ, occurrence=2))
        with faults.injected(plan):
            recovered = tio.read_konect(str(path))
        assert recovered.edges == clean.edges

    def test_corrupt_read_on_stream_fails_loudly(self):
        """A consumed stream cannot be rewound: one attempt, loud failure."""
        text = "0 1 0 1 2.0\n1 2 1 2 3.0\n"
        plan = FaultPlan.of(FaultSpec("temporal.io.read", CORRUPT_READ, occurrence=2))
        with faults.injected(plan):
            with pytest.raises(GraphFormatError):
                tio.read_native(io.StringIO(text))

    def test_genuine_format_error_is_not_retried(self, tmp_path):
        path = tmp_path / "bad.tg"
        path.write_text("0 1 0 1 not-a-number\n")
        plan = FaultPlan.of(FaultSpec("temporal.io.read", CORRUPT_READ, occurrence=9))
        with faults.injected(plan):
            with pytest.raises(GraphFormatError, match="not a number"):
                tio.read_native(str(path))
            # No fault fired: the file was broken all on its own.
            assert faults.fired_log() == ()
