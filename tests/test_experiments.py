"""Tests for the programmatic experiment harness (quick mode).

These exercise every registered experiment end-to-end at CI scale and
assert the qualitative shapes the paper reports; the statistically
careful timing runs live in ``benchmarks/``.
"""

import math

import pytest

from repro.experiments import EXPERIMENTS, TableResult, run_experiment


@pytest.fixture(scope="module")
def results():
    """Run every experiment once in quick mode (shared across tests)."""
    return {name: run_experiment(name, quick=True) for name in EXPERIMENTS}


class TestRegistry:
    def test_all_tables_and_figures_registered(self):
        assert set(EXPERIMENTS) == {
            "table1",
            "table2",
            "table3",
            "table4",
            "table5",
            "table6",
            "table7",
            "table8",
            "fig8a",
            "fig8b",
            "sweep",
        }

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            run_experiment("table99")

    def test_case_insensitive(self):
        result = run_experiment("TABLE1", quick=True)
        assert result.name == "table1"


class TestResultShape:
    def test_every_result_renders(self, results):
        for name, result in results.items():
            assert isinstance(result, TableResult)
            text = result.render()
            assert result.title in text
            assert len(result.rows) >= 1
            for row in result.rows:
                assert len(row) == len(result.header)

    def test_column_accessor(self, results):
        table1 = results["table1"]
        assert table1.column("dataset") == [r[0] for r in table1.rows]
        with pytest.raises(ValueError):
            table1.column("nope")


class TestPaperShapes:
    def test_table1_regimes(self, results):
        by_name = {row[0]: row for row in results["table1"].rows}
        pi = results["table1"].header.index("pi")
        assert by_name["epinions"][pi] == 1
        assert by_name["facebook"][pi] > by_name["slashdot"][pi]

    def test_table2_linear_algorithms_win(self, results):
        table = results["table2"]
        bhadra = table.header.index("Bhadra")
        alg1 = table.header.index("Alg1")
        wins = sum(1 for row in table.rows if row[alg1] < row[bhadra])
        assert wins >= len(table.rows) - 1  # allow one noisy row

    def test_table3_alg2_wins(self, results):
        table = results["table3"]
        bhadra = table.header.index("Bhadra")
        alg2 = table.header.index("Alg2")
        wins = sum(1 for row in table.rows if row[alg2] < row[bhadra])
        assert wins >= len(table.rows) - 1

    def test_table4_linear_expansion(self, results):
        table = results["table4"]
        e_g = table.header.index("|E(G')|")
        v_gg = table.header.index("|V(GG)|")
        for row in table.rows:
            # Lemma 2: |V(GG)| = O(|E(G')|)
            assert row[v_gg] <= 2 * row[e_g] + 2

    def test_table5_ordering(self, results):
        table = results["table5"]
        rows = {row[0]: row[1:] for row in table.rows}
        for charik, alg6 in zip(rows["Charik-2"], rows["Alg6-2"]):
            if charik == "-" or alg6 == "-":
                continue
            assert alg6 < charik

    def test_table6_weights_improve(self, results):
        table = results["table6"]
        rows = {row[0]: row[1:] for row in table.rows}
        for w1, w2 in zip(rows["i=1"], rows["i=2"]):
            if w1 == "-" or w2 == "-":
                continue
            assert w2 <= w1 * 1.05 + 1e-9

    def test_table7_alg6_beats_charik(self, results):
        table = results["table7"]
        charik = table.header.index("Charik-3")
        alg6 = table.header.index("Alg6-3")
        for row in table.rows:
            assert row[alg6] < row[charik]

    def test_table8_errors_nonnegative_and_improving(self, results):
        table = results["table8"]
        rows = {row[0]: row[1:] for row in table.rows}
        for e1, e2 in zip(rows["i=1"], rows["i=2"]):
            assert e2 >= -1e-9
            assert e2 <= e1 + 1e-9

    def test_table8_errors_within_the_approximation_bound(self, results):
        """Every Alg6-i error against the exact optimum is in [0, ratio - 1]."""
        from repro.experiments.steinlib_tables import QUICK_INSTANCES
        from repro.steiner.instance import approximation_ratio
        from repro.steiner.steinlib import generate_b_series

        table = results["table8"]
        assert table.header[1:] == QUICK_INSTANCES
        problems = generate_b_series(QUICK_INSTANCES)
        for row in table.rows:
            level = int(row[0][len("i="):])
            for name, error in zip(QUICK_INSTANCES, row[1:]):
                k = len(problems[name].terminals)
                bound = approximation_ratio(level, k) - 1
                assert 0 <= error <= bound, (name, level, error, bound)

    def test_fig8a_flat(self, results):
        times = [c for c in results["fig8a"].rows[0][1:]]
        assert max(times) <= 5 * min(times) + 0.05

    def test_fig8b_growing(self, results):
        for row in results["fig8b"].rows:
            times = row[1:]
            assert times[-1] > times[0]
            assert not any(math.isnan(t) for t in times)

class TestTable5LevelThreeCounts:
    """Table 5's level-3 claim, Alg6 below Alg4, pinned by work done.

    Full-mode wall times of Alg4-3 and Alg6-3 are now close enough for
    host noise to swap them, so the ordering the paper reports is
    checked on the instrument that cannot drift: the candidate-vertex
    expansions each solver's budget counts.
    """

    def test_alg6_expands_fewer_vertices_than_alg4(self):
        from repro.experiments.workloads import MSTW_WORKLOADS, mstw_workload
        from repro.resilience.budget import Budget
        from repro.steiner.improved import improved_dst
        from repro.steiner.pruned import pruned_dst

        configs = [c for c in MSTW_WORKLOADS if c.improved_max_level >= 3]
        assert configs
        for config in configs:
            prepared = mstw_workload(config).prepared
            alg4, alg6 = Budget(), Budget()
            improved_dst(prepared, 3, budget=alg4)
            pruned_dst(prepared, 3, budget=alg6)
            assert 0 < alg6.expansions < alg4.expansions, config.name


class TestTable5LevelTwoCounts:
    """Table 5's level-2 ordering, Charik above Alg4 above Alg6, by work done.

    ``test_table5_ordering`` compares millisecond wall times of Charik-2
    and Alg6-2 in quick mode; this pins the same claim, and Alg4-2
    between them, on the budget's candidate-vertex expansions, which no
    host noise can move.
    """

    def test_expansions_order_charik_alg4_alg6(self):
        from repro.experiments.workloads import QUICK_MSTW_WORKLOADS, mstw_workload
        from repro.resilience.budget import Budget
        from repro.steiner.charikar import charikar_dst
        from repro.steiner.improved import improved_dst
        from repro.steiner.pruned import pruned_dst

        assert QUICK_MSTW_WORKLOADS
        for config in QUICK_MSTW_WORKLOADS:
            prepared = mstw_workload(config).prepared
            charik, alg4, alg6 = Budget(), Budget(), Budget()
            charikar_dst(prepared, 2, budget=charik)
            improved_dst(prepared, 2, budget=alg4)
            pruned_dst(prepared, 2, budget=alg6)
            counts = (charik.expansions, alg4.expansions, alg6.expansions)
            assert counts[0] > counts[1] > counts[2] > 0, (config.name, counts)


class TestSweep:
    """The Section 2.3 sliding-window forecast table."""

    def test_shape_and_incremental_engagement(self, results):
        table = results["sweep"]
        assert table.header == [
            "t_alpha", "t_omega", "reached", "makespan", "mstw cost",
        ]
        for row in table.rows:
            reached, makespan, cost = row[2], row[3], row[4]
            if reached == 0:
                assert makespan == "-"
                assert cost == 0.0
            else:
                assert not math.isnan(makespan)
                assert not math.isnan(cost)
        assert any("never NaN" in n for n in table.notes)

    def test_empty_window_exports_dash_not_nan(self):
        """Table export of an empty window: '-', 0, 0.0 -- never NaN."""
        from repro.experiments.checkpoint import ExperimentContext
        from repro.experiments.sliding_tables import run_sweep

        empty = {
            "t_alpha": 0.0, "t_omega": 5.0,
            "coverage": 0, "cost": 0.0, "makespan": None, "caveat": None,
        }
        full = {
            "t_alpha": 5.0, "t_omega": 10.0,
            "coverage": 3, "cost": 7.0, "makespan": 4.0, "caveat": None,
        }
        ctx = ExperimentContext()
        ctx._cells = {
            "sweep:msta": {
                "rows": [empty, full],
                "stats": {"windows": 2},
            },
            "sweep:mstw": {
                "rows": [empty, full],
                "stats": {"windows": 2},
            },
        }
        table = run_sweep(quick=True, context=ctx)
        assert table.rows[0][2:] == [0, "-", 0.0]
        assert table.rows[1][2:] == [3, 4.0, 7.0]
        cells = "\n".join(
            str(cell) for row in table.rows for cell in row
        )
        assert "nan" not in cells.lower()
        assert "None" not in cells


class TestMstaBudgetThreading:
    """The cell budget must reach the MST_a solvers (the REP201 fix).

    Before the fix, ``run_table2``/``run_table3`` timed their solvers
    outside the cell protocol: the budget in scope was silently dropped
    and a pathological dataset could hang the table.  These tests pin
    the threaded path from both sides.
    """

    def test_tiny_cell_budget_degrades_structurally(self):
        from repro.experiments.checkpoint import ExperimentContext
        from repro.experiments.msta_tables import run_table2
        from repro.experiments.runner import OverBudgetCell

        ctx = ExperimentContext(cell_budget_seconds=1e-9)
        table = run_table2(quick=True, context=ctx)
        bhadra = table.header.index("Bhadra")
        alg2 = table.header.index("Alg2")
        for row in table.rows:
            # Bhadra and Alg2 checkpoint every expansion, so a
            # zero-width deadline degrades every one of their cells to
            # a structured over-budget marker instead of raising.
            assert isinstance(row[bhadra], OverBudgetCell)
            assert isinstance(row[alg2], OverBudgetCell)

    def test_default_context_stays_exact(self, results):
        from repro.experiments.runner import OverBudgetCell

        for name in ("table2", "table3"):
            for row in results[name].rows:
                assert not any(
                    isinstance(cell, OverBudgetCell) for cell in row
                )


class TestMstaWarmUp:
    """One-off layouts are paid before Table 2's timed cells, not in them."""

    def test_zero_duration_memo_warm_before_first_timed_cell(self, monkeypatch):
        from repro.experiments import msta_tables
        from repro.experiments.checkpoint import ExperimentContext

        actives = []
        protocol = msta_tables.msta_protocol

        def capture(*args, **kwargs):
            root, window, active = protocol(*args, **kwargs)
            actives.append(active)
            return root, window, active

        class FirstCellChecked(Exception):
            pass

        def cell(self, key, fn):
            # Alg1 (msta_chronological) asks has_zero_duration_edge()
            # first thing; an unset memo here is paid inside the timing.
            assert actives[-1]._zero_duration is not None, key
            raise FirstCellChecked

        monkeypatch.setattr(msta_tables, "msta_protocol", capture)
        monkeypatch.setattr(ExperimentContext, "cell", cell)
        with pytest.raises(FirstCellChecked):
            msta_tables.run_table2(quick=True)
