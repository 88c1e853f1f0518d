"""Tests for the operation-counting instrumentation.

These make the paper's complexity claims machine-checkable: the
improved algorithm performs strictly fewer closure accesses than
Charikar's, and the pruned variant fewer still -- independent of
wall-clock noise.
"""

import pytest

from repro.steiner.charikar import charikar_dst
from repro.steiner.improved import improved_dst
from repro.steiner.instrumentation import (
    CountingInstance,
    compare_solvers,
    count_operations,
)
from repro.steiner.pruned import pruned_dst

from tests.test_steiner_algorithms import hub_instance, random_instance


class TestCountingInstance:
    def test_counts_cost_lookups(self):
        prepared = hub_instance()
        counting = CountingInstance(prepared)
        counting.cost(0, 1)
        counting.cost(0, 2)
        assert counting.counts.cost_lookups == 2

    def test_counts_row_scans(self):
        prepared = hub_instance()
        counting = CountingInstance(prepared)
        counting.closure.costs_from(0)
        assert counting.counts.row_scans == 1

    def test_counts_terminal_row_scans(self):
        """One row scan per call, memo hit or not, same row as the instance."""
        prepared = hub_instance()
        counting = CountingInstance(prepared)
        first = counting.terminal_row(0)
        second = counting.terminal_row(0)
        assert counting.counts.row_scans == 2
        assert first == second == prepared.terminal_row(0)

    def test_delegates_values(self):
        prepared = hub_instance()
        counting = CountingInstance(prepared)
        assert counting.cost(0, 1) == prepared.cost(0, 1)
        assert counting.num_vertices == prepared.num_vertices
        assert counting.terminals == prepared.terminals
        assert counting.root == prepared.root

    def test_closure_attribute_passthrough(self):
        prepared = hub_instance()
        counting = CountingInstance(prepared)
        assert counting.closure.num_vertices == prepared.closure.num_vertices

    def test_reset(self):
        prepared = hub_instance()
        counting = CountingInstance(prepared)
        counting.cost(0, 1)
        counting.counts.reset()
        assert counting.counts.total == 0


class TestSolverTransparency:
    @pytest.mark.parametrize("solver", [charikar_dst, improved_dst, pruned_dst])
    @pytest.mark.parametrize("level", [1, 2])
    def test_counting_does_not_change_results(self, solver, level):
        prepared = random_instance(11, k=4)
        plain = solver(prepared, level)
        counting = CountingInstance(prepared)
        wrapped = solver(counting, level)
        assert wrapped.cost == pytest.approx(plain.cost)
        assert wrapped.covered == plain.covered


class TestComplexityClaims:
    @pytest.mark.parametrize("seed", range(3))
    def test_improved_does_less_work_than_charikar(self, seed):
        prepared = random_instance(seed, n=14, m=40, k=6)
        counts = compare_solvers(prepared, level=2)
        assert counts["improved"].total < counts["charikar"].total

    @pytest.mark.parametrize("seed", range(3))
    def test_pruned_does_less_work_than_improved(self, seed):
        prepared = random_instance(seed, n=14, m=40, k=6)
        counts = compare_solvers(prepared, level=2)
        assert counts["pruned"].total <= counts["improved"].total

    def test_gap_grows_with_terminal_count(self):
        small = random_instance(5, n=14, m=40, k=3)
        large = random_instance(5, n=14, m=40, k=8)
        ratio_small = (
            count_operations(charikar_dst, small, 2).total
            / count_operations(improved_dst, small, 2).total
        )
        ratio_large = (
            count_operations(charikar_dst, large, 2).total
            / count_operations(improved_dst, large, 2).total
        )
        # the paper: O(n^i k^{2i}) vs O(n^i k^i) -- the advantage scales with k
        assert ratio_large > ratio_small

    @pytest.mark.parametrize("solver", [charikar_dst, improved_dst, pruned_dst])
    def test_level_one_reads_one_terminal_row(self, solver):
        """The ``i == 1`` base is one terminal-row scan, no ``n``-length row."""
        prepared = random_instance(9, k=5)
        counts = count_operations(solver, prepared, 1)
        assert counts.row_scans == 1
        assert counts.cost_lookups == 0

    def test_level_one_identical_work(self):
        prepared = random_instance(9, k=5)
        counts = compare_solvers(prepared, level=1)
        assert counts["charikar"].total == counts["improved"].total
        assert counts["improved"].total == counts["pruned"].total
