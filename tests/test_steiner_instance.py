"""Unit tests for DST instances and preparation."""

import pytest

from repro.core.errors import GraphFormatError, UnreachableRootError
from repro.static.digraph import StaticDigraph
from repro.steiner.instance import (
    DSTInstance,
    approximation_ratio,
    prepare_instance,
    restrict_reachable,
)

from tests.conftest import prepare_with


def diamond():
    g = StaticDigraph()
    g.add_edge("r", "a", 1.0)
    g.add_edge("r", "b", 2.0)
    g.add_edge("a", "t1", 1.0)
    g.add_edge("b", "t2", 1.0)
    return g


class TestDSTInstance:
    def test_valid(self):
        inst = DSTInstance(diamond(), "r", ("t1", "t2"))
        assert inst.num_terminals == 2

    def test_unknown_root(self):
        with pytest.raises(GraphFormatError):
            DSTInstance(diamond(), "zz", ("t1",))

    def test_unknown_terminal(self):
        with pytest.raises(GraphFormatError):
            DSTInstance(diamond(), "r", ("zz",))

    def test_root_as_terminal_rejected(self):
        with pytest.raises(GraphFormatError):
            DSTInstance(diamond(), "r", ("r",))

    def test_duplicate_terminal_rejected(self):
        with pytest.raises(GraphFormatError):
            DSTInstance(diamond(), "r", ("t1", "t1"))


class TestPrepare:
    def test_indices_and_costs(self):
        prepared = prepare_instance(DSTInstance(diamond(), "r", ("t1", "t2")))
        r = prepared.root
        t1, t2 = prepared.terminals
        assert prepared.cost(r, t1) == 2.0
        assert prepared.cost(r, t2) == 3.0
        assert prepared.num_terminals == 2
        assert prepared.num_vertices == 5

    def test_unreachable_terminal_raises(self):
        g = diamond()
        g.add_vertex("island")
        with pytest.raises(UnreachableRootError):
            prepare_instance(DSTInstance(g, "r", ("island",)))

    @pytest.mark.parametrize("method", ["auto", "dag", "dijkstra"])
    def test_unreachable_message_counts_and_names_the_first(self, method):
        g = diamond()
        g.add_vertex("island2")
        g.add_vertex("island1")
        instance = DSTInstance(g, "r", ("t1", "island2", "t2", "island1"))
        with pytest.raises(UnreachableRootError) as excinfo:
            prepare_with(instance, method)
        assert str(excinfo.value) == (
            "2 terminals unreachable from root 'r', e.g. 'island2'"
        )

    def test_unreachable_allowed_when_disabled(self):
        g = diamond()
        g.add_vertex("island")
        prepared = prepare_instance(
            DSTInstance(g, "r", ("island",)), require_reachable=False
        )
        assert prepared.num_terminals == 1

    def test_restrict_reachable_drops_islands(self):
        g = diamond()
        g.add_vertex("island")
        inst = restrict_reachable(DSTInstance(g, "r", ("t1", "island")))
        assert inst.terminals == ("t1",)


class TestApproximationRatio:
    def test_level_one_is_k(self):
        assert approximation_ratio(1, 10) == 10.0

    def test_paper_formula(self):
        # i^2 (i-1) k^(1/i)
        assert approximation_ratio(2, 16) == pytest.approx(4 * 1 * 4.0)
        assert approximation_ratio(3, 8) == pytest.approx(9 * 2 * 2.0)

    def test_degenerate_k(self):
        assert approximation_ratio(3, 0) == 1.0

    def test_bad_level(self):
        with pytest.raises(ValueError):
            approximation_ratio(0, 5)
