"""Identity suite for rooted DST instances.

:func:`repro.steiner.instance.prepare_instance` closes only the
instance induced on the vertices the root reaches (plus the terminals),
renumbered in their original order.  That is admissible only if every
solver answers exactly as it would over the whole graph.  These
properties pin it against a :class:`PreparedInstance` built here over
the whole graph by the same closure method, with no rooting:

* **islands** -- random DST instances padded with vertices the root
  cannot reach (islands, some cyclic, and chains hanging into the
  reachable part, so dropped vertices can reach terminals), interleaved
  in index order: Algorithms 3, 4/5 and 6 at levels 1-3 with the
  batched kernels pinned on and off, the exact solver and the
  shortest-paths rung return the same labelled trees and cost floats;
* **temporal** -- the same over random temporal graphs and windows,
  through postprocessing to the temporal tree;
* **invariance** -- adding islands changes neither the tree nor the
  budget's expansion count;
* **closure method** -- ``auto`` judges acyclicity on the rooted graph,
  so a cycle the root cannot reach does not turn it to Dijkstra.

CI re-runs this file with the other identity suites and fails the job
if any test here is skipped.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.postprocess import closure_tree_to_temporal
from repro.core.transformation import transform_temporal_graph
from repro.resilience.budget import Budget
from repro.static.closure import MetricClosure
from repro.static.dag import DagMetricClosure
from repro.static.digraph import StaticDigraph
from repro.steiner import kernels
from repro.steiner.charikar import charikar_dst
from repro.steiner.exact import exact_dst
from repro.steiner.heuristics import shortest_paths_heuristic
from repro.steiner.improved import improved_dst
from repro.steiner.instance import (
    DSTInstance,
    PreparedInstance,
    prepare_instance,
    rooted_instance,
)
from repro.steiner.pruned import pruned_dst
from repro.temporal.paths import reachable_set
from repro.temporal.window import TimeWindow

from tests.conftest import CLOSURE_BUILDERS, prepare_with, random_temporal

SOLVERS = (charikar_dst, improved_dst, pruned_dst)

#: Non-integer weights, so float sums depend on operation order.
WEIGHTS = (0.1, 0.2, 0.3, 0.7, 1.0 / 3.0, 1.1, 2.5)

#: Kernel floors: 0 pins the batched paths on, a huge floor pins them off.
FLOORS = (0, 10**9)


@contextmanager
def kernel_floor(value):
    """Temporarily pin ``KERNEL_MIN_CELLS``."""
    previous = kernels.KERNEL_MIN_CELLS
    kernels.KERNEL_MIN_CELLS = value
    try:
        yield
    finally:
        kernels.KERNEL_MIN_CELLS = previous


def whole_graph_prepared(instance, method="auto"):
    """A prepared instance closed over the whole graph, with no rooting."""
    graph = instance.graph
    return PreparedInstance(
        instance,
        CLOSURE_BUILDERS[method](graph),
        graph.index_of(instance.root),
        tuple(graph.index_of(t) for t in instance.terminals),
    )


def labelled(prepared, tree):
    """A closure tree with dense indices mapped back to labels."""
    label = prepared.instance.graph.label_of
    return (
        [(label(u), label(v)) for u, v in tree.edges],
        tree.cost,
        sorted((label(x) for x in tree.covered), key=repr),
    )


def labelled_edges(prepared, edges):
    """Base-graph ``(u, v, w)`` triples with labels for indices."""
    label = prepared.instance.graph.label_of
    return [(label(u), label(v), w) for u, v, w in edges]


def temporal(tree):
    """Order-independent form of a temporal spanning tree."""
    return (tree.root, sorted(tree.parent_edge.items()))


@st.composite
def islanded_instances(draw, acyclic=False):
    """``(core, padded)``: a DST instance and the same one with islands.

    In the core, root ``("c", 0)`` reaches every vertex.  ``padded``
    adds islands (random digraphs) and chains hanging from an island
    into the core, and interleaves all vertices and edges in random
    order while keeping the core's own relative order.  Cycles may
    appear anywhere unless ``acyclic``, which keeps every edge pointing
    from a lower to a higher position of its own list.
    """
    n_core = draw(st.integers(min_value=2, max_value=6))
    core = [("c", i) for i in range(n_core)]
    weight = st.sampled_from(WEIGHTS)
    core_edges = []
    for i in range(1, n_core):
        parent = core[draw(st.integers(min_value=0, max_value=i - 1))]
        core_edges.append((parent, core[i], draw(weight)))
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        u = draw(st.sampled_from(core))
        v = draw(st.sampled_from(core[1:]))
        if u != v and not (acyclic and u > v):
            core_edges.append((u, v, draw(weight)))
    core_edges = draw(st.permutations(core_edges))

    islands = [("i", j) for j in range(draw(st.integers(min_value=1, max_value=5)))]
    extra_edges = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        u = draw(st.sampled_from(islands))
        v = draw(st.sampled_from(islands))
        if u != v and not (acyclic and u > v):
            extra_edges.append((u, v, draw(weight)))
    chains = []
    for c in range(draw(st.integers(min_value=0, max_value=2))):
        chain = [("h", c, j) for j in range(draw(st.integers(1, 3)))]
        chains.extend(chain)
        extra_edges.append((draw(st.sampled_from(islands)), chain[0], draw(weight)))
        extra_edges.extend((a, b, draw(weight)) for a, b in zip(chain, chain[1:]))
        extra_edges.append((chain[-1], draw(st.sampled_from(core)), draw(weight)))

    terminals = tuple(
        draw(
            st.lists(
                st.sampled_from(core[1:]),
                min_size=1,
                max_size=min(4, n_core - 1),
                unique=True,
            )
        )
    )
    vertices = _interleave(draw, core, islands + chains)
    edges = _interleave(draw, core_edges, extra_edges)
    padded = StaticDigraph(vertices)
    for u, v, w in edges:
        padded.add_edge(u, v, w)
    plain = StaticDigraph(core)
    for u, v, w in core_edges:
        plain.add_edge(u, v, w)
    return (
        DSTInstance(plain, core[0], terminals),
        DSTInstance(padded, core[0], terminals),
    )


def _interleave(draw, keep_order, others):
    """``others`` spliced into ``keep_order`` at drawn positions."""
    merged = list(keep_order)
    for item in others:
        merged.insert(draw(st.integers(min_value=0, max_value=len(merged))), item)
    return merged


class TestRootedInstance:
    @given(islanded_instances())
    @settings(max_examples=40, deadline=None)
    def test_induced_on_reach_in_original_order(self, pair):
        core, padded = pair
        rooted = rooted_instance(padded)
        graph = rooted.graph
        assert graph.labels() == core.graph.labels()
        for u in range(graph.num_vertices):
            assert graph.out_neighbors(u) == core.graph.out_neighbors(u)
            assert graph.in_neighbors(u) == core.graph.in_neighbors(u)
        assert graph.num_edges == core.graph.num_edges
        assert rooted_instance(core) is core

    def test_unreachable_terminal_is_kept(self):
        graph = StaticDigraph()
        graph.add_edge("r", "a", 1.0)
        graph.add_edge("island", "a", 1.0)
        graph.add_vertex("lost")
        rooted = rooted_instance(DSTInstance(graph, "r", ("a", "lost")))
        assert rooted.graph.labels() == ["r", "a", "lost"]
        assert rooted.graph.num_edges == 1
        prepared = prepare_instance(
            DSTInstance(graph, "r", ("a", "lost")), require_reachable=False
        )
        assert prepared.num_vertices == 3
        assert math.isinf(prepared.cost(prepared.root, prepared.terminals[1]))


def methods_and_instances():
    """A closure method and an islanded instance it can close whole.

    The DAG closure (forced, or picked by ``auto``) needs the whole
    graph acyclic for the oracle, so those draws are acyclic; Dijkstra
    gets cyclic islands and cores too.
    """
    return st.sampled_from(["auto", "dag", "dijkstra"]).flatmap(
        lambda method: st.tuples(
            st.just(method), islanded_instances(acyclic=method != "dijkstra")
        )
    )


class TestIslands:
    @given(methods_and_instances())
    @settings(max_examples=40, deadline=None)
    def test_solvers_match_whole_graph(self, drawn):
        method, (_, padded) = drawn
        rooted = prepare_with(padded, method)
        whole = whole_graph_prepared(padded, method)
        assert rooted.num_vertices < whole.num_vertices
        for floor in FLOORS:
            with kernel_floor(floor):
                for solver in SOLVERS:
                    for level in (1, 2, 3):
                        assert labelled(rooted, solver(rooted, level)) == labelled(
                            whole, solver(whole, level)
                        ), (solver.__name__, level, floor)

    @given(methods_and_instances())
    @settings(max_examples=30, deadline=None)
    def test_closure_rows_match_whole_graph(self, drawn):
        method, (_, padded) = drawn
        rooted = prepare_with(padded, method)
        whole = whole_graph_prepared(padded, method)
        kept = [
            whole.instance.graph.index_of(label)
            for label in rooted.instance.graph.labels()
        ]
        dropped = np.setdiff1d(np.arange(whole.num_vertices), kept)
        for i, u in enumerate(kept):
            assert np.array_equal(rooted.closure.dist[i], whole.closure.dist[u, kept])
            assert np.isinf(whole.closure.dist[u, dropped]).all()

    @given(methods_and_instances())
    @settings(max_examples=30, deadline=None)
    def test_exact_and_shortest_paths_match_whole_graph(self, drawn):
        method, (_, padded) = drawn
        rooted = prepare_with(padded, method)
        whole = whole_graph_prepared(padded, method)
        for solve in (exact_dst, shortest_paths_heuristic):
            rooted_cost, rooted_edges = solve(rooted)
            whole_cost, whole_edges = solve(whole)
            assert rooted_cost == whole_cost
            assert labelled_edges(rooted, rooted_edges) == labelled_edges(
                whole, whole_edges
            )


class TestInvariance:
    @given(islanded_instances())
    @settings(max_examples=25, deadline=None)
    def test_islands_change_neither_tree_nor_expansions(self, pair):
        core, padded = pair
        plain = prepare_instance(core)
        islanded = prepare_instance(padded)
        for solver in SOLVERS:
            for level in (1, 2, 3):
                totals = set()
                for floor in FLOORS:
                    with kernel_floor(floor):
                        plain_budget, islanded_budget = Budget(), Budget()
                        expected = solver(plain, level, budget=plain_budget)
                        got = solver(islanded, level, budget=islanded_budget)
                    assert labelled(islanded, got) == labelled(plain, expected)
                    assert islanded_budget.expansions == plain_budget.expansions
                    totals.add(plain_budget.expansions)
                # The kernel and scalar paths post identical totals.
                assert len(totals) == 1, (solver.__name__, level)


class TestTemporal:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        zero_duration=st.booleans(),
        start=st.integers(min_value=0, max_value=20),
        length=st.integers(min_value=4, max_value=30),
    )
    @settings(max_examples=40, deadline=None)
    def test_pipeline_matches_whole_graph(self, seed, zero_duration, start, length):
        graph = random_temporal(seed, n=10, m=35, zero_duration=zero_duration)
        root = random.Random(seed).randrange(10)
        window = TimeWindow(start, start + length)
        terminals = sorted(
            (v for v in reachable_set(graph, root, window) if v != root), key=repr
        )
        if not terminals:
            return
        transformed = transform_temporal_graph(graph, root, window)
        instance = transformed.dst_instance(terminals=terminals)
        # Zero durations can leave a cycle outside the root's reach,
        # where "auto" differs by design (TestClosureMethod).
        method = "dijkstra" if zero_duration else "auto"
        rooted = prepare_with(instance, method)
        whole = whole_graph_prepared(instance, method)
        for floor in FLOORS:
            with kernel_floor(floor):
                for solver in SOLVERS:
                    for level in (1, 2):
                        rooted_tree = solver(rooted, level)
                        whole_tree = solver(whole, level)
                        assert labelled(rooted, rooted_tree) == labelled(
                            whole, whole_tree
                        )
                        assert temporal(
                            closure_tree_to_temporal(transformed, rooted, rooted_tree)
                        ) == temporal(
                            closure_tree_to_temporal(transformed, whole, whole_tree)
                        )



class TestClosureMethod:
    @staticmethod
    def chain_with_island(reachable_cycle):
        # Dijkstra sums (0.1 + 0.2) + 0.3 from the source, the DAG
        # recurrence 0.1 + (0.2 + 0.3) from the target.
        graph = StaticDigraph()
        graph.add_edge("r", "a", 0.1)
        graph.add_edge("a", "b", 0.2)
        graph.add_edge("b", "t", 0.3)
        graph.add_edge("x", "y", 1.0)
        graph.add_edge("y", "x", 1.0)
        if reachable_cycle:
            graph.add_edge("b", "x", 1.0)
        return DSTInstance(graph, "r", ("t",))

    def test_cycle_outside_reach_does_not_count(self):
        # The one case where a rooted answer can differ from closing
        # the whole graph: "auto" judges the rooted graph, which is
        # acyclic, so it takes the DAG closure the whole graph (cyclic)
        # would not get.  The answer depends only on the root's reach.
        instance = self.chain_with_island(reachable_cycle=False)
        prepared = prepare_instance(instance)
        assert isinstance(prepared.closure, DagMetricClosure)
        assert prepared.num_vertices == 4
        cost = prepared.cost(prepared.root, prepared.terminals[0])
        assert cost == 0.1 + (0.2 + 0.3)
        whole = whole_graph_prepared(instance, "dijkstra")
        assert whole.cost(whole.root, whole.terminals[0]) == (0.1 + 0.2) + 0.3 != cost
        assert prepare_with(instance, "dag").cost(
            prepared.root, prepared.terminals[0]
        ) == cost

    def test_cycle_inside_reach_selects_dijkstra(self):
        instance = self.chain_with_island(reachable_cycle=True)
        prepared = prepare_instance(instance)
        assert isinstance(prepared.closure, MetricClosure)
        assert prepared.cost(prepared.root, prepared.terminals[0]) == (0.1 + 0.2) + 0.3
        with pytest.raises(ValueError):
            prepare_with(instance, "dag")
