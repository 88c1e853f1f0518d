"""Property-based tests (hypothesis) for the DST solvers.

Random rooted digraphs with float weights (ties have measure zero)
exercise Theorem 7 / Theorem 9 (algorithm equivalence), the
approximation guarantee against the exact solver, and cover validity.
"""

from itertools import combinations

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.static.digraph import StaticDigraph
from repro.steiner.charikar import charikar_dst
from repro.steiner.exact import exact_dst_cost
from repro.steiner.improved import improved_dst
from repro.steiner.instance import DSTInstance, approximation_ratio, prepare_instance
from repro.steiner.pruned import pruned_dst
from repro.steiner.tree import expand_closure_tree, validate_covering_tree


@st.composite
def dst_instances(draw, max_vertices=10, max_extra_edges=14, max_terminals=4):
    n = draw(st.integers(min_value=3, max_value=max_vertices))
    g = StaticDigraph(range(n))
    # backbone guarantees reachability of every vertex from root 0
    for v in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=v - 1))
        w = draw(st.floats(min_value=0.1, max_value=10, allow_nan=False))
        g.add_edge(parent, v, w)
    extra = draw(st.integers(min_value=0, max_value=max_extra_edges))
    for _ in range(extra):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u == v:
            continue
        w = draw(st.floats(min_value=0.1, max_value=10, allow_nan=False))
        g.add_edge(u, v, w)
    k = draw(st.integers(min_value=1, max_value=min(max_terminals, n - 1)))
    terminals = draw(
        st.lists(
            st.integers(min_value=1, max_value=n - 1),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    return prepare_instance(DSTInstance(g, 0, tuple(terminals)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(prepared=dst_instances(), level=st.integers(min_value=1, max_value=3))
def test_theorem7_and_9_equivalence(prepared, level):
    c = charikar_dst(prepared, level)
    i4 = improved_dst(prepared, level)
    a6 = pruned_dst(prepared, level)
    assert c.cost == pytest.approx(i4.cost)
    assert c.cost == pytest.approx(a6.cost)


@settings(max_examples=40, deadline=None)
@given(prepared=dst_instances(), level=st.integers(min_value=1, max_value=3))
def test_approximation_guarantee(prepared, level):
    approx = pruned_dst(prepared, level).cost
    opt = exact_dst_cost(prepared)
    k = prepared.num_terminals
    assert opt <= approx + 1e-6
    assert approx <= approximation_ratio(level, k) * opt + 1e-6


def _instance(n, edges, terminals):
    graph = StaticDigraph(range(n))
    for u, v, w in edges:
        graph.add_edge(u, v, w)
    return prepare_instance(DSTInstance(graph, 0, terminals))


#: Every solver's level-2 tree is 2->3, 2->1 and 0->2 at cost 5.5; the
#: closure edge 0->2 expands to 0->1->2, and keeping only the cheapest
#: edge into 1 (2->1 over 0->1) would cut the cycle 1->2->1 off from
#: the root.
CYCLIC_EXPANSION = _instance(
    5,
    [
        (0, 1, 2.0), (0, 2, 5.0), (0, 3, 2.0), (0, 4, 1.0),
        (1, 2, 2.0), (2, 3, 0.5), (2, 1, 1.0),
    ],
    (1, 2, 3),
)


@settings(max_examples=40, deadline=None)
@given(prepared=dst_instances(), level=st.integers(min_value=1, max_value=3))
@example(prepared=CYCLIC_EXPANSION, level=2)
def test_cover_complete_and_expandable(prepared, level):
    tree = improved_dst(prepared, level)
    assert tree.covered == frozenset(prepared.terminals)
    cost, edges = expand_closure_tree(prepared, tree)
    assert validate_covering_tree(prepared, edges)
    assert cost <= tree.cost + 1e-9


def _partial_optimum(prepared, j):
    """The cheapest tree covering some ``j`` of the terminals, exactly."""
    graph, root = prepared.instance.graph, prepared.instance.root
    return min(
        exact_dst_cost(prepare_instance(DSTInstance(graph, root, subset)))
        for subset in combinations(prepared.instance.terminals, j)
    )


#: Covering 2 of {3, 4, 7} greedily costs 6.0 (0->4 at density 2, then
#: 0->3), covering all 3 costs 5.5 (0->3 with 3->4, 3->7 at density
#: 11/6): a greedy's partial cost is not monotone in k.
NON_MONOTONE = _instance(
    8,
    [
        (0, 1, 1.0), (0, 2, 1.0), (0, 3, 4.0), (3, 4, 0.5),
        (0, 5, 1.0), (0, 6, 1.0), (3, 7, 1.0), (0, 4, 2.0),
    ],
    (3, 7, 4),
)


@settings(max_examples=30, deadline=None)
@given(prepared=dst_instances(), level=st.integers(min_value=1, max_value=3))
@example(prepared=NON_MONOTONE, level=2)
def test_partial_k_within_guarantee(prepared, level):
    """A partial solve covers k terminals within the guarantee for k.

    The claim is against the exact k-cover optimum, ``OPT_k``: covering
    more terminals is never cheaper *optimally*, but the greedy's cost
    need not be monotone in k (see :data:`NON_MONOTONE`).
    """
    for j in range(1, prepared.num_terminals + 1):
        tree = pruned_dst(prepared, level, k=j)
        assert len(tree.covered) >= j
        opt = _partial_optimum(prepared, j)
        assert opt <= tree.cost + 1e-6
        assert tree.cost <= approximation_ratio(level, j) * opt + 1e-6


@settings(max_examples=30, deadline=None)
@given(prepared=dst_instances())
def test_exact_lower_bounds_every_level(prepared):
    opt = exact_dst_cost(prepared)
    for level in (1, 2, 3):
        assert opt <= charikar_dst(prepared, level).cost + 1e-6
