"""Validation bench -- the O(M) claim of Theorems 1 and 2.

Sweeps the temporal edge count M at a fixed vertex count and measures
Algorithms 1 and 2; both should scale (near-)linearly, while the
Bhadra baseline picks up its log factor.  Complements Tables 2/3,
which compare datasets of fixed size.
"""

import pytest

from repro.baselines.bhadra import bhadra_msta
from repro.core.msta import msta_chronological, msta_stack
from repro.temporal.generators import uniform_temporal_graph

from _common import fmt_ms, print_table

EDGE_COUNTS = [2_000, 4_000, 8_000, 16_000]
NUM_VERTICES = 400

SOLVERS = {
    "Alg1": msta_chronological,
    "Alg2": msta_stack,
    "Bhadra": bhadra_msta,
}

_results = {}


def _graph(num_edges):
    return uniform_temporal_graph(
        NUM_VERTICES, num_edges, time_range=5_000, seed=num_edges
    )


@pytest.mark.parametrize("num_edges", EDGE_COUNTS)
@pytest.mark.parametrize("solver_name", sorted(SOLVERS))
def test_msta_scaling(benchmark, num_edges, solver_name):
    graph = _graph(num_edges)
    graph.chronological_edges()
    graph.columnar().out_adjacency()
    tree = benchmark.pedantic(
        SOLVERS[solver_name],
        args=(graph, 0),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    _results[(solver_name, num_edges)] = benchmark.stats.stats.mean
    assert tree.root == 0


def test_msta_scaling_report(benchmark):
    benchmark(lambda: None)
    rows = []
    for solver_name in ("Bhadra", "Alg2", "Alg1"):
        rows.append(
            [solver_name]
            + [
                fmt_ms(_results.get((solver_name, m), float("nan")))
                for m in EDGE_COUNTS
            ]
        )
    print_table(
        f"MST_a scaling: runtime (ms) vs M at |V|={NUM_VERTICES}",
        ["alg"] + [f"M={m}" for m in EDGE_COUNTS],
        rows,
    )
    # Linearity: Alg1 always scans all M edges, so an 8x edge growth
    # should cost no more than ~16x (2x slack for noise).  Alg2 is
    # *output-sensitive* (it only scans edges of reached vertices), so
    # its growth also tracks |V_r| and is not asserted here.
    t_small = _results.get(("Alg1", EDGE_COUNTS[0]))
    t_large = _results.get(("Alg1", EDGE_COUNTS[-1]))
    if t_small and t_large:
        growth = EDGE_COUNTS[-1] / EDGE_COUNTS[0]
        assert t_large / t_small < 2 * growth, "Alg1 not linear"
    # Both linear algorithms beat the baseline at every size.
    for num_edges in EDGE_COUNTS:
        bhadra = _results.get(("Bhadra", num_edges))
        for solver_name in ("Alg1", "Alg2"):
            ours = _results.get((solver_name, num_edges))
            if bhadra and ours:
                assert ours < bhadra, f"{solver_name} at M={num_edges}"
