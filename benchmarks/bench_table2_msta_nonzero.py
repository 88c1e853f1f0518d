"""Table 2 -- MST_a runtime with non-zero edge durations.

Compares Bhadra (modified Prim-Dijkstra, [4]), Algorithm 2 (Alg2), and
Algorithm 1 (Alg1) with all durations set to 1 (the paper follows
Wu et al. [27] here), on the full time range ``[0, inf]`` and on the
windowed subgraph ``G'``.

Expected shape (the paper's finding): Alg1 fastest, Alg2 in between,
Bhadra slowest -- the linear scans beat the priority queue.
"""

import pytest

from repro.baselines.bhadra import bhadra_msta
from repro.core.msta import msta_chronological, msta_stack

from _common import fmt_ms, msta_graph, msta_protocol, print_table

DATASETS = ["slashdot", "epinions", "facebook", "enron", "hepph", "dblp"]
ALGORITHMS = [("Bhadra", bhadra_msta), ("Alg2", msta_stack), ("Alg1", msta_chronological)]

_results = {}


@pytest.fixture(scope="module")
def workloads():
    loaded = {}
    for name in DATASETS:
        graph = msta_graph(name, duration=1)
        loaded[name] = {
            "full": msta_protocol(graph, None),
            "window": msta_protocol(graph, 0.3),
        }
    return loaded


@pytest.mark.parametrize("name", DATASETS)
@pytest.mark.parametrize("setting", ["full", "window"])
@pytest.mark.parametrize("algorithm", [a for a, _ in ALGORITHMS])
def test_table2_msta_runtime(benchmark, workloads, name, setting, algorithm):
    root, window, graph = workloads[name][setting]
    solver = dict(ALGORITHMS)[algorithm]
    # warm the cached input formats so only algorithm time is measured,
    # as in the paper (input preparation is shared by all algorithms)
    graph.chronological_edges()
    graph.columnar().out_adjacency()
    tree = benchmark.pedantic(
        solver, args=(graph, root, window), rounds=3, iterations=1, warmup_rounds=1
    )
    _results[(name, setting, algorithm)] = (
        benchmark.stats.stats.mean,
        len(tree.vertices),
    )


def test_table2_report(benchmark, workloads):
    def timed_cell(name, setting, algorithm, solver):
        stored = _results.get((name, setting, algorithm))
        if stored is None:
            import time

            root, window, graph = workloads[name][setting]
            t0 = time.perf_counter()
            tree = solver(graph, root, window)
            stored = (time.perf_counter() - t0, len(tree.vertices))
        return stored

    benchmark(lambda: None)  # keep this report visible under --benchmark-only
    for setting, label in (("full", "[0, inf]"), ("window", "G'")):
        rows = []
        for name in DATASETS:
            means = {}
            reach = None
            for algorithm, solver in ALGORITHMS:
                mean, covered = timed_cell(name, setting, algorithm, solver)
                means[algorithm], reach = fmt_ms(mean), covered
            rows.append([name, reach - 1] + [means[a] for a, _ in ALGORITHMS])
        print_table(
            f"Table 2: MST_a runtime (ms), non-zero durations, window {label}",
            ["dataset", "|V_r|", "Bhadra", "Alg2", "Alg1"],
            rows,
        )
    # the headline shape: Alg1 beats Bhadra on the full window everywhere
    for name in DATASETS:
        bhadra = _results.get((name, "full", "Bhadra"))
        alg1 = _results.get((name, "full", "Alg1"))
        if bhadra and alg1:
            assert alg1[0] <= bhadra[0] * 1.5, f"Alg1 unexpectedly slow on {name}"
