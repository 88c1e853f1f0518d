"""Table 3 -- MST_a runtime with zero edge durations.

With instantaneous contacts, Algorithm 1 is no longer correct (the
paper's Example 4), so the comparison is Bhadra vs Algorithm 2 only.
The expected shape: Alg2 beats Bhadra on (almost) every dataset, and
the zero-duration reachable sets are at least as large as the non-zero
ones (the paper's DBLP observation -- same-year co-authors become
mutually reachable).
"""

import pytest

from repro.baselines.bhadra import bhadra_msta
from repro.core.msta import msta_stack
from repro.temporal.paths import reachable_set

from _common import fmt_ms, msta_graph, msta_protocol, print_table

DATASETS = ["slashdot", "epinions", "facebook", "enron", "hepph", "dblp"]
ALGORITHMS = [("Bhadra", bhadra_msta), ("Alg2", msta_stack)]

_results = {}


@pytest.fixture(scope="module")
def workloads():
    loaded = {}
    for name in DATASETS:
        graph = msta_graph(name, duration=0)
        loaded[name] = {
            "full": msta_protocol(graph, None),
            "window": msta_protocol(graph, 0.3),
        }
    return loaded


@pytest.mark.parametrize("name", DATASETS)
@pytest.mark.parametrize("setting", ["full", "window"])
@pytest.mark.parametrize("algorithm", [a for a, _ in ALGORITHMS])
def test_table3_msta_runtime(benchmark, workloads, name, setting, algorithm):
    root, window, graph = workloads[name][setting]
    solver = dict(ALGORITHMS)[algorithm]
    graph.edges
    graph.columnar().out_adjacency()
    tree = benchmark.pedantic(
        solver, args=(graph, root, window), rounds=3, iterations=1, warmup_rounds=1
    )
    _results[(name, setting, algorithm)] = (
        benchmark.stats.stats.mean,
        len(tree.vertices),
    )


def test_table3_report(benchmark, workloads):
    benchmark(lambda: None)
    for setting, label in (("full", "[0, inf]"), ("window", "G'")):
        rows = []
        for name in DATASETS:
            cells = []
            reach = None
            for algorithm, solver in ALGORITHMS:
                stored = _results.get((name, setting, algorithm))
                if stored is None:
                    import time

                    root, window, graph = workloads[name][setting]
                    t0 = time.perf_counter()
                    tree = solver(graph, root, window)
                    stored = (time.perf_counter() - t0, len(tree.vertices))
                cells.append(fmt_ms(stored[0]))
                reach = stored[1]
            rows.append([name, reach - 1] + cells)
        print_table(
            f"Table 3: MST_a runtime (ms), zero durations, window {label}",
            ["dataset", "|V_r|", "Bhadra", "Alg2"],
            rows,
        )


def test_table3_zero_durations_extend_reach(benchmark, workloads):
    """The paper's DBLP effect: zero durations never shrink |V_r|."""

    def compare():
        out = {}
        for name in DATASETS:
            root, window, graph = workloads[name]["full"]
            zero_reach = len(reachable_set(graph, root))
            nonzero = graph.with_durations(1)
            nonzero_reach = len(reachable_set(nonzero, root))
            out[name] = (zero_reach, nonzero_reach)
        return out

    reaches = benchmark(compare)
    for name, (zero_reach, nonzero_reach) in reaches.items():
        assert zero_reach >= nonzero_reach, name
