"""Public API surface checks.

Locks down the names downstream users import, so accidental removals or
renames fail loudly here rather than in user code.
"""

import importlib

import pytest


EXPECTED_TOP_LEVEL = {
    "TemporalEdge",
    "TemporalGraph",
    "TemporalSpanningTree",
    "TemporalSteinerResult",
    "TimeWindow",
    "TransformedGraph",
    "MSTwResult",
    "minimum_spanning_tree_a",
    "minimum_spanning_tree_w",
    "minimum_steiner_tree_w",
    "msta_chronological",
    "msta_stack",
    "transform_temporal_graph",
    "ReproError",
    "GraphFormatError",
    "UnreachableRootError",
    "ZeroDurationError",
}


def test_top_level_exports():
    import repro

    assert EXPECTED_TOP_LEVEL <= set(repro.__all__)
    for name in repro.__all__:
        assert hasattr(repro, name), name


@pytest.mark.parametrize(
    "module,names",
    [
        ("repro.temporal", ["TemporalEdgeIndex", "earliest_arrival_times",
                            "information_latency", "iter_snapshots"]),
        ("repro.static", ["StaticDigraph", "build_metric_closure",
                          "build_metric_closure_dag",
                          "minimum_spanning_arborescence"]),
        ("repro.steiner", ["charikar_dst", "improved_dst", "pruned_dst",
                           "exact_dst_cost",
                           "prepare_instance", "combined_lower_bound"]),
        ("repro.core", ["OnlineMSTa", "sliding_msta", "cluster_by_weight",
                        "sweep", "SweepResult", "WindowMeasurement",
                        "tree_to_json", "tree_from_json"]),
        ("repro.incremental", ["SlidingEngine"]),
        ("repro.baselines", ["bhadra_msta", "brute_force_mstw_weight",
                             "realize_static_tree"]),
        ("repro.hardness", ["max_leaf_spanning_tree", "max_leaf_to_mstw_graph"]),
        ("repro.datasets", ["load_dataset", "figure1_graph",
                            "weight_cascade_weights"]),
        ("repro.experiments", ["run_experiment", "EXPERIMENTS", "TableResult"]),
    ],
)
def test_subpackage_exports(module, names):
    mod = importlib.import_module(module)
    for name in names:
        assert hasattr(mod, name), f"{module}.{name} missing"
        assert name in mod.__all__ or module == "repro.experiments" or not hasattr(
            mod, "__all__"
        ) or name in getattr(mod, "__all__"), name


def test_all_lists_are_sorted_ish_and_resolvable():
    for module in (
        "repro",
        "repro.temporal",
        "repro.static",
        "repro.steiner",
        "repro.core",
        "repro.incremental",
        "repro.baselines",
        "repro.hardness",
        "repro.datasets",
        "repro.experiments",
    ):
        mod = importlib.import_module(module)
        exported = getattr(mod, "__all__", [])
        for name in exported:
            assert hasattr(mod, name), f"{module}.{name} in __all__ but missing"


def test_version_string():
    import repro

    assert repro.__version__ == "1.0.0"


def test_docstrings_on_public_callables():
    """Every public function/class in the core modules is documented."""
    import repro

    for name in repro.__all__:
        obj = getattr(repro, name)
        if callable(obj):
            assert obj.__doc__, f"{name} lacks a docstring"
