"""Static weighted digraph substrate: shortest paths, closures, MSTs."""

from repro.static.digraph import StaticDigraph
from repro.static.shortest_paths import dijkstra
from repro.static.closure import MetricClosure, build_metric_closure
from repro.static.dag import (
    DagMetricClosure,
    build_metric_closure_auto,
    build_metric_closure_dag,
    topological_order,
)
from repro.static.mst import kruskal_mst, prim_mst
from repro.static.arborescence import minimum_spanning_arborescence

__all__ = [
    "DagMetricClosure",
    "MetricClosure",
    "StaticDigraph",
    "build_metric_closure",
    "build_metric_closure_auto",
    "build_metric_closure_dag",
    "dijkstra",
    "kruskal_mst",
    "minimum_spanning_arborescence",
    "prim_mst",
    "topological_order",
]
