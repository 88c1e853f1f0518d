"""Whole-program interprocedural analysis (``temporal-mst lint --project``).

Layers, bottom to top:

* :mod:`repro.analysis.project.symbols` -- per-module JSON-serializable
  summaries (the unit of caching);
* :mod:`repro.analysis.project.callgraph` -- project-wide symbol
  resolution and the conservative call graph (trampolines, registry
  dispatch, the ExperimentContext cell protocol);
* :mod:`repro.analysis.project.rules` -- REP201 budget-reachability,
  REP202 pickle-safety, REP203 columnar-internals, REP204 never-raise;
* :mod:`repro.analysis.project.cache` -- source-hash summary cache with
  import-SCC invalidation;
* :mod:`repro.analysis.project.baseline` -- ratchet baseline support;
* :mod:`repro.analysis.project.driver` -- orchestration.
"""

from repro.analysis.project.baseline import (
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.project.cache import CacheStats, SummaryCache
from repro.analysis.project.callgraph import ProjectGraph, build_graph
from repro.analysis.project.driver import (
    DEFAULT_PROJECT_EXCLUDES,
    analyze_project,
)
from repro.analysis.project.rules import (
    PROJECT_RULES,
    ProjectRule,
    default_project_rules,
    get_project_rules,
)
from repro.analysis.project.symbols import ModuleSummary, summarize_module

__all__ = [
    "DEFAULT_PROJECT_EXCLUDES",
    "PROJECT_RULES",
    "CacheStats",
    "ModuleSummary",
    "ProjectGraph",
    "ProjectRule",
    "SummaryCache",
    "analyze_project",
    "apply_baseline",
    "build_graph",
    "default_project_rules",
    "get_project_rules",
    "load_baseline",
    "summarize_module",
    "write_baseline",
]
