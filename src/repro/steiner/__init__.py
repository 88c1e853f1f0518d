"""Directed Steiner tree (DST) solvers.

* :mod:`repro.steiner.charikar` -- Algorithm 3, the Charikar et al.
  baseline ``A^i(k, r, X)``.
* :mod:`repro.steiner.improved` -- Algorithms 4+5, the paper's improved
  ``Ã^i`` / ``B^i`` pair with the same approximation ratio and
  ``O(n^i k^i)`` time.
* :mod:`repro.steiner.pruned` -- Algorithm 6, density-based vertex
  ordering pruning on top of Algorithm 4.
* :mod:`repro.steiner.exact` -- exact directed Dreyfus-Wagner subset DP
  used to certify optima on small instances (Tables 7/8).
* :mod:`repro.steiner.steinlib` -- SteinLib ``.stp`` parsing/writing and
  the synthetic ``b``-series instance generator.
"""

from repro.steiner.instance import DSTInstance, PreparedInstance, prepare_instance
from repro.steiner.tree import ClosureTree, expand_closure_tree
from repro.steiner.charikar import charikar_dst
from repro.steiner.improved import improved_dst
from repro.steiner.pruned import pruned_dst
from repro.steiner.exact import exact_dst_cost, exact_dst
from repro.steiner.bounds import combined_lower_bound
from repro.steiner.heuristics import (
    arborescence_prune_heuristic,
    shortest_paths_heuristic,
)
from repro.steiner.instrumentation import CountingInstance, count_operations

__all__ = [
    "ClosureTree",
    "arborescence_prune_heuristic",
    "DSTInstance",
    "PreparedInstance",
    "CountingInstance",
    "charikar_dst",
    "combined_lower_bound",
    "count_operations",
    "exact_dst",
    "exact_dst_cost",
    "expand_closure_tree",
    "improved_dst",
    "prepare_instance",
    "pruned_dst",
    "shortest_paths_heuristic",
]
