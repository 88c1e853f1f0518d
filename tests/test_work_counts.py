"""Exact work counts, pinned: the host-independent performance gate.

Wall times drift with the host; the work a solver does does not.  The
paper's Table 5 gap is a claim about work -- Charikar's
``O(n^i k^{2i})`` against Algorithm 4's ``O(n^i k^i)`` -- and every
count below is one the code reports the same way on any machine:

* ``Budget.expansions`` of Charik/Alg4/Alg6 at every level up to each
  quick ``MST_w`` workload's caps, beside the size of the reach-only
  transformed graph and of its closure;
* the same on one instance above ``KERNEL_MIN_CELLS``, so the batched
  density scans' tick totals are pinned too;
* the rung :func:`run_with_fallback` answers with under fixed expansion
  ceilings, and the expansions it spent getting there;
* Charik-3 and Alg6-3 on Table 7's quick b-instances;
* the closure reads :class:`CountingInstance` tallies for Charik, Alg4
  and Alg6 at level 2 on quick ``MST_w`` configs and at level 3 on a
  Table 7 instance -- Charikar's ``A^1(k', v, X)`` reads ``v``'s
  terminal row once per ``k'``, the faithful baseline's extra work;
* Algorithm 2's stack pops on zero-duration graphs (Table 3's case).

Every literal is the exact count the code produced when it was
recorded.  A change that moves one -- a solver doing more or less work,
a closure of another size, another answering rung -- updates the
literal in the same change and says why.  ``make work-counts`` runs
this file alone; wall times are recorded by ``benchmarks/e2e``.
"""

import pytest

from repro.core.msta import msta_stack
from repro.experiments.steinlib_tables import QUICK_INSTANCES, _prepare
from repro.experiments.workloads import (
    MSTW_WORKLOADS,
    QUICK_MSTW_WORKLOADS,
    msta_graph,
    msta_protocol,
    mstw_workload,
)
from repro.resilience.budget import Budget
from repro.resilience.fallback import run_with_fallback
from repro.steiner.charikar import charikar_dst
from repro.steiner.improved import improved_dst
from repro.steiner.instrumentation import count_operations
from repro.steiner.kernels import eligible
from repro.steiner.pruned import pruned_dst

SOLVERS = {
    "Charik": (charikar_dst, "charikar_max_level"),
    "Alg4": (improved_dst, "improved_max_level"),
    "Alg6": (pruned_dst, "pruned_max_level"),
}

#: Per quick config: ``|V(𝔾)|`` of the reach-only transformation, the
#: closure's cell count, ``k``, and each solver's expansions at levels
#: ``1..cap``.
QUICK_MSTW_COUNTS = {
    "slashdot": {
        "vertices": 54, "closure_cells": 2916, "terminals": 18,
        "Charik": (1, 3834), "Alg4": (1, 756), "Alg6": (1, 222),
    },
    "epinions": {
        "vertices": 41, "closure_cells": 1681, "terminals": 16,
        "Charik": (1, 3526), "Alg4": (1, 820), "Alg6": (1, 148),
    },
    "facebook": {
        "vertices": 149, "closure_cells": 22201, "terminals": 10,
        "Charik": (1, 5662), "Alg4": (1, 2086), "Alg6": (1, 372),
    },
    "enron": {
        "vertices": 103, "closure_cells": 10609, "terminals": 9,
        "Charik": (1, 4120), "Alg4": (1, 1030), "Alg6": (1, 278),
    },
    "hepph": {
        "vertices": 188, "closure_cells": 35344, "terminals": 11,
        "Charik": (1, 6956), "Alg4": (1, 1880), "Alg6": (1, 802),
    },
    "dblp": {
        "vertices": 55, "closure_cells": 3025, "terminals": 22,
        "Charik": (1, 9955), "Alg4": (1, 1430), "Alg6": (1, 298),
    },
    "phone": {
        "vertices": 82, "closure_cells": 6724, "terminals": 7,
        "Charik": (1, 1640), "Alg4": (1, 656), "Alg6": (1, 392),
    },
}

#: The full-size facebook config: ``296 * 16`` cells clear the kernel
#: floor, so its level-2 and level-3 scans run batched.
KERNEL_COUNTS = {
    "vertices": 296, "closure_cells": 87616, "terminals": 16,
    "Charik": (1, 32856), "Alg4": (1, 5328), "Alg6": (1, 1050, 355516),
}

#: ``(level, include_exact, max_expansions)`` on quick phone ->
#: ``(answering rung, every attempt's status, expansions spent)``.  A
#: tripped rung leaves the shared budget exceeded, so the rungs between
#: it and the final heuristic are skipped.
FALLBACK_COUNTS = {
    (1, False, 0): ("shortest-paths", ("budget_exceeded", "ok"), 1),
    (1, False, 1): ("pruned-1", ("ok",), 1),
    (2, False, 391): ("shortest-paths", ("budget_exceeded", "skipped", "ok"), 392),
    (2, False, 392): ("pruned-2", ("ok",), 392),
    (3, False, 5000): (
        "shortest-paths",
        ("budget_exceeded", "skipped", "skipped", "ok"),
        5042,
    ),
    (3, False, 100000): ("pruned-3", ("ok",), 32463),
    (2, True, 100): (
        "shortest-paths",
        ("budget_exceeded", "skipped", "skipped", "ok"),
        101,
    ),
    (2, True, 120): ("exact", ("ok",), 120),
}

#: Table 7's quick instances: ``(Charik-3, Alg6-3)`` expansions.
TABLE7_COUNTS = {
    "b01": (56580, 5264),
    "b05": (175320, 5819),
    "b09": (441945, 14866),
}

#: ``(cost lookups, row scans)`` that :class:`CountingInstance` tallies
#: per solver: at level 2 on quick ``MST_w`` configs (phone has the
#: fewest terminals, dblp the most) and at level 3 on Table 7's quick
#: b01.  The proxy is not a ``PreparedInstance``, so every scan runs
#: scalar; a row scan is one ``cost_row``/``terminal_row`` read.
COUNTED_READS = {
    ("phone", 2): {"Charik": (0, 1313), "Alg4": (0, 329), "Alg6": (0, 200)},
    ("dblp", 2): {"Charik": (0, 9241), "Alg4": (0, 716), "Alg6": (0, 162)},
    ("b01", 3): {"Charik": (0, 40891), "Alg4": (0, 5251), "Alg6": (0, 2765)},
}

#: Table 3's quick protocol (zero durations, scale 0.4, window
#: ``[0, inf]``): ``(root, |E|, stack pops, tree edges)`` of Algorithm 2.
STACK_COUNTS = {
    "phone": (0, 5280, 2614, 23),
    "enron": (0, 2340, 1441, 113),
}


def _config(configs, name):
    return next(c for c in configs if c.name == name)


def _mstw_counts(config):
    workload = mstw_workload(config)
    prepared = workload.prepared
    counts = {
        "vertices": workload.transformed.digraph.num_vertices,
        "closure_cells": prepared.closure.dist.size,
        "terminals": prepared.num_terminals,
    }
    for name, (solver, cap) in SOLVERS.items():
        expansions = []
        for level in range(1, getattr(config, cap) + 1):
            budget = Budget()
            solver(prepared, level, budget=budget)
            expansions.append(budget.expansions)
        counts[name] = tuple(expansions)
    return counts


def test_every_quick_config_is_pinned():
    assert sorted(c.name for c in QUICK_MSTW_WORKLOADS) == sorted(QUICK_MSTW_COUNTS)


@pytest.mark.parametrize("name", sorted(QUICK_MSTW_COUNTS))
def test_quick_mstw_counts(name):
    config = _config(QUICK_MSTW_WORKLOADS, name)
    assert _mstw_counts(config) == QUICK_MSTW_COUNTS[name]


def test_kernel_scan_counts():
    config = _config(MSTW_WORKLOADS, "facebook")
    assert eligible(mstw_workload(config).prepared)
    assert _mstw_counts(config) == KERNEL_COUNTS


@pytest.mark.parametrize("case", sorted(FALLBACK_COUNTS))
def test_fallback_rung(case):
    level, include_exact, max_expansions = case
    prepared = mstw_workload(_config(QUICK_MSTW_WORKLOADS, "phone")).prepared
    budget = Budget(max_expansions=max_expansions)
    outcome = run_with_fallback(
        prepared, budget=budget, level=level, include_exact=include_exact
    )
    statuses = tuple(attempt.status for attempt in outcome.attempts)
    assert (outcome.rung, statuses, budget.expansions) == FALLBACK_COUNTS[case]


def test_table7_quick_counts():
    assert sorted(QUICK_INSTANCES) == sorted(TABLE7_COUNTS)
    prepared = _prepare(QUICK_INSTANCES)
    counts = {}
    for name in QUICK_INSTANCES:
        charik, alg6 = Budget(), Budget()
        charikar_dst(prepared[name], 3, budget=charik)
        pruned_dst(prepared[name], 3, budget=alg6)
        counts[name] = (charik.expansions, alg6.expansions)
    assert counts == TABLE7_COUNTS


@pytest.mark.parametrize("case", sorted(COUNTED_READS))
def test_counted_closure_reads(case):
    name, level = case
    if name in QUICK_INSTANCES:
        prepared = _prepare(QUICK_INSTANCES)[name]
    else:
        prepared = mstw_workload(_config(QUICK_MSTW_WORKLOADS, name)).prepared
    counts = {}
    for solver_name, (solver, _) in SOLVERS.items():
        tally = count_operations(solver, prepared, level)
        counts[solver_name] = (tally.cost_lookups, tally.row_scans)
    assert counts == COUNTED_READS[case]


@pytest.mark.parametrize("name", sorted(STACK_COUNTS))
def test_algorithm2_stack_pops(name):
    graph = msta_graph(name, 0.0, scale=0.4)
    root, window, sub = msta_protocol(graph, None)
    budget = Budget()
    tree = msta_stack(sub, root, window, budget=budget)
    counts = (root, graph.num_edges, budget.expansions, tree.num_edges)
    assert counts == STACK_COUNTS[name]
