"""Byte-identity suite for the batched DST density kernels (PR 10).

The vectorised solver cores in :mod:`repro.steiner.kernels` are only
admissible if they return *exactly* what the scalar scans returned --
same trees, same cost floats, same budget trips, same fallback
caveats.  These properties pin that against the verbatim
pre-kernel solvers frozen in :mod:`tests.legacy`
(``scalar_charikar_dst`` / ``scalar_improved_dst`` /
``scalar_pruned_dst``), and the batched candidate scan against the
per-vertex scalar scan below (:func:`_scalar_best_candidate`).

The kernel dispatch has a size floor (``KERNEL_MIN_CELLS``): above it
each level-2 scan is one batched pass, below it Algorithm 4's level-3
scans run their level-2 children in lockstep
(:class:`repro.steiner.kernels.SubSolves`).  Algorithm 6's level-3
walks take lockstep children at every floor.  The solver properties
check every example at floor 0 (the small generated fixtures on the
level-2 kernels, including walks long enough to cross the pruned
scan's scalar head into its chunked steps) and at the default floor,
at levels up to 4, and assert that the lockstep children ran where the
dispatch says they must.  Seeded level-3 instances above the default
floor pin Algorithm 6's lockstep walks there, budgets included.  Below
the floor every level-2 scan is scalar and builds only its winner's
tree: seeded instances in the quick tables' terminal range pin those
scans at levels 2 and 3 under draining budgets, and
:class:`TestLeanScorers` pins each candidate's score to the density of
the tree the recursive form built.

CI re-runs this file next to ``test_property_columnar.py`` and fails
the job if any test here is skipped; ``make identity`` runs that step.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.errors import BudgetExceededError
from repro.core.mstw import prepare_mstw_instance
from repro.experiments.runner import DegradedCell, OverBudgetCell
from tests.legacy import (
    scalar_charikar_dst,
    scalar_improved_dst,
    scalar_pruned_dst,
)
from repro.resilience import fallback
from repro.resilience.budget import Budget
from repro.steiner import kernels
from repro.steiner.charikar import charikar_dst
from repro.steiner.improved import improved_dst
from repro.steiner.pruned import pruned_dst
from repro.temporal.edge import TemporalEdge
from repro.temporal.graph import TemporalGraph

SOLVER_PAIRS = [
    (charikar_dst, scalar_charikar_dst),
    (improved_dst, scalar_improved_dst),
    (pruned_dst, scalar_pruned_dst),
]


#: The shipped size floor, captured before any test pins it.
DEFAULT_FLOOR = kernels.KERNEL_MIN_CELLS

#: Floors the solver properties check every example at: 0 puts every
#: instance on the level-2 kernels, the default keeps the small
#: fixtures below it.
FLOORS = [0, DEFAULT_FLOOR]


@contextmanager
def lockstep_calls():
    """Record ``(pruned, children)`` for each lockstep ``SubSolves.solve``."""
    calls = []
    original = kernels.SubSolves.solve

    def counting(self, vertices):
        calls.append((self._pruned, len(vertices)))
        return original(self, vertices)

    kernels.SubSolves.solve = counting
    try:
        yield calls
    finally:
        kernels.SubSolves.solve = original


@contextmanager
def chunk_steps():
    """Record the ticks of every batched ``PrunedScan`` step."""
    steps = []
    original = kernels.PrunedScan._step_chunk

    def counting(self):
        ticks = original(self)
        steps.append(ticks)
        return ticks

    kernels.PrunedScan._step_chunk = counting
    try:
        yield steps
    finally:
        kernels.PrunedScan._step_chunk = original


@contextmanager
def walk_lengths():
    """Record the longest walk prefix of each later lockstep Alg6 step."""
    lengths = []
    original = kernels.SubSolves._walk

    def counting(self, *args):
        result = original(self, *args)
        lengths.append(int(result[-1].max()))
        return result

    kernels.SubSolves._walk = counting
    try:
        yield lengths
    finally:
        kernels.SubSolves._walk = original


@contextmanager
def kernel_floor(value):
    """Temporarily pin ``KERNEL_MIN_CELLS`` (0 = kernels always on)."""
    previous = kernels.KERNEL_MIN_CELLS
    kernels.KERNEL_MIN_CELLS = value
    try:
        yield
    finally:
        kernels.KERNEL_MIN_CELLS = previous


@st.composite
def reachable_graphs(draw, max_vertices=7, max_extra=10, unit_weights=False):
    """Temporal graphs where every vertex is reachable from root 0."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    edges = []
    arrival = {0: 0}
    for v in range(1, n):
        parent = draw(st.sampled_from(sorted(arrival)))
        start = arrival[parent] + draw(st.integers(min_value=0, max_value=3))
        duration = draw(st.integers(min_value=0, max_value=2))
        weight = 1 if unit_weights else draw(st.integers(min_value=1, max_value=9))
        edges.append(TemporalEdge(parent, v, start, start + duration, weight))
        arrival[v] = start + duration
    for _ in range(draw(st.integers(min_value=0, max_value=max_extra))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u == v:
            continue
        start = draw(st.integers(min_value=0, max_value=12))
        duration = draw(st.integers(min_value=0, max_value=2))
        weight = 1 if unit_weights else draw(st.integers(min_value=1, max_value=9))
        edges.append(TemporalEdge(u, v, start, start + duration, weight))
    return TemporalGraph(edges, vertices=range(n))


def _random_reachable_graph(seed, n):
    """A seeded ``n``-vertex graph, big enough to cross chunk bounds."""
    rng = random.Random(seed)
    edges = []
    arrival = {0: 0}
    for v in range(1, n):
        parent = rng.choice(sorted(arrival))
        start = arrival[parent] + rng.randint(0, 3)
        duration = rng.randint(0, 2)
        edges.append(
            TemporalEdge(parent, v, start, start + duration, rng.randint(1, 9))
        )
        arrival[v] = start + duration
    for _ in range(3 * n):
        u, v = rng.randint(0, n - 1), rng.randint(0, n - 1)
        if u == v:
            continue
        start = rng.randint(0, 12)
        edges.append(TemporalEdge(u, v, start, start + rng.randint(0, 2),
                                  rng.randint(1, 9)))
    return TemporalGraph(edges, vertices=range(n))


def _scalar_best_candidate(prepared, k, remaining, source):
    """The per-vertex scalar scan :func:`kernels.best_prefix_candidate` batches.

    Each vertex's best prefix of its terminal row, then the first
    vertex strictly below the running best: the row-major first
    occurrence of the minimum density.
    """
    incoming_row = prepared.cost_row(source)
    best_vertex = 0
    best_length = 0
    best_density = math.inf
    for vertex in range(prepared.num_vertices):
        length, density = kernels.best_prefix(
            prepared.terminal_row(vertex), remaining, k, incoming_row[vertex]
        )
        if density < best_density:
            best_vertex = vertex
            best_length = length
            best_density = density
    if best_length == 0:
        return 0, 0, math.inf
    return best_vertex, best_length, best_density


def _fingerprint(tree):
    return tree.edges, tree.cost, tuple(sorted(tree.covered))


def _outcome(solver, prepared, level, max_expansions=None, **kwargs):
    """Everything observable about one solve, trips included."""
    budget = (
        None if max_expansions is None else Budget(max_expansions=max_expansions)
    )
    try:
        tree = solver(prepared, level, budget=budget, **kwargs)
    except BudgetExceededError:
        return ("trip",)
    return ("ok", _fingerprint(tree), None if budget is None else budget.expansions)


# ----------------------------------------------------------------------
# Solver-level identity: kernels vs the frozen scalar ladder
# ----------------------------------------------------------------------
def _pairs(level):
    """The solver pairs compared at ``level``.

    Charikar's ``A^4`` takes seconds per example in both versions and
    runs no kernel below level 2's scan, so level 4 compares the
    improved and pruned solvers only.
    """
    return SOLVER_PAIRS if level < 4 else SOLVER_PAIRS[1:]


def _assert_lockstep_ran(floor, level, calls):
    """Which level >= 3 solves must have used the lockstep children.

    Algorithm 6 (``pruned``) at every floor; Algorithm 4 only below it
    (the small fixtures are below the default floor, and floor 0 puts
    them above it).
    """
    if level >= 3:
        assert any(pruned for pruned, _ in calls), "Alg6 lockstep never ran"
        alg4 = any(not pruned for pruned, _ in calls)
        assert alg4 == bool(floor), "Alg4 lockstep dispatch is off"


class TestSolverIdentity:
    """Every property checks each example at every floor in
    :data:`FLOORS`: at 0 the level-2 kernels run on every instance, at
    the default the small fixtures stay below it and Algorithm 4's
    level >= 3 scans run their children in lockstep.  Algorithm 6's
    level-3 walks run them in lockstep at both."""

    @settings(max_examples=30, deadline=None)
    @given(graph=reachable_graphs(), level=st.sampled_from([1, 2, 3, 4]))
    def test_trees_match_scalar(self, graph, level):
        _, prepared = prepare_mstw_instance(graph, 0)
        for floor in FLOORS:
            with kernel_floor(floor), lockstep_calls() as calls:
                for new, old in _pairs(level):
                    assert _outcome(new, prepared, level) == _outcome(
                        old, prepared, level
                    ), (floor, new.__name__)
            _assert_lockstep_ran(floor, level, calls)

    @settings(max_examples=20, deadline=None)
    @given(
        graph=reachable_graphs(),
        level=st.sampled_from([2, 3, 4]),
        max_expansions=st.integers(min_value=1, max_value=60),
    )
    def test_budget_trips_match_scalar(self, graph, level, max_expansions):
        _, prepared = prepare_mstw_instance(graph, 0)
        for floor in FLOORS:
            with kernel_floor(floor), lockstep_calls() as calls:
                for new, old in _pairs(level):
                    assert _outcome(
                        new, prepared, level, max_expansions
                    ) == _outcome(
                        old, prepared, level, max_expansions
                    ), (floor, new.__name__)
            _assert_lockstep_ran(floor, level, calls)

    def test_long_walks_match_scalar(self):
        """Seeded instances past the scalar head and chunk boundaries.

        ``n`` well above ``PRUNED_SCALAR_HEAD + PRUNED_CHUNK`` drives
        the pruned scan through its scalar head *and* several batched
        chunks.  Level 2 only: the frozen scalar oracle is quadratic in
        Python at level 3, and the level-3 inner scans reuse the same
        level-2 walk anyway (the hypothesis properties above cover
        level 3 on small graphs).
        """
        for seed in range(3):
            graph = _random_reachable_graph(seed, n=70)
            _, prepared = prepare_mstw_instance(graph, 0)
            with kernel_floor(0), chunk_steps() as steps:
                new = pruned_dst(prepared, 2)
            assert steps, "the walk never left the scalar head"
            old = scalar_pruned_dst(prepared, 2)
            assert _fingerprint(new) == _fingerprint(old)

    def test_level3_lockstep_walks_match_scalar(self):
        """Seeded level-3 instances below the floor.

        The first top-level w-iteration evaluates every vertex, so with
        well over ``LOCKSTEP_CHUNK`` of them the walk's prefetch solves
        at least two chunks of lockstep children.
        """
        for seed in range(2):
            graph = _random_reachable_graph(seed, n=25)
            _, prepared = prepare_mstw_instance(graph, 0)
            assert kernels.lockstep(prepared)
            with lockstep_calls() as calls:
                new = pruned_dst(prepared, 3)
            old = scalar_pruned_dst(prepared, 3)
            assert _fingerprint(new) == _fingerprint(old)
            assert calls[:2] == [
                (True, kernels.LOCKSTEP_CHUNK),
                (True, kernels.LOCKSTEP_CHUNK * kernels.PRUNED_CHUNK_GROWTH),
            ]

    def test_level3_lockstep_walks_above_the_floor_match_scalar(self):
        """Seeded level-3 instances above the default floor.

        Algorithm 6's level-3 walk takes lockstep children here too, and
        its later steps evaluate each child only along its walk prefix;
        on these instances some prefixes run past the first
        ``LOCKSTEP_CHUNK`` positions into a second chunk.  Trees and
        budget trips match the scalar oracle at budgets that trip early,
        mid-solve and just short of the end.  The solve reads no
        per-child closure or terminal rows: the memos hold only the
        root's row and the rows the winners' trees are rebuilt from (at
        most one per covered terminal), where one level-2 scan per
        child filled one row per child.
        """
        for seed in range(3):
            graph = _random_reachable_graph(seed, n=40)
            _, prepared = prepare_mstw_instance(graph, 0)
            terminals = prepared.num_terminals
            assert prepared.num_vertices * terminals >= DEFAULT_FLOOR
            assert kernels.eligible(prepared)
            assert not kernels.lockstep(prepared)
            with lockstep_calls() as calls, walk_lengths() as lengths:
                full = _outcome(pruned_dst, prepared, 3, 10**9)
            assert calls and all(pruned for pruned, _ in calls)
            assert max(lengths) > kernels.LOCKSTEP_CHUNK
            assert len(prepared._cost_rows) <= 1 + terminals
            assert len(prepared._terminal_rows) <= terminals
            assert terminals < prepared.num_vertices // 3
            assert full == _outcome(scalar_pruned_dst, prepared, 3, 10**9)
            total = full[2]
            for max_expansions in (1, total // 7, total // 2, total - 1):
                assert _outcome(
                    pruned_dst, prepared, 3, max_expansions
                ) == _outcome(
                    scalar_pruned_dst, prepared, 3, max_expansions
                ), (seed, max_expansions)

    def test_lean_scans_match_scalar_under_draining_budgets(self):
        """Seeded below-floor instances with 10, 18 and 26 terminals.

        That is the quick tables' range, where every level-2 scan is
        the scalar one that scores each candidate and builds only the
        winner (``kernels.best_star`` for Algorithms 4 and 6,
        ``charikar._scored_branch`` for Algorithm 3), both as a whole
        level-2 solve and as the children of a level-3 scan.  Trees,
        costs and the expansions at each budget trip match the frozen
        scalar oracle, unlimited and at budgets that trip on the first
        tick, early, mid-solve and one tick short.  Charikar's level 3
        covers ``k = 3`` terminals: its oracle is quartic in ``k``.
        """
        for n in (11, 19, 27):
            graph = _random_reachable_graph(n, n=n)
            _, prepared = prepare_mstw_instance(graph, 0)
            assert prepared.num_terminals == n - 1
            assert not kernels.eligible(prepared)
            for level in (2, 3):
                for new, old in SOLVER_PAIRS:
                    k = 3 if (level, new) == (3, charikar_dst) else None
                    full = _outcome(new, prepared, level, 10**12, k=k)
                    assert full == _outcome(old, prepared, level, 10**12, k=k)
                    total = full[2]
                    for max_expansions in (1, total // 7, total // 2, total - 1):
                        assert _outcome(
                            new, prepared, level, max_expansions, k=k
                        ) == _outcome(
                            old, prepared, level, max_expansions, k=k
                        ), (n, level, new.__name__, max_expansions)

    def test_floor_keeps_small_instances_scalar(self):
        """Below ``KERNEL_MIN_CELLS`` the level-2 dispatch declines
        outright and Algorithm 4's level-3 scans take the lockstep
        children instead; above it only Algorithm 6's level-3 walks
        do."""
        graph = _random_reachable_graph(0, n=12)
        _, prepared = prepare_mstw_instance(graph, 0)
        assert prepared.num_vertices * prepared.num_terminals < 4096
        assert not kernels.eligible(prepared)
        assert kernels.lockstep(prepared)
        assert kernels.pruned_scan(prepared, 0) is None
        with kernel_floor(0):
            assert kernels.eligible(prepared)
            assert not kernels.lockstep(prepared)
            assert kernels.pruned_scan(prepared, 0) is not None
            for solver, pruned in ((improved_dst, False), (pruned_dst, True)):
                with lockstep_calls() as calls:
                    solver(prepared, 3)
                assert bool(calls) == pruned, solver.__name__

    def test_lockstep_groups_respect_the_cell_cap(self, monkeypatch):
        """A capped pass splits the children into groups, same answers."""
        graph = _random_reachable_graph(1, n=15)
        _, prepared = prepare_mstw_instance(graph, 0)
        cells = prepared.num_vertices * prepared.num_terminals
        monkeypatch.setattr(kernels, "LOCKSTEP_MAX_CELLS", 3 * cells)
        groups = []
        solve_group = kernels.SubSolves._solve_group

        def counting(self, vertices):
            groups.append(len(vertices))
            return solve_group(self, vertices)

        monkeypatch.setattr(kernels.SubSolves, "_solve_group", counting)
        new = improved_dst(prepared, 3)
        assert max(groups) == 3
        assert sum(groups) % prepared.num_vertices == 0
        assert _fingerprint(new) == _fingerprint(scalar_improved_dst(prepared, 3))

    def test_pruned_lockstep_passes_respect_the_cell_cap(self, monkeypatch):
        """Algorithm 6's groups are capped on per-child state and every
        density pass on gathered cells; same answers."""
        graph = _random_reachable_graph(1, n=15)
        _, prepared = prepare_mstw_instance(graph, 0)
        n = prepared.num_vertices
        cap = 2 * n * prepared.num_terminals
        monkeypatch.setattr(kernels, "LOCKSTEP_MAX_CELLS", cap)
        groups = []
        passes = []
        solve_group = kernels.SubSolves._solve_group
        row_minima = kernels._row_minima

        def counting_groups(self, vertices):
            groups.append(len(vertices))
            return solve_group(self, vertices)

        def counting_passes(densities):
            passes.append(densities.size)
            return row_minima(densities)

        monkeypatch.setattr(kernels.SubSolves, "_solve_group", counting_groups)
        monkeypatch.setattr(kernels, "_row_minima", counting_passes)
        new = pruned_dst(prepared, 3)
        assert max(groups) == cap // n
        assert passes and max(passes) <= cap
        assert _fingerprint(new) == _fingerprint(scalar_pruned_dst(prepared, 3))


# ----------------------------------------------------------------------
# Kernel-level identity: batched vs scalar scan, and the sorted-layout tie-break
# ----------------------------------------------------------------------
class TestKernelTieBreak:
    @settings(max_examples=25, deadline=None)
    @given(graph=reachable_graphs(unit_weights=True))
    def test_sorted_terminals_tie_break_is_index_order(self, graph):
        """Equal costs order by terminal index.

        Unit weights force dense cost ties, so any tie-break drift
        between the instance's terminal rows, a fresh ``(cost, index)``
        sort of the closure row, and the sorted block the kernels scan
        would surface immediately.
        """
        _, prepared = prepare_mstw_instance(graph, 0)
        # One block per instance, built once and shared.
        block_costs, block_ids = prepared.terminal_block()
        assert prepared.terminal_block()[0] is block_costs
        for source in range(prepared.num_vertices):
            row = prepared.closure.costs_from(source).tolist()
            order = sorted(prepared.terminals, key=lambda x: (row[x], x))
            costs, ids = prepared.terminal_row(source)
            assert ids == order
            assert costs == [row[x] for x in order]
            assert block_ids[source].tolist() == order
            assert block_costs[source].tolist() == costs

    @settings(max_examples=25, deadline=None)
    @given(graph=reachable_graphs(), data=st.data())
    def test_best_prefix_candidate_matches_scalar_scan(self, graph, data):
        _, prepared = prepare_mstw_instance(graph, 0)
        terminals = sorted(prepared.terminals)
        remaining = frozenset(
            data.draw(
                st.sets(st.sampled_from(terminals), min_size=1),
                label="remaining",
            )
        )
        k = data.draw(
            st.integers(min_value=1, max_value=len(remaining)), label="k"
        )
        source = data.draw(
            st.integers(min_value=0, max_value=prepared.num_vertices - 1),
            label="source",
        )
        assert kernels.best_prefix_candidate(
            prepared, k, remaining, source
        ) == _scalar_best_candidate(prepared, k, remaining, source)


class TestLeanScorers:
    def test_scores_are_the_built_candidates_densities(self):
        """The scalar level-2 scans pick winners by score alone.

        So each score must be, bit for bit, the density of the tree the
        recursive form built: ``prefix_density`` that of
        ``A^1(k', v, X) ∪ (r, v)``, and ``best_prefix`` the minimum over
        the ``B^1`` prefixes, at the first prefix that reaches it.
        Seeded instances with 10 and 26 terminals, a random remaining
        set per source and every ``k``.
        """
        rng = random.Random(0)
        for n in (11, 27):
            graph = _random_reachable_graph(n, n=n)
            _, prepared = prepare_mstw_instance(graph, 0)
            terminals = sorted(prepared.terminals)
            for v in range(prepared.num_vertices):
                row = prepared.terminal_row(v)
                remaining = frozenset(
                    rng.sample(terminals, rng.randint(1, len(terminals)))
                )
                incoming = prepared.cost(0, v)
                densities = [
                    kernels.materialize_prefix(v, row, remaining, j)
                    .with_edge(0, v, incoming)
                    .density
                    for j in range(1, len(remaining) + 1)
                ]
                for k in range(1, len(remaining) + 1):
                    assert kernels.prefix_density(
                        row, remaining, k, incoming
                    ) == densities[k - 1]
                    length, density = kernels.best_prefix(
                        row, remaining, k, incoming
                    )
                    assert density == min(densities[:k])
                    if math.isinf(density):
                        assert length == 0
                    else:
                        assert length == densities.index(density) + 1


# ----------------------------------------------------------------------
# Fallback caveats: kernel-path cells == legacy-path cells as budgets drain
# ----------------------------------------------------------------------
class TestFallbackCaveatParity:
    def _ladder_outcome(self, prepared, max_expansions, solver):
        budget = Budget(max_expansions=max_expansions)
        outcome = fallback.run_with_fallback(
            prepared, budget=budget, level=2, solver=solver
        )
        # The attempt *detail* strings embed the expansion count at the
        # trip instant, which may sit mid-batch on the kernel path; the
        # rung sequence, statuses, caveat, and answer must not move.
        cells = [OverBudgetCell(0.0, outcome.rung)]
        if outcome.degraded:
            cells.append(DegradedCell(outcome.tree.cost, outcome.rung))
        return (
            outcome.rung,
            outcome.level,
            outcome.degraded,
            outcome.caveat,
            _fingerprint(outcome.tree),
            [(a.rung, a.status) for a in outcome.attempts],
            cells,
        )

    def test_degraded_cells_match_scalar_under_draining_budgets(self, monkeypatch):
        scalar_map = {
            "charikar": scalar_charikar_dst,
            "improved": scalar_improved_dst,
            "pruned": scalar_pruned_dst,
        }
        for seed, n in ((0, 40), (1, 24)):
            graph = _random_reachable_graph(seed, n=n)
            _, prepared = prepare_mstw_instance(graph, 0)
            with kernel_floor(0):
                for solver in ("pruned", "improved", "charikar"):
                    for max_expansions in (1, 25, 400, 10**9):
                        with monkeypatch.context() as patch:
                            patch.setattr(
                                fallback, "_greedy_solvers", lambda: scalar_map
                            )
                            legacy = self._ladder_outcome(
                                prepared, max_expansions, solver
                            )
                        live = self._ladder_outcome(
                            prepared, max_expansions, solver
                        )
                        assert live == legacy, (seed, solver, max_expansions)
