"""The end-to-end ``MST_w`` pipeline (Section 4).

``minimum_spanning_tree_w`` chains the five stages of the paper's
solution:

1. restrict to the window and compute the reachable set ``V_r``;
2. transform the temporal graph into the static expansion 𝔾 (§4.2),
   as far as the root reaches (one earliest-arrival sweep serves both
   stages);
3. build 𝔾's transitive closure (the ``Tprep``-dominating step);
4. run a DST approximation -- Algorithm 3 (``charikar``), Algorithm 4
   (``improved``), or Algorithm 6 (``pruned``, the default) -- with the
   dummies of ``V_r`` as terminals;
5. postprocess back into a temporal spanning tree (§4.3).

The result records the intermediate sizes and costs so experiments can
report Table 4-6 style rows without re-running stages.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.errors import UnreachableRootError
from repro.core.postprocess import closure_tree_to_temporal
from repro.core.spanning_tree import TemporalSpanningTree
from repro.core.transformation import TransformedGraph, transform_temporal_graph
from repro.resilience.budget import Budget
from repro.resilience.fallback import run_with_fallback
from repro.steiner.charikar import charikar_dst
from repro.steiner.improved import improved_dst
from repro.steiner.instance import PreparedInstance, prepare_instance
from repro.steiner.pruned import pruned_dst
from repro.steiner.tree import ClosureTree
from repro.temporal.edge import Vertex
from repro.temporal.graph import TemporalGraph
from repro.temporal.window import TimeWindow

_SOLVERS: Dict[str, Callable[[PreparedInstance, int], ClosureTree]] = {
    "charikar": charikar_dst,
    "improved": improved_dst,
    "pruned": pruned_dst,
}


@dataclass
class MSTwResult:
    """The pipeline's answer plus its intermediate measurements.

    Attributes
    ----------
    tree:
        The final temporal spanning tree (weight is the headline number).
    closure_tree_cost:
        Cost of the DST answer over the closure, before postprocessing;
        ``tree.total_weight <= closure_tree_cost`` (Theorem 6).
    num_terminals:
        ``k = |V_r| - 1``, the DST terminal count.
    transformed_vertices / transformed_edges:
        ``|V(𝔾)|`` and ``|E(𝔾)|`` of the whole window's 𝔾 (Table 4
        columns): read through :attr:`transformed`, which counts them
        on first read, so a caller that never reads them never pays for
        the whole window's Step 1(a).
    preprocessing_seconds / solve_seconds:
        Wall-clock split between stages 1-3 and stages 4-5.
    level / algorithm:
        The requested iteration count ``i`` and solver name.
    rung / degraded / caveat:
        Set when the solve went through the fallback chain
        (:func:`repro.resilience.run_with_fallback`): the ladder rung
        that answered, whether a stronger rung was attempted first, and
        the answering rung's approximation caveat.
    transformed:
        The reach-only transformation the answer was solved on (left
        out of ``==`` and ``repr``).
    """

    tree: TemporalSpanningTree
    closure_tree_cost: float
    num_terminals: int
    preprocessing_seconds: float
    solve_seconds: float
    level: int
    algorithm: str
    transformed: TransformedGraph = field(compare=False, repr=False)
    rung: Optional[str] = None
    degraded: bool = False
    caveat: Optional[str] = None

    @property
    def weight(self) -> float:
        """``ζ(ST(r))``: the spanning tree's total weight."""
        return self.tree.total_weight

    @property
    def transformed_vertices(self) -> int:
        """``|V(𝔾)|`` of the whole window's 𝔾."""
        return self.transformed.num_vertices

    @property
    def transformed_edges(self) -> int:
        """``|E(𝔾)|`` of the whole window's 𝔾."""
        return self.transformed.num_edges


def _terminals(transformed: TransformedGraph) -> List[Vertex]:
    """``V_r`` without the root, sorted by ``repr``: the DST terminals.

    Read off the transformation, whose earliest-arrival sweep decides
    the reach, so a query runs that sweep once.

    Raises
    ------
    UnreachableRootError
        If the root reaches no other vertex within the window.
    """
    terminals = sorted(transformed.reached(), key=repr)
    if not terminals:
        raise UnreachableRootError(
            f"root {transformed.root!r} reaches no other vertex "
            f"within {transformed.window}"
        )
    return terminals


def minimum_spanning_tree_w(
    graph: TemporalGraph,
    root: Vertex,
    window: Optional[TimeWindow] = None,
    level: int = 2,
    algorithm: str = "pruned",
    budget: Optional[Budget] = None,
    fallback: bool = False,
) -> MSTwResult:
    """Approximate a ``MST_w`` rooted at ``root``.

    Parameters
    ----------
    graph:
        The temporal graph.
    root:
        The prescribed root.
    window:
        Time window ``[t_alpha, t_omega]`` (default ``[0, inf]``).
    level:
        The number of iterations ``i`` of the DST algorithm.  Larger
        levels improve the ``i^2 (i-1) k^(1/i)`` guarantee at a steep
        runtime cost; the paper finds ``i = 3`` nearly optimal in
        practice (Table 8).
    algorithm:
        ``"pruned"`` (Algorithm 6, default), ``"improved"``
        (Algorithm 4), or ``"charikar"`` (Algorithm 3).
    budget:
        Optional cooperative :class:`repro.resilience.Budget` covering
        both the pipeline stage boundaries and the DST solve.
    fallback:
        When True, the solve runs through
        :func:`repro.resilience.run_with_fallback`: if the budget
        drains mid-solve, the answer degrades (lower level, then the
        shortest-paths heuristic) instead of raising; the result's
        ``rung``/``degraded``/``caveat`` fields record the outcome.

    Raises
    ------
    UnreachableRootError
        If the root reaches no other vertex within the window.
    BudgetExceededError
        If ``budget`` drains and ``fallback`` is False.  With
        ``fallback`` on, a drained budget degrades instead of raising.
    ValueError
        For an unknown algorithm name or non-positive level.
    """
    try:
        solver = _SOLVERS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; expected one of {sorted(_SOLVERS)}"
        ) from None
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    if window is None:
        window = TimeWindow.unbounded()
    if budget is not None:
        budget.start()

    # Preprocessing has no degraded alternative, so with fallback on
    # its checkpoints must not raise: the chain's final unbudgeted rung
    # still answers, just from an already-drained budget.
    prep_start = time.perf_counter()
    transformed, prepared = prepare_mstw_instance(
        graph, root, window, budget=None if fallback else budget
    )
    prep_seconds = time.perf_counter() - prep_start

    solve_start = time.perf_counter()
    rung: Optional[str] = None
    degraded = False
    caveat: Optional[str] = None
    if fallback:
        outcome = run_with_fallback(
            prepared, budget=budget, level=level, solver=algorithm
        )
        closure_tree = outcome.tree
        rung = outcome.rung
        degraded = outcome.degraded
        caveat = outcome.caveat
    else:
        closure_tree = solver(prepared, level, budget=budget)
    tree = closure_tree_to_temporal(transformed, prepared, closure_tree)
    solve_seconds = time.perf_counter() - solve_start

    return MSTwResult(
        tree=tree,
        closure_tree_cost=closure_tree.cost,
        num_terminals=prepared.num_terminals,
        preprocessing_seconds=prep_seconds,
        solve_seconds=solve_seconds,
        level=level,
        algorithm=algorithm,
        transformed=transformed,
        rung=rung,
        degraded=degraded,
        caveat=caveat,
    )


def prepare_cache_info() -> Dict[str, int]:
    """Always ``{"hits": 0, "misses": 0}``: preparation keeps no memo.

    Exists only because the end-to-end tracer
    (``benchmarks/e2e/tracing.py``) still probes it; it goes when that
    probe is dropped from the benchmark.
    """
    return {"hits": 0, "misses": 0}


def prepare_mstw_instance(
    graph: TemporalGraph,
    root: Vertex,
    window: Optional[TimeWindow] = None,
    chronological: bool = False,
    budget: Optional[Budget] = None,
) -> Tuple[TransformedGraph, PreparedInstance]:
    """Stages 1-3 only: ``(transformed, prepared)`` for repeated solving.

    Benchmarks use this to time the DST solvers in isolation on a shared
    preprocessed instance, exactly as the paper separates ``Tprep``
    (Table 4) from solver runtimes (Table 5).  Nothing is cached: a
    caller that solves several variants of one query holds on to the
    pair itself.

    ``chronological`` is forwarded to :func:`transform_temporal_graph`
    (the sliding engine's window-subgraph edge order).  A ``budget`` is
    checkpointed after the transformation and after the closure.

    Raises
    ------
    UnreachableRootError
        If the root reaches no other vertex within the window.
    """
    if window is None:
        window = TimeWindow.unbounded()
    transformed = transform_temporal_graph(
        graph, root, window, chronological=chronological
    )
    if budget is not None:
        budget.checkpoint()
    prepared = prepare_instance(
        transformed.dst_instance(terminals=_terminals(transformed))
    )
    if budget is not None:
        budget.checkpoint()
    return transformed, prepared
