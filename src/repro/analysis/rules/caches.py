"""Rule: the PR 2 cache structures are read-only outside their owners.

:class:`repro.temporal.graph.TemporalGraph` and
:class:`repro.steiner.instance.PreparedInstance` memoise their derived
layouts (chronological edge tuples, closure cost rows, terminal
orders) and hand out the *cached* objects, not copies -- that aliasing
is what makes the hot paths fast.  Any caller that mutates a returned
structure corrupts every later read.  This rule flags writes (item
assignment, ``del``, in-place ``+=``, and mutating method calls) on
expressions derived from the cache accessors, tracking simple local
aliases like ``adj = graph.columnar().out_adjacency()`` /
``adj[v].append(...)`` within each function scope.

Closure cost rows (``costs_from``) are protected too: each is a row of
the closure's distance matrix, which every later cost and path query on
that closure reads.

PR 7 extends it again to the columnar core
(:class:`repro.temporal.columnar.ColumnarEdgeStore`): the store itself
(``graph.columnar()``) and every sorted-view accessor
(``sorted_starts`` and friends) alias the arrays all batched kernels
read; writing into one silently corrupts every later window query,
and transformation on that graph.  ``value_column`` joins them:
it hands out a value column or the Python values the store keeps for
it, which every edge the store builds reads.  So do the store's CSR
layouts (``out_adjacency``/``in_adjacency``, which replaced the
graph's per-vertex adjacency dicts) and ``python_values``.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.analysis.core import Finding, ParsedModule, Rule

#: The memoising accessors whose results are shared, not copied.
CACHE_ACCESSORS = frozenset(
    {
        "chronological_edges",
        "arrival_sorted_edges",
        "cost_row",
        # PreparedInstance's sorted terminal block and its memoised
        # per-source rows: the kernels scan the block arrays in place.
        "terminal_block",
        "terminal_row",
        # A closure's distance-matrix row, handed out uncopied.
        "costs_from",
        # ColumnarEdgeStore (PR 7): the store handed out by
        # graph.columnar() and its sorted-view accessors are the cached
        # arrays themselves, never copies.
        "columnar",
        "columnar_or_none",
        "sorted_starts",
        "sorted_arrivals",
        "positions_by_start",
        "positions_by_arrival",
        "arrivals_by_start_order",
        "starts_by_arrival_order",
        "start_ranks",
        "value_column",
        # The store's CSR layouts and per-position column views (shared).
        "out_adjacency",
        "in_adjacency",
        "python_values",
    }
)

#: Methods that mutate a list/dict in place.
MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "clear",
        "sort",
        "reverse",
        "update",
        "setdefault",
        "popitem",
        # ndarray / array('d') in-place writers (the columnar views).
        "fill",
        "put",
        "partition",
        "fromlist",
        "frombytes",
    }
)

#: Accessor-preserving reads: ``adj.get(v)`` etc. stay cache-derived.
_VIEW_METHODS = frozenset({"get", "items", "values", "keys"})

#: The modules that own (and may legally fill) the caches.
OWNING_MODULES = frozenset(
    {
        "repro.temporal.graph",
        "repro.steiner.instance",
        "repro.temporal.index",
        # The sliding-window engine.
        "repro.incremental.engine",
        # The columnar store builds (and legally fills) its own arrays.
        "repro.temporal.columnar",
    }
)


def _is_derived(expr: ast.AST, tainted: Set[str]) -> bool:
    """Whether ``expr`` aliases (part of) a cached structure."""
    if isinstance(expr, ast.Name):
        return expr.id in tainted
    if isinstance(expr, ast.Subscript):
        return _is_derived(expr.value, tainted)
    if isinstance(expr, ast.Attribute):
        return _is_derived(expr.value, tainted)
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
        if expr.func.attr in CACHE_ACCESSORS:
            return True
        if expr.func.attr in _VIEW_METHODS:
            return _is_derived(expr.func.value, tainted)
    return False


class CacheMutationRule(Rule):
    name = "cache-mutation"
    code = "REP102"
    description = (
        "no writes to cached adjacency/edge/memo structures returned by "
        "TemporalGraph or PreparedInstance accessors outside their owners"
    )

    def applies(self, module: ParsedModule) -> bool:
        return module.module_name not in OWNING_MODULES

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        findings: List[Finding] = []
        self._process(module, module.tree.body, set(), findings)
        yield from findings

    # ------------------------------------------------------------------
    # Scope walk
    # ------------------------------------------------------------------
    def _process(
        self,
        module: ParsedModule,
        body: List[ast.stmt],
        tainted: Set[str],
        findings: List[Finding],
    ) -> None:
        for statement in body:
            if isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                self._process(module, statement.body, set(), findings)
                continue

            # Mutating method calls anywhere in this statement's own
            # expressions (compound bodies are recursed into below).
            for expr in ast.iter_child_nodes(statement):
                if isinstance(expr, ast.expr):
                    self._check_calls(module, expr, tainted, findings)

            if isinstance(statement, ast.Assign):
                for target in statement.targets:
                    self._check_store(module, target, tainted, findings)
                derived = _is_derived(statement.value, tainted)
                for target in statement.targets:
                    self._update_taint(target, derived, tainted)
            elif isinstance(statement, ast.AnnAssign):
                self._check_store(module, statement.target, tainted, findings)
                if statement.value is not None and isinstance(
                    statement.target, ast.Name
                ):
                    self._update_taint(
                        statement.target,
                        _is_derived(statement.value, tainted),
                        tainted,
                    )
            elif isinstance(statement, ast.AugAssign):
                target = statement.target
                if isinstance(target, ast.Subscript) and _is_derived(
                    target.value, tainted
                ):
                    findings.append(self._mutation(module, target))
                elif isinstance(target, ast.Name) and target.id in tainted:
                    findings.append(self._mutation(module, target))
            elif isinstance(statement, ast.Delete):
                for target in statement.targets:
                    if isinstance(target, ast.Subscript) and _is_derived(
                        target.value, tainted
                    ):
                        findings.append(self._mutation(module, target))
                    elif isinstance(target, ast.Name):
                        tainted.discard(target.id)

            if isinstance(statement, (ast.For, ast.AsyncFor)):
                self._update_taint(
                    statement.target,
                    _is_derived(statement.iter, tainted),
                    tainted,
                )
                self._process(module, statement.body, tainted, findings)
                self._process(module, statement.orelse, tainted, findings)
            elif isinstance(statement, (ast.While, ast.If)):
                self._process(module, statement.body, tainted, findings)
                self._process(module, statement.orelse, tainted, findings)
            elif isinstance(statement, (ast.With, ast.AsyncWith)):
                self._process(module, statement.body, tainted, findings)
            elif isinstance(statement, ast.Try):
                self._process(module, statement.body, tainted, findings)
                for handler in statement.handlers:
                    self._process(module, handler.body, tainted, findings)
                self._process(module, statement.orelse, tainted, findings)
                self._process(module, statement.finalbody, tainted, findings)

    def _check_store(
        self,
        module: ParsedModule,
        target: ast.expr,
        tainted: Set[str],
        findings: List[Finding],
    ) -> None:
        elements = target.elts if isinstance(target, (ast.Tuple, ast.List)) else [target]
        for element in elements:
            if isinstance(element, ast.Subscript) and _is_derived(
                element.value, tainted
            ):
                findings.append(self._mutation(module, element))

    def _check_calls(
        self,
        module: ParsedModule,
        expr: ast.expr,
        tainted: Set[str],
        findings: List[Finding],
    ) -> None:
        for node in ast.walk(expr):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATING_METHODS
                and _is_derived(node.func.value, tainted)
            ):
                findings.append(self._mutation(module, node))

    def _update_taint(
        self, target: ast.expr, derived: bool, tainted: Set[str]
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._update_taint(element, derived, tainted)
        elif isinstance(target, ast.Name):
            if derived:
                tainted.add(target.id)
            else:
                tainted.discard(target.id)

    def _mutation(self, module: ParsedModule, node: ast.AST) -> Finding:
        return self.finding(
            module,
            node,
            "mutation of a cached structure returned by a TemporalGraph/"
            "PreparedInstance accessor; copy it first (list(...)/dict(...)) "
            "or do the write inside the owning module",
        )
