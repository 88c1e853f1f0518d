"""The interprocedural rules (REP201-REP204) over the project graph.

Every rule consumes a fully-built :class:`ProjectGraph` (module
summaries + resolved call edges) and yields :class:`Finding` objects
anchored at real source locations.  Rules never read source or ASTs,
so results are identical whether summaries came from a fresh parse or
the on-disk cache.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Set, Tuple, Type

from repro.analysis.core import Finding
from repro.analysis.project.callgraph import CLASS, Edge, FunctionEntry, ProjectGraph
from repro.analysis.project.symbols import ArgInfo, CallSite
from repro.analysis.rules.budget import TARGET_MODULES

#: The module that owns the columnar edge store; its private array
#: internals stay off-limits everywhere else.
COLUMNAR_OWNER = "repro.temporal.columnar"

#: Handler names that protect a budgeted call for the REP204 contract.
_COVERING_HANDLERS = frozenset(
    {"BudgetExceededError", "ReproError", "Exception", "BaseException"}
)


def _handlers_cover(handlers: Sequence[str]) -> bool:
    return any(h.split(".")[-1] in _COVERING_HANDLERS for h in handlers)


def _in_target_modules(module: str) -> bool:
    return any(
        module == target or module.startswith(target + ".")
        for target in TARGET_MODULES
    )


def _has_budget_param(entry: FunctionEntry) -> bool:
    fn = entry.summary
    return any(param in fn.budget_aliases for param in fn.params)


def _budget_capable(entry: FunctionEntry) -> bool:
    return _has_budget_param(entry) or entry.summary.provisions_budget


class ProjectRule:
    """Base class of the whole-program rules."""

    name: str = ""
    code: str = ""
    description: str = ""

    def check(self, graph: ProjectGraph) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, entry: FunctionEntry, lineno: int, col: int, message: str
    ) -> Finding:
        return Finding(
            path=entry.module.path,
            line=lineno,
            col=col,
            rule=self.name,
            code=self.code,
            message=message,
        )


class BudgetReachabilityRule(ProjectRule):
    """REP201: entry-reachable paths into solver loops must thread a Budget.

    A *sink* is a solver-grade function (one of REP101's target modules)
    that accepts a budget and -- directly or through further
    budget-forwarding calls -- checkpoints it.  Every entry-reachable
    call edge into a sink must pass a budget.  A budget-less edge is a
    finding when the caller (or some ancestor on the call path) had a
    budget to give: budgets that are *dropped* are bugs, chains that
    never carried one (micro-benchmarks, fixtures) are policy.
    Never-raise engines (the PR 5/6 degradation contract) legitimately
    fall back to unbudgeted cold solves, so a drop whose budget-capable
    ancestors are all marked ``never raises`` is exempt.
    """

    name = "budget-reachability"
    code = "REP201"
    description = (
        "entry-reachable call chains into solver-grade loops must thread "
        "a Budget; flags edges where an available budget is dropped"
    )

    def _sinks(self, graph: ProjectGraph) -> Set[str]:
        candidates = {
            node: entry
            for node, entry in graph.functions.items()
            if _in_target_modules(entry.module.module)
            and _has_budget_param(entry)
        }
        sinks: Set[str] = set()
        for node, entry in candidates.items():
            fn = entry.summary
            if any(fn.is_budget_name(cp.receiver) for cp in fn.checkpoints):
                sinks.add(node)
        changed = True
        while changed:
            changed = False
            for node, entry in candidates.items():
                if node in sinks:
                    continue
                for edge in graph.out_edges.get(node, ()):
                    if edge.callee in sinks and edge.passes_budget:
                        sinks.add(node)
                        changed = True
                        break
        return sinks

    def _capable_ancestors(
        self, graph: ProjectGraph, start: str
    ) -> List[FunctionEntry]:
        seen: Set[str] = {start}
        queue = [start]
        capable: List[FunctionEntry] = []
        while queue:
            current = queue.pop()
            for edge in graph.in_edges.get(current, ()):
                caller = edge.caller
                if caller in seen:
                    continue
                seen.add(caller)
                entry = graph.functions.get(caller)
                if entry is None:
                    continue
                if _budget_capable(entry):
                    capable.append(entry)
                else:
                    queue.append(caller)
        return capable

    def check(self, graph: ProjectGraph) -> Iterator[Finding]:
        sinks = self._sinks(graph)
        reachable = graph.reachable_from(graph.entry_nodes())
        dropped: Dict[Tuple[str, int], Tuple[FunctionEntry, Edge, Set[str]]] = {}
        for edge in graph.edges:
            if edge.callee not in sinks or edge.passes_budget:
                continue
            if edge.caller not in reachable:
                continue
            entry = graph.functions.get(edge.caller)
            if entry is None:
                continue
            key = (edge.caller, edge.lineno)
            if key in dropped:
                dropped[key][2].add(edge.callee)
            else:
                dropped[key] = (entry, edge, {edge.callee})
        for (caller, lineno) in sorted(dropped):
            entry, edge, callees = dropped[(caller, lineno)]
            fn = entry.summary
            if _budget_capable(entry):
                if fn.never_raises:
                    continue
                origin = f"a budget is in scope in {caller}"
            else:
                ancestors = self._capable_ancestors(graph, caller)
                if not ancestors:
                    continue  # nothing to drop: the whole chain is unbudgeted
                if all(a.summary.never_raises for a in ancestors):
                    continue  # deliberate never-raise cold fallback
                names = sorted(a.node for a in ancestors)
                origin = f"the budget enters at {', '.join(names)}"
            sink_names = ", ".join(sorted(callees))
            yield self.finding(
                entry,
                lineno,
                edge.col,
                f"budget dropped on a solver-grade path: this call reaches "
                f"{sink_names} without a budget, but {origin}",
            )


class PickleSafetyRule(ProjectRule):
    """REP202: everything shipped across the process boundary must pickle.

    Surfaces: ``ParallelExecutor(...)`` initializers/initargs, the
    callables handed to ``.map``/``.unordered``, and the FaultPlan
    shipping path.  Flags lambdas and locally-defined callables at the
    surfaces, project exception types raised on the worker path whose
    ``__init__`` keeps state its ``super().__init__`` call drops (they
    reconstruct from ``args`` alone and silently lose it) unless they
    define ``__reduce__``, and weakref/IO-typed fields in the shipped
    type closure.
    """

    name = "pickle-safety"
    code = "REP202"
    description = (
        "objects shipped through repro.parallel.engine or the FaultPlan "
        "path must survive pickling faithfully"
    )

    _EXECUTOR = "ParallelExecutor"
    _UNPICKLABLE_KINDS = {
        "lambda": "a lambda",
        "localfunc": "a locally-defined function",
        "localclass": "a locally-defined class",
    }

    def _is_executor_class(self, graph: ProjectGraph, payload: str) -> bool:
        return payload.split(":", 1)[1] == self._EXECUTOR

    def _surface_args(
        self, graph: ProjectGraph, entry: FunctionEntry
    ) -> Iterator[Tuple[CallSite, ArgInfo, str]]:
        """Yield ``(site, arg, surface_label)`` for every shipping surface."""
        mod, fn, cls = entry.module, entry.summary, entry.cls
        for site in fn.calls:
            if site.target is None:
                continue
            resolutions = graph.resolve_value(mod, fn, cls, site.target)
            if any(
                kind == CLASS and self._is_executor_class(graph, payload)
                for kind, payload in resolutions
            ):
                for arg in site.args:
                    if arg.slot in ("1", "initializer"):
                        yield site, arg, "ParallelExecutor initializer"
                    elif arg.slot in ("2", "initargs"):
                        yield site, arg, "ParallelExecutor initargs"
                continue
            if "." not in site.target:
                continue
            receiver, method = site.target.rsplit(".", 1)
            if method not in ("map", "unordered"):
                continue
            receiver_types = graph.resolve_value(mod, fn, cls, receiver)
            if any(
                kind == CLASS and self._is_executor_class(graph, payload)
                for kind, payload in receiver_types
            ):
                for arg in site.args:
                    if arg.slot in ("0", "fn"):
                        yield site, arg, f"ParallelExecutor.{method} task"

    def _shipped_callables(self, graph: ProjectGraph) -> Set[str]:
        shipped: Set[str] = set()
        for entry in graph.functions.values():
            for _site, arg, _label in self._surface_args(graph, entry):
                for node in graph._callable_candidates(entry, arg, None):
                    shipped.add(node)
        return shipped

    def _class_closure(
        self, graph: ProjectGraph, seeds: Sequence[str]
    ) -> List[str]:
        seen: List[str] = []
        queue = list(seeds)
        while queue:
            node = queue.pop(0)
            if node in seen or node not in graph.classes:
                continue
            seen.append(node)
            mod, cls = graph.classes[node]
            for annotation in cls.fields.values():
                for child in graph.annotation_classes(mod, annotation):
                    if child not in seen:
                        queue.append(child)
        return seen

    def check(self, graph: ProjectGraph) -> Iterator[Finding]:
        shipped = self._shipped_callables(graph)
        # 1. Unpicklable callables at the surfaces themselves.
        for entry in sorted(
            graph.functions.values(), key=lambda item: item.node
        ):
            for site, arg, label in self._surface_args(graph, entry):
                kind = arg.kind
                if kind in self._UNPICKLABLE_KINDS:
                    yield self.finding(
                        entry,
                        site.lineno,
                        site.col,
                        f"{self._UNPICKLABLE_KINDS[kind]} cannot cross the "
                        f"process boundary as the {label}; use a module-level "
                        f"function",
                    )
        # 2. Exceptions raised on the worker path must pickle faithfully.
        worker_nodes = graph.reachable_from(sorted(shipped)) | shipped
        flagged_classes: Set[str] = set()
        for node in sorted(worker_nodes):
            entry = graph.functions.get(node)
            if entry is None:
                continue
            mod, fn, cls = entry.module, entry.summary, entry.cls
            for raise_site in fn.raises:
                if raise_site.exception is None:
                    continue
                for kind, payload in graph.resolve_value(
                    mod, fn, cls, raise_site.exception
                ):
                    if kind != CLASS or payload in flagged_classes:
                        continue
                    owner_mod, owner_cls = graph.classes[payload]
                    if owner_cls.init_lossy and not owner_cls.has_reduce:
                        flagged_classes.add(payload)
                        yield Finding(
                            path=owner_mod.path,
                            line=owner_cls.lineno,
                            col=0,
                            rule=self.name,
                            code=self.code,
                            message=(
                                f"{owner_cls.name} is raised on the worker "
                                f"path but its __init__ keeps state that "
                                f"super().__init__ drops; across pickling it "
                                f"reconstructs from args alone -- define "
                                f"__reduce__"
                            ),
                        )
        # 3. Weakref/IO-typed fields in the shipped type closure.
        seeds: List[str] = []
        for node in sorted(shipped):
            entry = graph.functions.get(node)
            if entry is None:
                continue
            for annotation in entry.summary.annotations.values():
                for class_node in graph.annotation_classes(
                    entry.module, annotation
                ):
                    if class_node not in seeds:
                        seeds.append(class_node)
        for name in ("FaultSpec", "FaultPlan"):
            class_node = graph._class_named(name)
            if class_node is not None and class_node not in seeds:
                seeds.append(class_node)
        for class_node in self._class_closure(graph, seeds):
            owner_mod, owner_cls = graph.classes[class_node]
            for field_name, annotation in sorted(owner_cls.fields.items()):
                if any(
                    marker in annotation
                    for marker in (
                        "id='WeakKeyDictionary'",
                        "id='WeakValueDictionary'",
                        "id='WeakSet'",
                        "id='ref'",
                        "attr='ref'",
                        "id='IO'",
                        "id='TextIO'",
                        "id='BinaryIO'",
                    )
                ):
                    yield Finding(
                        path=owner_mod.path,
                        line=owner_cls.lineno,
                        col=0,
                        rule=self.name,
                        code=self.code,
                        message=(
                            f"{owner_cls.name}.{field_name} is weakref- or "
                            f"handle-typed but {owner_cls.name} is in the "
                            f"shipped type closure; it cannot cross the "
                            f"process boundary"
                        ),
                    )


class ColumnarInternalsRule(ProjectRule):
    """REP203: ``ColumnarEdgeStore`` internals stay inside their module.

    Outside ``repro.temporal.columnar`` no code may touch the store's
    private arrays (``_start_order``, ``_arrivals_sorted``, ...); the
    public accessors hand out the same shared views and keep the
    REP102 cache-mutation discipline in one place.
    """

    name = "columnar-internals"
    code = "REP203"
    description = (
        "ColumnarEdgeStore private internals may only be touched inside "
        "repro.temporal.columnar"
    )

    def _receiver_is_store(
        self, graph: ProjectGraph, entry: FunctionEntry, receiver: str
    ) -> bool:
        parts = receiver.split(".")
        mod, fn, cls = entry.module, entry.summary, entry.cls
        if parts[0] == "self":
            if cls is None or len(parts) < 2:
                return False
            class_node = graph.self_attr_class(mod, cls, parts[1])
            return class_node is not None and (
                class_node.split(":", 1)[1] == "ColumnarEdgeStore"
            )
        head = parts[0]
        value = fn.locals.get(head)
        if value is not None and value.kind == "columnar":
            return True
        if head in fn.annotations:
            return any(
                node.split(":", 1)[1] == "ColumnarEdgeStore"
                for node in graph.annotation_classes(mod, fn.annotations[head])
            )
        return False

    def check(self, graph: ProjectGraph) -> Iterator[Finding]:
        seen: Set[Tuple[str, int, int]] = set()
        for node in sorted(graph.functions):
            entry = graph.functions[node]
            if entry.module.module == COLUMNAR_OWNER:
                continue
            for use in entry.summary.attr_uses:
                if not self._receiver_is_store(graph, entry, use.receiver):
                    continue
                key = (entry.module.path, use.lineno, use.col)
                if key in seen:
                    continue
                seen.add(key)
                yield self.finding(
                    entry,
                    use.lineno,
                    use.col,
                    f"access to ColumnarEdgeStore private internals "
                    f"({use.attr}) outside the owning module; use the "
                    f"public store interface",
                )


class NeverRaiseRule(ProjectRule):
    """REP204: declared never-raise contracts must dominate raising callees.

    A function whose docstring carries the "never raises" marker may
    only hand its budget to a callee that can raise when every such
    call edge is inside a handler covering the raise.  Raise capability
    propagates through budget-passing edges from unprotected
    ``budget.checkpoint()`` sites and explicit ``BudgetExceededError``
    raises; callees that contain the raise internally (the
    ``_repair``-style try/except) and callees that are themselves
    marked never-raise do not propagate.
    """

    name = "never-raise"
    code = "REP204"
    description = (
        "functions declaring the 'never raises' contract must dominate "
        "every budgeted raising callee with a handler"
    )

    def _raise_capable(self, graph: ProjectGraph) -> Set[str]:
        capable: Set[str] = set()
        for node, entry in graph.functions.items():
            fn = entry.summary
            if fn.never_raises:
                continue
            if any(
                fn.is_budget_name(cp.receiver)
                and not _handlers_cover(cp.handlers)
                for cp in fn.checkpoints
            ):
                capable.add(node)
                continue
            if any(
                site.exception is not None
                and site.exception.split(".")[-1] == "BudgetExceededError"
                and not _handlers_cover(site.handlers)
                for site in fn.raises
            ):
                capable.add(node)
        changed = True
        while changed:
            changed = False
            for node, entry in graph.functions.items():
                if node in capable or entry.summary.never_raises:
                    continue
                for edge in graph.out_edges.get(node, ()):
                    if (
                        edge.callee in capable
                        and edge.passes_budget
                        and not _handlers_cover(edge.handlers)
                    ):
                        capable.add(node)
                        changed = True
                        break
        return capable

    def check(self, graph: ProjectGraph) -> Iterator[Finding]:
        capable = self._raise_capable(graph)
        for node in sorted(graph.functions):
            entry = graph.functions[node]
            fn = entry.summary
            if not fn.never_raises:
                continue
            for checkpoint in fn.checkpoints:
                if fn.is_budget_name(checkpoint.receiver) and not (
                    _handlers_cover(checkpoint.handlers)
                ):
                    yield self.finding(
                        entry,
                        checkpoint.lineno,
                        0,
                        f"{node} declares 'never raises' but checkpoints its "
                        f"budget outside any BudgetExceededError handler",
                    )
            reported: Set[int] = set()
            for edge in graph.out_edges.get(node, ()):
                if (
                    edge.callee in capable
                    and edge.passes_budget
                    and not _handlers_cover(edge.handlers)
                    and edge.lineno not in reported
                ):
                    reported.add(edge.lineno)
                    yield self.finding(
                        entry,
                        edge.lineno,
                        edge.col,
                        f"{node} declares 'never raises' but hands its budget "
                        f"to {edge.callee}, which can raise "
                        f"BudgetExceededError, outside any covering handler",
                    )


#: Catalogue order (code order), mirroring the per-file registry shape.
PROJECT_RULES: List[Type[ProjectRule]] = [
    BudgetReachabilityRule,
    PickleSafetyRule,
    ColumnarInternalsRule,
    NeverRaiseRule,
]

_BY_NAME: Dict[str, Type[ProjectRule]] = {rule.name: rule for rule in PROJECT_RULES}


def default_project_rules() -> List[ProjectRule]:
    """One instance of every whole-program rule."""
    return [rule_class() for rule_class in PROJECT_RULES]


def get_project_rules(names: Sequence[str]) -> List[ProjectRule]:
    """Instances of the named project rules, or all when empty.

    Raises
    ------
    KeyError
        For a name not in the catalogue (lists the valid names).
    """
    if not names:
        return default_project_rules()
    unknown = [name for name in names if name not in _BY_NAME]
    if unknown:
        raise KeyError(
            f"unknown project rule(s) {', '.join(sorted(unknown))}; "
            f"valid names: {', '.join(sorted(_BY_NAME))}"
        )
    wanted = set(names)
    return [
        rule_class() for rule_class in PROJECT_RULES if rule_class.name in wanted
    ]
