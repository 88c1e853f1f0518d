"""Project-wide symbol resolution and conservative call graph.

Nodes are ``"module:qualname"`` strings (``repro.experiments.runner:timed``,
``repro.incremental.msta:IncrementalMSTa.advance``,
``repro.experiments.msta_tables:_runtime_rows.<locals>.runtime_cell``).
Edges carry the metadata the interprocedural rules key off: whether the
call site passes a budget alias and which exception handlers enclose
it.

Beyond direct calls the builder resolves:

* imports (including package re-exports chased through ``__init__``
  import tables) and method calls on ``self``, on constructed locals
  (``with ParallelExecutor(...) as executor``), on annotated
  parameters, and on typed ``self.<attr>`` instance state;
* registry dispatch -- ``NAME[key](...)`` and ``runner = D.get(k);
  runner(...)`` expand to every function referenced in the literal
  container ``NAME``, wherever it is defined;
* **trampolines** -- functions that call a parameter (``timed``,
  ``timed_best_of``) or iterate a parameter of ``(label, fn)`` tuples
  and call the bound element.  Trampoline positions propagate through
  forwarding (a function that passes its own parameter into a known
  trampoline's callable slot is itself a trampoline), and each call
  into a trampoline synthesizes ``caller -> callable`` edges with the
  *call site's* budget/handler metadata -- which is exactly what
  REP201 needs to see a budget dropped at ``timed_best_of(rounds,
  solver, ...)``;
* ``<budget-alias>.cell(key, fn)`` -- the ExperimentContext cell
  protocol; the synthesized edge to ``fn`` is budget-passing by
  contract;
* ``<budget-alias>.checkpoint()`` -- an edge into
  ``Budget.checkpoint`` when the class is in the analyzed set.

Everything here consumes only :class:`ModuleSummary` data, never an
AST, so a graph built from cached summaries is identical to one built
from a fresh parse.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.project.symbols import (
    ArgInfo,
    BUDGET_PARAM_NAMES,
    CallSite,
    ClassSummary,
    FunctionSummary,
    LiteralInfo,
    ModuleSummary,
)

#: Annotation ids that are typing machinery, not project classes.
_TYPING_NAMES = frozenset(
    {
        "Optional", "List", "Dict", "Tuple", "Set", "FrozenSet", "Union",
        "Sequence", "Iterable", "Iterator", "Callable", "Any", "Mapping",
        "MutableMapping", "Type", "str", "int", "float", "bool", "bytes",
        "None", "object", "TYPE_CHECKING",
    }
)

_ANNOTATION_ID_RE = re.compile(r"id='([A-Za-z_][A-Za-z0-9_]*)'")

#: Resolution kinds returned by :meth:`ProjectGraph.resolve_value`.
FUNCTION = "function"
CLASS = "class"
MODULE = "module"
LITERAL = "literal"

Resolution = Tuple[str, str]  # (kind, payload)


@dataclass(frozen=True)
class Edge:
    """One (possibly synthesized) call edge."""

    caller: str
    callee: str
    lineno: int
    col: int
    passes_budget: bool
    handlers: Tuple[str, ...]
    synthesized: bool = False


@dataclass
class FunctionEntry:
    """A function node plus its owning module/class context."""

    node: str
    module: ModuleSummary
    summary: FunctionSummary
    cls: Optional[ClassSummary] = None


@dataclass
class ProjectGraph:
    """The whole-program view the interprocedural rules consume."""

    summaries: Dict[str, ModuleSummary]
    functions: Dict[str, FunctionEntry] = field(default_factory=dict)
    classes: Dict[str, Tuple[ModuleSummary, ClassSummary]] = field(
        default_factory=dict
    )
    edges: List[Edge] = field(default_factory=list)
    out_edges: Dict[str, List[Edge]] = field(default_factory=dict)
    in_edges: Dict[str, List[Edge]] = field(default_factory=dict)
    #: node -> set of (param_index, tuple_slot-or-None) callable positions
    trampolines: Dict[str, Set[Tuple[int, Optional[int]]]] = field(
        default_factory=dict
    )

    # ------------------------------------------------------------------
    # Flattening
    # ------------------------------------------------------------------
    def _index(self) -> None:
        for mod in self.summaries.values():
            for fn in mod.functions.values():
                node = f"{mod.module}:{fn.qualname}"
                self.functions[node] = FunctionEntry(node, mod, fn)
            for cls in mod.classes.values():
                self.classes[f"{mod.module}:{cls.name}"] = (mod, cls)
                for fn in cls.methods.values():
                    node = f"{mod.module}:{fn.qualname}"
                    self.functions[node] = FunctionEntry(node, mod, fn, cls)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve_global(self, dotted: str, depth: int = 0) -> Optional[Resolution]:
        """Resolve a fully-qualified dotted name across the project."""
        if depth > 12:
            return None
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.summaries:
                return self._resolve_in_module(
                    self.summaries[prefix], parts[cut:], depth
                )
        return None

    def _resolve_in_module(
        self, mod: ModuleSummary, rest: Sequence[str], depth: int
    ) -> Optional[Resolution]:
        if not rest:
            return (MODULE, mod.module)
        head = rest[0]
        if head in mod.functions and len(rest) == 1:
            return (FUNCTION, f"{mod.module}:{head}")
        if head in mod.classes:
            cls = mod.classes[head]
            if len(rest) == 1:
                return (CLASS, f"{mod.module}:{head}")
            if len(rest) == 2:
                return self._method_on(f"{mod.module}:{head}", rest[1])
            return None
        if head in mod.literals and len(rest) == 1:
            return (LITERAL, f"{mod.module}:{head}")
        if head in mod.imports:
            target = ".".join([mod.imports[head]] + list(rest[1:]))
            return self.resolve_global(target, depth + 1)
        return None

    def _method_on(self, class_node: str, method: str) -> Optional[Resolution]:
        seen: Set[str] = set()
        queue = [class_node]
        while queue:
            current = queue.pop(0)
            if current in seen or current not in self.classes:
                continue
            seen.add(current)
            mod, cls = self.classes[current]
            if method in cls.methods:
                return (FUNCTION, f"{mod.module}:{cls.methods[method].qualname}")
            for base in cls.bases:
                resolved = self.resolve_value(mod, None, None, base)
                for kind, payload in resolved:
                    if kind == CLASS:
                        queue.append(payload)
        return None

    def _class_named(self, name: str) -> Optional[str]:
        """A project class by bare name (deterministic: sorted modules)."""
        for module in sorted(self.summaries):
            if name in self.summaries[module].classes:
                return f"{module}:{name}"
        return None

    def annotation_classes(
        self, mod: ModuleSummary, annotation: str
    ) -> List[str]:
        """Project class nodes named inside an annotation dump string."""
        nodes = []
        for ident in _ANNOTATION_ID_RE.findall(annotation):
            if ident in _TYPING_NAMES:
                continue
            resolved = self.resolve_value(mod, None, None, ident)
            for kind, payload in resolved:
                if kind == CLASS and payload not in nodes:
                    nodes.append(payload)
        return nodes

    def resolve_value(
        self,
        mod: ModuleSummary,
        fn: Optional[FunctionSummary],
        cls: Optional[ClassSummary],
        dotted: str,
        depth: int = 0,
    ) -> List[Resolution]:
        """Resolve a dotted value expression in a function's scope.

        Returns a (possibly empty) candidate list; registry-dict locals
        expand to every function the container references.
        """
        if depth > 12 or not dotted:
            return []
        parts = dotted.split(".")
        head = parts[0]
        rest = parts[1:]
        if head == "self" and cls is not None:
            return self._resolve_self(mod, cls, rest, depth)
        if fn is not None:
            nested = f"{fn.qualname}.<locals>.{head}"
            if f"{mod.module}:{nested}" in self.functions and not rest:
                return [(FUNCTION, f"{mod.module}:{nested}")]
            if head in fn.locals:
                resolved = self._resolve_local(mod, fn, cls, head, rest, depth)
                if resolved:
                    return resolved
            if head in fn.literals and not rest:
                return [(LITERAL, f"{mod.module}:<{fn.qualname}>.{head}")]
            if head in fn.annotations and rest:
                for class_node in self.annotation_classes(
                    mod, fn.annotations[head]
                ):
                    if len(rest) == 1:
                        method = self._method_on(class_node, rest[0])
                        if method is not None:
                            return [method]
        single = self._resolve_in_module(mod, parts, depth)
        return [single] if single is not None else []

    def _resolve_self(
        self,
        mod: ModuleSummary,
        cls: ClassSummary,
        rest: Sequence[str],
        depth: int,
    ) -> List[Resolution]:
        if not rest:
            return []
        if len(rest) == 1:
            method = self._method_on(f"{mod.module}:{cls.name}", rest[0])
            return [method] if method is not None else []
        # ``self.<attr>.<method>`` through typed instance state.
        class_node = self.self_attr_class(mod, cls, rest[0])
        if class_node is not None and len(rest) == 2:
            method = self._method_on(class_node, rest[1])
            return [method] if method is not None else []
        return []

    def self_attr_class(
        self, mod: ModuleSummary, cls: ClassSummary, attr: str
    ) -> Optional[str]:
        """The class of ``self.<attr>``, from ``__init__`` or annotations."""
        init = cls.methods.get("__init__")
        if init is not None:
            value = init.locals.get(f"self.{attr}")
            if value is not None and value.target:
                if value.kind == "columnar":
                    return self._class_named("ColumnarEdgeStore")
                resolved = self.resolve_value(mod, init, cls, value.target)
                for kind, payload in resolved:
                    if kind == CLASS:
                        return payload
                # ``self._x = Budget.per_task(...)``: the head class.
                head = value.target.split(".")[0]
                for kind, payload in self.resolve_value(mod, None, None, head):
                    if kind == CLASS:
                        return payload
        if attr in cls.fields:
            nodes = self.annotation_classes(mod, cls.fields[attr])
            if nodes:
                return nodes[0]
        return None

    def _resolve_local(
        self,
        mod: ModuleSummary,
        fn: FunctionSummary,
        cls: Optional[ClassSummary],
        head: str,
        rest: Sequence[str],
        depth: int,
    ) -> List[Resolution]:
        value = fn.locals[head]
        if value.kind == "alias" and value.target:
            return self.resolve_value(
                mod, fn, cls, ".".join([value.target] + list(rest)), depth + 1
            )
        if value.kind == "partial" and value.target and not rest:
            return self.resolve_value(mod, fn, cls, value.target, depth + 1)
        if value.kind == "subscript" and value.container and not rest:
            return self.literal_resolutions(mod, fn, cls, value.container, None)
        if value.kind == "columnar":
            store = self._class_named("ColumnarEdgeStore")
            if store is None:
                return []
            if not rest:
                return [(CLASS, store)]
            if len(rest) == 1:
                method = self._method_on(store, rest[0])
                return [method] if method is not None else []
            return []
        if value.kind == "constructed" and value.target:
            resolved = self.resolve_value(mod, fn, cls, value.target, depth + 1)
            instance_class = None
            for kind, payload in resolved:
                if kind == CLASS:
                    instance_class = payload
                    break
            if instance_class is None and "." in value.target:
                # ``Budget.per_task(...)`` -- classmethod constructors.
                for kind, payload in self.resolve_value(
                    mod, fn, cls, value.target.split(".")[0], depth + 1
                ):
                    if kind == CLASS:
                        instance_class = payload
                        break
            if instance_class is not None:
                if not rest:
                    return [(CLASS, instance_class)]
                if len(rest) == 1:
                    method = self._method_on(instance_class, rest[0])
                    return [method] if method is not None else []
        return []

    # ------------------------------------------------------------------
    # Literal containers
    # ------------------------------------------------------------------
    def _find_literal(
        self,
        mod: ModuleSummary,
        fn: Optional[FunctionSummary],
        container: str,
    ) -> Optional[Tuple[ModuleSummary, Optional[FunctionSummary], LiteralInfo]]:
        if fn is not None and container in fn.literals:
            return (mod, fn, fn.literals[container])
        if container in mod.literals:
            return (mod, None, mod.literals[container])
        if container in mod.imports:
            resolved = self.resolve_global(mod.imports[container])
            if resolved is not None and resolved[0] == LITERAL:
                owner_name, literal_name = resolved[1].split(":", 1)
                owner = self.summaries[owner_name]
                return (owner, None, owner.literals[literal_name])
        return None

    def literal_resolutions(
        self,
        mod: ModuleSummary,
        fn: Optional[FunctionSummary],
        cls: Optional[ClassSummary],
        container: str,
        tuple_slot: Optional[int],
    ) -> List[Resolution]:
        """Everything a literal container's values resolve to.

        ``tuple_slot`` selects one position of tuple-shaped items (the
        ``for _name, solver in ALGORITHMS`` pattern); ``None`` takes the
        flat value list, which for dicts of ``(fn, extra)`` tuples also
        includes every tuple element (``SOLVERS[name]`` destructured
        later is beyond static reach, so be conservative and take all).
        """
        found = self._find_literal(mod, fn, container)
        if found is None:
            return []
        owner_mod, owner_fn, literal = found
        if tuple_slot is not None:
            names = list(literal.tuple_values.get(str(tuple_slot), []))
        else:
            names = list(literal.values)
            for values in literal.tuple_values.values():
                names.extend(values)
        out: List[Resolution] = []
        for name in names:
            for resolution in self.resolve_value(owner_mod, owner_fn, None, name):
                if resolution not in out:
                    out.append(resolution)
        return out

    def literal_functions(
        self,
        mod: ModuleSummary,
        fn: Optional[FunctionSummary],
        container: str,
        tuple_slot: Optional[int],
    ) -> List[str]:
        return [
            payload
            for kind, payload in self.literal_resolutions(
                mod, fn, None, container, tuple_slot
            )
            if kind == FUNCTION
        ]

    # ------------------------------------------------------------------
    # Budget metadata
    # ------------------------------------------------------------------
    @staticmethod
    def site_passes_budget(fn: FunctionSummary, site: CallSite) -> bool:
        """Whether a call site hands a budget to its callee."""
        for arg in site.args:
            if arg.root is not None and fn.is_budget_name(arg.root):
                return True
            if arg.slot in BUDGET_PARAM_NAMES and arg.kind == "other":
                # ``budget=Budget.per_task(...)`` style inline provisioning.
                return True
        return False

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    def _add_edge(self, edge: Edge) -> None:
        self.edges.append(edge)
        self.out_edges.setdefault(edge.caller, []).append(edge)
        self.in_edges.setdefault(edge.callee, []).append(edge)

    def _direct_targets(
        self, entry: FunctionEntry, site: CallSite
    ) -> List[str]:
        """Function nodes a call site resolves to without trampolining."""
        mod, fn, cls = entry.module, entry.summary, entry.cls
        targets: List[str] = []
        if site.subscript_of is not None:
            targets.extend(
                self.literal_functions(mod, fn, site.subscript_of, None)
            )
            return targets
        if site.target is None:
            return targets
        head = site.target.split(".")[0]
        if head in fn.for_bindings and site.target == head:
            binding = fn.for_bindings[head]
            if binding.iterable not in fn.params:
                targets.extend(
                    self.literal_functions(
                        mod, fn, binding.iterable, binding.position
                    )
                )
            return targets
        if site.target in fn.params:
            return targets  # trampoline seed, no static target
        for kind, payload in self.resolve_value(mod, fn, cls, site.target):
            if kind == FUNCTION and payload not in targets:
                targets.append(payload)
        return targets

    def _param_index(self, fn: FunctionSummary, name: str) -> Optional[int]:
        try:
            return fn.params.index(name)
        except ValueError:
            return None

    def _arg_for_param(
        self, callee: FunctionSummary, site: CallSite, index: int
    ) -> Optional[ArgInfo]:
        """The site argument feeding the callee's ``index``-th parameter.

        For bound-method calls through an attribute receiver the
        positional slots shift by one (``self``); trampolines in this
        codebase are module-level functions, so plain positional
        mapping plus keyword names is sufficient.
        """
        slot = str(index)
        name = callee.params[index] if index < len(callee.params) else None
        for arg in site.args:
            if arg.slot == slot or (name is not None and arg.slot == name):
                return arg
        return None

    def _seed_trampolines(self) -> None:
        for entry in self.functions.values():
            fn = entry.summary
            for site in fn.calls:
                if site.target is None or "." in site.target:
                    continue
                name = site.target
                index = self._param_index(fn, name)
                if index is not None:
                    self.trampolines.setdefault(entry.node, set()).add(
                        (index, None)
                    )
                    continue
                binding = fn.for_bindings.get(name)
                if binding is not None and binding.iterable in fn.params:
                    param_index = self._param_index(fn, binding.iterable)
                    if param_index is not None:
                        self.trampolines.setdefault(entry.node, set()).add(
                            (param_index, binding.position)
                        )

    def _propagate_trampolines(
        self, resolved: Dict[Tuple[str, int], List[str]]
    ) -> None:
        changed = True
        while changed:
            changed = False
            for entry in self.functions.values():
                fn = entry.summary
                for site_index, site in enumerate(fn.calls):
                    for callee_node in resolved.get((entry.node, site_index), []):
                        callee = self.functions.get(callee_node)
                        if callee is None:
                            continue
                        for index, slot in self.trampolines.get(
                            callee_node, ()
                        ):
                            arg = self._arg_for_param(
                                callee.summary, site, index
                            )
                            if arg is None or arg.root is None:
                                continue
                            position: Optional[Tuple[int, Optional[int]]] = None
                            param_index = self._param_index(fn, arg.root)
                            if param_index is not None:
                                position = (param_index, slot)
                            else:
                                binding = fn.for_bindings.get(arg.root)
                                if (
                                    binding is not None
                                    and slot is None
                                    and binding.iterable in fn.params
                                ):
                                    iter_index = self._param_index(
                                        fn, binding.iterable
                                    )
                                    if iter_index is not None:
                                        position = (
                                            iter_index,
                                            binding.position,
                                        )
                            if position is not None and position not in (
                                self.trampolines.get(entry.node, set())
                            ):
                                self.trampolines.setdefault(
                                    entry.node, set()
                                ).add(position)
                                changed = True

    def _callable_candidates(
        self,
        entry: FunctionEntry,
        arg: ArgInfo,
        tuple_slot: Optional[int],
    ) -> List[str]:
        """Function nodes a callable-position argument can stand for."""
        mod, fn, cls = entry.module, entry.summary, entry.cls
        if arg.kind == "lambda":
            return []
        if arg.kind == "subscript" and arg.container is not None:
            return self.literal_functions(mod, fn, arg.container, tuple_slot)
        if arg.root is None:
            return []
        root = arg.root
        binding = fn.for_bindings.get(root)
        if binding is not None:
            if binding.iterable in fn.params:
                return []  # covered by trampoline propagation
            return self.literal_functions(
                mod, fn, binding.iterable, binding.position
            )
        if tuple_slot is not None:
            # The argument is a container of tuples; take the slot.
            return self.literal_functions(mod, fn, root, tuple_slot)
        if root in fn.params:
            return []
        return [
            payload
            for kind, payload in self.resolve_value(mod, fn, cls, root)
            if kind == FUNCTION
        ]

    def build(self) -> None:
        """Index, resolve, propagate trampolines, and materialize edges."""
        self._index()
        resolved: Dict[Tuple[str, int], List[str]] = {}
        for entry in self.functions.values():
            for site_index, site in enumerate(entry.summary.calls):
                resolved[(entry.node, site_index)] = self._direct_targets(
                    entry, site
                )
        self._seed_trampolines()
        self._propagate_trampolines(resolved)
        budget_checkpoint = None
        budget_class = self._class_named("Budget")
        if budget_class is not None:
            method = self._method_on(budget_class, "checkpoint")
            if method is not None:
                budget_checkpoint = method[1]
        for entry in self.functions.values():
            fn = entry.summary
            for site_index, site in enumerate(fn.calls):
                passes = self.site_passes_budget(fn, site)
                handlers = tuple(site.handlers)
                for target in resolved[(entry.node, site_index)]:
                    self._add_edge(
                        Edge(
                            caller=entry.node,
                            callee=target,
                            lineno=site.lineno,
                            col=site.col,
                            passes_budget=passes,
                            handlers=handlers,
                        )
                    )
                    for index, slot in self.trampolines.get(target, ()):
                        callee = self.functions.get(target)
                        if callee is None:
                            continue
                        arg = self._arg_for_param(callee.summary, site, index)
                        if arg is None:
                            continue
                        for candidate in self._callable_candidates(
                            entry, arg, slot
                        ):
                            self._add_edge(
                                Edge(
                                    caller=entry.node,
                                    callee=candidate,
                                    lineno=site.lineno,
                                    col=site.col,
                                    passes_budget=passes,
                                    handlers=handlers,
                                    synthesized=True,
                                )
                            )
                # The ExperimentContext cell protocol: ``ctx.cell(key,
                # fn)`` runs ``fn(budget)`` under the context's budget.
                if (
                    site.target is not None
                    and site.target.endswith(".cell")
                    and fn.is_budget_name(site.target.rsplit(".", 1)[0])
                ):
                    arg = None
                    for candidate_arg in site.args:
                        if candidate_arg.slot == "1":
                            arg = candidate_arg
                    if arg is not None:
                        for candidate in self._callable_candidates(
                            entry, arg, None
                        ):
                            self._add_edge(
                                Edge(
                                    caller=entry.node,
                                    callee=candidate,
                                    lineno=site.lineno,
                                    col=site.col,
                                    passes_budget=True,
                                    handlers=handlers,
                                    synthesized=True,
                                )
                            )
            if budget_checkpoint is not None:
                for checkpoint in fn.checkpoints:
                    if fn.is_budget_name(checkpoint.receiver):
                        self._add_edge(
                            Edge(
                                caller=entry.node,
                                callee=budget_checkpoint,
                                lineno=checkpoint.lineno,
                                col=0,
                                passes_budget=True,
                                handlers=tuple(checkpoint.handlers),
                                synthesized=True,
                            )
                        )

    # ------------------------------------------------------------------
    # Entry points and reachability
    # ------------------------------------------------------------------
    def entry_nodes(self) -> List[str]:
        """CLI/experiment/worker entry points, sorted for determinism."""
        entries = []
        for node, entry in self.functions.items():
            if entry.cls is not None:
                continue
            name = entry.summary.qualname
            if "." in name:
                continue
            module = entry.module.module
            if module == "repro.cli" and (
                name == "main" or name.startswith("_cmd")
            ):
                entries.append(node)
            elif module.startswith("repro.experiments") and (
                name == "run" or name.startswith("run_")
            ):
                entries.append(node)
            elif module == "repro.parallel.tasks" and name == "run_cell_task":
                entries.append(node)
            elif module == "repro.parallel.batch" and name in (
                "run_batch",
                "run_sweep_cell",
                "run_sweep_serial",
            ):
                entries.append(node)
        return sorted(entries)

    def reachable_from(self, roots: Sequence[str]) -> Set[str]:
        seen: Set[str] = set(roots)
        queue = list(roots)
        while queue:
            current = queue.pop()
            for edge in self.out_edges.get(current, ()):
                if edge.callee not in seen:
                    seen.add(edge.callee)
                    queue.append(edge.callee)
        return seen


def build_graph(summaries: Dict[str, ModuleSummary]) -> ProjectGraph:
    """Construct and build the project graph from module summaries."""
    graph = ProjectGraph(summaries=dict(summaries))
    graph.build()
    return graph
