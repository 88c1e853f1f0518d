"""Per-module syntactic summaries for the whole-program pass.

The interprocedural rules never touch an AST: every fact they need is
extracted here, once per module, into plain-data
:class:`ModuleSummary` objects that serialize losslessly to JSON (the
on-disk cache stores exactly these, so a warm run and a cold run feed
the rules byte-identical inputs).

A summary records, per function (methods and nested closures
included, keyed by qualname):

* parameters, annotations, and the *budget aliases* visible in the
  body -- parameters named ``budget``/``ctx``/``context``, parameters
  annotated with ``Budget``/``ExperimentContext``, and locals assigned
  from those names or from ``Budget(...)`` / ``Budget.per_task(...)``
  / ``ExperimentContext(...)`` constructions;
* every call site, with the dotted callee expression, the dotted root
  of each argument, lambda / locally-defined callables passed as
  arguments, and the enclosing ``try`` handlers;
* ``for`` loops that destructure a named iterable into tuple targets
  (the ``for name, solver in algorithms:`` pattern the call-graph
  layer uses to resolve escaped solver callables);
* raise sites, ``<budget>.checkpoint()`` sites, and private-attribute
  accesses (REP203 keeps those on inferred :class:`ColumnarEdgeStore`
  receivers);
* the ``"never raises"`` docstring marker of the REP204 contract.

Module level, it records imports (for symbol resolution and the
import-graph SCCs the cache invalidates by), ``__all__``, literal
containers of function references (solver registries), class
inventories (dataclass fields, ``__reduce__`` presence, lossy
``__init__`` detection), and the per-line suppression table.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.astutil import dotted_name
from repro.analysis.core import parse_module

#: Bump when the summary shape changes: stale caches must not be read.
SUMMARY_VERSION = 2

#: Parameter names treated as budget-carrying regardless of annotation.
BUDGET_PARAM_NAMES = ("budget", "ctx", "context")

#: Annotation substrings that mark a parameter as budget-carrying.
BUDGET_ANNOTATIONS = ("Budget", "ExperimentContext")

#: Constructors whose results are budget aliases (and count as local
#: budget provisioning).
BUDGET_CONSTRUCTORS = ("Budget", "Budget.per_task", "ExperimentContext")

#: Docstring marker of the "exact answer + caveat, never raises"
#: contract checked by REP204.
NEVER_RAISES_MARKER = "never raises"


def _hash_source(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


@dataclass
class ArgInfo:
    """One argument at a call site: its slot and what it syntactically is."""

    slot: str  # "0", "1", ... for positionals; the keyword name otherwise
    root: Optional[str] = None  # dotted name of the value, if it has one
    kind: str = "other"  # name | lambda | localfunc | localclass | subscript | literal | other
    starred: bool = False
    container: Optional[str] = None  # NAME for NAME[...] subscript arguments


@dataclass
class CallSite:
    """One call expression inside a function body."""

    target: Optional[str]  # dotted callee ("timed", "self._solve", ...)
    lineno: int
    col: int
    args: List[ArgInfo] = field(default_factory=list)
    subscript_of: Optional[str] = None  # NAME for NAME[...](...) / NAME.get(...)(...)
    handlers: List[str] = field(default_factory=list)


@dataclass
class RaiseSite:
    """A ``raise`` statement and the exception's dotted name."""

    exception: Optional[str]
    lineno: int
    handlers: List[str] = field(default_factory=list)


@dataclass
class CheckpointSite:
    """A ``<receiver>.checkpoint(...)`` call."""

    receiver: str
    lineno: int
    handlers: List[str] = field(default_factory=list)


@dataclass
class AttrUse:
    """A private-attribute access on a receiver."""

    receiver: str  # dotted receiver expression root ("store", "self.index")
    attr: str
    lineno: int
    col: int
    is_call: bool = False


@dataclass
class ForBinding:
    """A tuple-destructuring loop target: ``for _, solver in algorithms:``."""

    iterable: str  # dotted root of the iterated expression
    position: Optional[int]  # tuple slot of this target, None for whole-item


@dataclass
class LocalValue:
    """What a local name was assigned from (the shapes rules care about)."""

    kind: str  # alias | constructed | subscript | partial | columnar
    target: Optional[str] = None  # aliased/constructed/partial-ed dotted name
    container: Optional[str] = None  # NAME for subscript/.get() loads


@dataclass
class FunctionSummary:
    """Everything the interprocedural rules need about one function."""

    qualname: str
    lineno: int
    params: List[str] = field(default_factory=list)
    annotations: Dict[str, str] = field(default_factory=dict)
    budget_aliases: List[str] = field(default_factory=list)
    provisions_budget: bool = False
    never_raises: bool = False
    calls: List[CallSite] = field(default_factory=list)
    raises: List[RaiseSite] = field(default_factory=list)
    checkpoints: List[CheckpointSite] = field(default_factory=list)
    attr_uses: List[AttrUse] = field(default_factory=list)
    for_bindings: Dict[str, ForBinding] = field(default_factory=dict)
    locals: Dict[str, LocalValue] = field(default_factory=dict)
    literals: Dict[str, "LiteralInfo"] = field(default_factory=dict)

    def is_budget_name(self, name: Optional[str]) -> bool:
        """Whether a dotted expression is rooted at a budget alias."""
        if not name:
            return False
        return name.split(".", 1)[0] in self.budget_aliases


@dataclass
class LiteralInfo:
    """A module-level literal container holding function references.

    ``values`` collects every bare dotted reference in the container
    (dict values, list/tuple items); ``tuple_values`` maps tuple slot
    positions to the references found there, for the destructuring
    loops the call graph resolves.
    """

    lineno: int
    values: List[str] = field(default_factory=list)
    tuple_values: Dict[str, List[str]] = field(default_factory=dict)


@dataclass
class ClassSummary:
    """One class definition, as the pickle and call-graph layers see it."""

    name: str
    lineno: int
    bases: List[str] = field(default_factory=list)
    is_dataclass: bool = False
    fields: Dict[str, str] = field(default_factory=dict)
    methods: Dict[str, FunctionSummary] = field(default_factory=dict)
    has_reduce: bool = False
    init_lossy: bool = False
    init_params: List[str] = field(default_factory=list)


@dataclass
class ModuleSummary:
    """The per-module unit of the whole-program analysis (and its cache)."""

    module: str
    path: str
    source_hash: str
    imports: Dict[str, str] = field(default_factory=dict)
    import_modules: List[str] = field(default_factory=list)
    exports: List[str] = field(default_factory=list)
    literals: Dict[str, LiteralInfo] = field(default_factory=dict)
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    classes: Dict[str, ClassSummary] = field(default_factory=dict)
    suppressions: Dict[str, Optional[List[str]]] = field(default_factory=dict)

    def is_suppressed(self, line: int, rule: str) -> bool:
        key = str(line)
        if key not in self.suppressions:
            return False
        rules = self.suppressions[key]
        return rules is None or rule in rules

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


# ----------------------------------------------------------------------
# Deserialization (the cache's read path)
# ----------------------------------------------------------------------
def _function_from_dict(data: Dict[str, Any]) -> FunctionSummary:
    return FunctionSummary(
        qualname=data["qualname"],
        lineno=data["lineno"],
        params=list(data.get("params", [])),
        annotations=dict(data.get("annotations", {})),
        budget_aliases=list(data.get("budget_aliases", [])),
        provisions_budget=bool(data.get("provisions_budget", False)),
        never_raises=bool(data.get("never_raises", False)),
        calls=[
            CallSite(
                target=c.get("target"),
                lineno=c["lineno"],
                col=c.get("col", 0),
                args=[ArgInfo(**a) for a in c.get("args", [])],
                subscript_of=c.get("subscript_of"),
                handlers=list(c.get("handlers", [])),
            )
            for c in data.get("calls", [])
        ],
        raises=[RaiseSite(**r) for r in data.get("raises", [])],
        checkpoints=[CheckpointSite(**c) for c in data.get("checkpoints", [])],
        attr_uses=[AttrUse(**a) for a in data.get("attr_uses", [])],
        for_bindings={
            name: ForBinding(**b) for name, b in data.get("for_bindings", {}).items()
        },
        locals={
            name: LocalValue(**v) for name, v in data.get("locals", {}).items()
        },
        literals={
            name: LiteralInfo(
                lineno=lit["lineno"],
                values=list(lit.get("values", [])),
                tuple_values={
                    pos: list(vals)
                    for pos, vals in lit.get("tuple_values", {}).items()
                },
            )
            for name, lit in data.get("literals", {}).items()
        },
    )


def module_from_dict(data: Dict[str, Any]) -> ModuleSummary:
    """Rebuild a :class:`ModuleSummary` from its JSON form."""
    return ModuleSummary(
        module=data["module"],
        path=data["path"],
        source_hash=data["source_hash"],
        imports=dict(data.get("imports", {})),
        import_modules=list(data.get("import_modules", [])),
        exports=list(data.get("exports", [])),
        literals={
            name: LiteralInfo(
                lineno=lit["lineno"],
                values=list(lit.get("values", [])),
                tuple_values={
                    pos: list(vals)
                    for pos, vals in lit.get("tuple_values", {}).items()
                },
            )
            for name, lit in data.get("literals", {}).items()
        },
        functions={
            name: _function_from_dict(fn)
            for name, fn in data.get("functions", {}).items()
        },
        classes={
            name: ClassSummary(
                name=cls["name"],
                lineno=cls["lineno"],
                bases=list(cls.get("bases", [])),
                is_dataclass=bool(cls.get("is_dataclass", False)),
                fields=dict(cls.get("fields", {})),
                methods={
                    m: _function_from_dict(fn)
                    for m, fn in cls.get("methods", {}).items()
                },
                has_reduce=bool(cls.get("has_reduce", False)),
                init_lossy=bool(cls.get("init_lossy", False)),
                init_params=list(cls.get("init_params", [])),
            )
            for name, cls in data.get("classes", {}).items()
        },
        suppressions={
            line: (list(rules) if rules is not None else None)
            for line, rules in data.get("suppressions", {}).items()
        },
    )


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------
class _FunctionExtractor:
    """Walks one function body (not descending into nested defs)."""

    def __init__(
        self,
        node: ast.AST,
        qualname: str,
        local_function_names: Tuple[str, ...],
        local_class_names: Tuple[str, ...],
    ) -> None:
        self.summary = FunctionSummary(
            qualname=qualname, lineno=getattr(node, "lineno", 1)
        )
        self._local_funcs = local_function_names
        self._local_classes = local_class_names

    # -- parameters ----------------------------------------------------
    def take_params(self, args: ast.arguments) -> None:
        summary = self.summary
        all_args = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        for arg in all_args:
            summary.params.append(arg.arg)
            if arg.annotation is not None:
                summary.annotations[arg.arg] = ast.dump(arg.annotation)
        if args.vararg is not None:
            summary.params.append("*" + args.vararg.arg)
        for name in summary.params:
            if name in BUDGET_PARAM_NAMES:
                summary.budget_aliases.append(name)
            elif any(
                marker in summary.annotations.get(name, "")
                for marker in BUDGET_ANNOTATIONS
            ):
                summary.budget_aliases.append(name)

    def take_docstring(self, node: ast.AST) -> None:
        body = getattr(node, "body", None)
        if not body:
            return
        first = body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
            and NEVER_RAISES_MARKER in first.value.value.lower()
        ):
            self.summary.never_raises = True

    # -- body walk -----------------------------------------------------
    def walk(self, body: List[ast.stmt]) -> None:
        self._walk_block(body, handlers=())

    def _walk_block(self, block: List[ast.stmt], handlers: Tuple[str, ...]) -> None:
        for statement in block:
            self._walk_statement(statement, handlers)

    def _walk_statement(self, statement: ast.stmt, handlers: Tuple[str, ...]) -> None:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs are summarized separately
        if isinstance(statement, ast.ClassDef):
            return
        if isinstance(statement, ast.Try):
            caught: List[str] = []
            for handler in statement.handlers:
                caught.extend(_handler_names(handler))
            inner = handlers + tuple(caught)
            self._walk_block(statement.body, inner)
            for handler in statement.handlers:
                self._walk_block(handler.body, handlers)
            self._walk_block(statement.orelse, handlers)
            self._walk_block(statement.finalbody, handlers)
            return
        if isinstance(statement, (ast.For, ast.AsyncFor)):
            self._record_for(statement)
            self._scan_expressions(statement.iter, handlers)
            self._walk_block(statement.body, handlers)
            self._walk_block(statement.orelse, handlers)
            return
        if isinstance(statement, ast.While):
            self._scan_expressions(statement.test, handlers)
            self._walk_block(statement.body, handlers)
            self._walk_block(statement.orelse, handlers)
            return
        if isinstance(statement, (ast.With, ast.AsyncWith)):
            for item in statement.items:
                self._record_with_item(item)
                self._scan_expressions(item.context_expr, handlers)
            self._walk_block(statement.body, handlers)
            return
        if isinstance(statement, ast.Assign):
            self._record_assign(statement)
        if isinstance(statement, ast.AnnAssign) and statement.value is not None:
            if isinstance(statement.target, ast.Name):
                self._record_local(statement.target.id, statement.value)
        if isinstance(statement, ast.Raise):
            exc = statement.exc
            name = None
            if isinstance(exc, ast.Call):
                name = dotted_name(exc.func)
            elif exc is not None:
                name = dotted_name(exc)
            self.summary.raises.append(
                RaiseSite(
                    exception=name,
                    lineno=statement.lineno,
                    handlers=list(handlers),
                )
            )
        for child in ast.iter_child_nodes(statement):
            if isinstance(child, ast.expr):
                self._scan_expressions(child, handlers)
            elif isinstance(child, ast.stmt):
                self._walk_statement(child, handlers)

    # -- recorders -----------------------------------------------------
    def _record_for(self, statement: ast.stmt) -> None:
        target = getattr(statement, "target", None)
        iterable = dotted_name(getattr(statement, "iter", ast.Constant(value=None)))
        if iterable is None:
            return
        if isinstance(target, ast.Name):
            self.summary.for_bindings[target.id] = ForBinding(
                iterable=iterable, position=None
            )
        elif isinstance(target, ast.Tuple):
            for position, element in enumerate(target.elts):
                if isinstance(element, ast.Name):
                    self.summary.for_bindings[element.id] = ForBinding(
                        iterable=iterable, position=position
                    )

    def _record_with_item(self, item: ast.withitem) -> None:
        if not isinstance(item.optional_vars, ast.Name):
            return
        if isinstance(item.context_expr, ast.Call):
            target = dotted_name(item.context_expr.func)
            if target:
                self.summary.locals[item.optional_vars.id] = LocalValue(
                    kind="constructed", target=target
                )

    def _record_assign(self, statement: ast.Assign) -> None:
        if len(statement.targets) != 1:
            return
        target = statement.targets[0]
        if isinstance(target, ast.Name):
            self._record_local(target.id, statement.value)
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            # ``self.<attr> = ...`` in __init__ types instance state for
            # the call graph's self-attribute resolution.
            self._record_local(f"self.{target.attr}", statement.value)

    def _record_local(self, name: str, value: ast.expr) -> None:
        summary = self.summary
        literal = _literal_info(value, getattr(value, "lineno", summary.lineno))
        if literal is not None:
            summary.literals[name] = literal
            return
        if isinstance(value, ast.Call):
            target = dotted_name(value.func)
            if target is not None:
                tail = target.split(".")[-1]
                if target in BUDGET_CONSTRUCTORS or tail == "per_task":
                    summary.budget_aliases.append(name)
                    summary.provisions_budget = True
                    summary.locals[name] = LocalValue(kind="constructed", target=target)
                    return
                if tail == "columnar":
                    summary.locals[name] = LocalValue(kind="columnar", target=target)
                    return
                if tail == "partial" and value.args:
                    inner = dotted_name(value.args[0])
                    if inner is not None:
                        summary.locals[name] = LocalValue(kind="partial", target=inner)
                        return
                if tail == "get" and isinstance(value.func, ast.Attribute):
                    container = dotted_name(value.func.value)
                    if container is not None:
                        summary.locals[name] = LocalValue(
                            kind="subscript", container=container
                        )
                        return
                summary.locals[name] = LocalValue(kind="constructed", target=target)
            return
        if isinstance(value, ast.Subscript):
            container = dotted_name(value.value)
            if container is not None:
                summary.locals[name] = LocalValue(kind="subscript", container=container)
            return
        if isinstance(value, ast.Name) or isinstance(value, ast.Attribute):
            target = dotted_name(value)
            if target is not None:
                if target.split(".", 1)[0] in summary.budget_aliases:
                    summary.budget_aliases.append(name)
                summary.locals[name] = LocalValue(kind="alias", target=target)
            return
        if isinstance(value, ast.IfExp):
            roots = [
                node.id for node in ast.walk(value) if isinstance(node, ast.Name)
            ]
            if any(root in summary.budget_aliases for root in roots) or (
                "NULL_BUDGET" in roots
            ):
                summary.budget_aliases.append(name)

    # -- expression scan -----------------------------------------------
    def _scan_expressions(self, node: ast.expr, handlers: Tuple[str, ...]) -> None:
        for expr in ast.walk(node):
            if isinstance(expr, (ast.Lambda,)):
                continue
            if isinstance(expr, ast.Call):
                self._record_call(expr, handlers)
            elif isinstance(expr, ast.Attribute) and isinstance(
                expr.ctx, (ast.Load, ast.Store)
            ):
                self._record_attr(expr)

    def _classify_arg(self, slot: str, value: ast.expr) -> ArgInfo:
        if isinstance(value, ast.Lambda):
            return ArgInfo(slot=slot, kind="lambda")
        if isinstance(value, ast.Starred):
            root = dotted_name(value.value)
            return ArgInfo(
                slot=slot,
                root=root,
                kind="name" if root else "other",
                starred=True,
            )
        root = dotted_name(value)
        if root is not None:
            if root in self._local_funcs:
                return ArgInfo(slot=slot, root=root, kind="localfunc")
            if root in self._local_classes:
                return ArgInfo(slot=slot, root=root, kind="localclass")
            return ArgInfo(slot=slot, root=root, kind="name")
        if isinstance(value, ast.Subscript):
            container = dotted_name(value.value)
            if container is not None:
                return ArgInfo(slot=slot, kind="subscript", container=container)
        if isinstance(value, ast.Constant):
            return ArgInfo(slot=slot, kind="literal")
        return ArgInfo(slot=slot, kind="other")

    def _record_call(self, call: ast.Call, handlers: Tuple[str, ...]) -> None:
        target = dotted_name(call.func)
        subscript_of = None
        if target is None and isinstance(call.func, ast.Subscript):
            subscript_of = dotted_name(call.func.value)
        args = [
            self._classify_arg(str(index), value)
            for index, value in enumerate(call.args)
        ]
        args.extend(
            self._classify_arg(keyword.arg, keyword.value)
            for keyword in call.keywords
            if keyword.arg is not None
        )
        site = CallSite(
            target=target,
            lineno=call.lineno,
            col=call.col_offset,
            args=args,
            subscript_of=subscript_of,
            handlers=list(handlers),
        )
        self.summary.calls.append(site)
        if target is not None and target.endswith(".checkpoint"):
            self.summary.checkpoints.append(
                CheckpointSite(
                    receiver=target.rsplit(".", 1)[0],
                    lineno=call.lineno,
                    handlers=list(handlers),
                )
            )

    def _record_attr(self, attr: ast.Attribute) -> None:
        if not attr.attr.startswith("_") or attr.attr.startswith("__"):
            return
        receiver = dotted_name(attr.value)
        if receiver is None:
            return
        self.summary.attr_uses.append(
            AttrUse(
                receiver=receiver,
                attr=attr.attr,
                lineno=attr.lineno,
                col=attr.col_offset,
            )
        )


def _handler_names(handler: ast.ExceptHandler) -> List[str]:
    if handler.type is None:
        return ["BaseException"]
    if isinstance(handler.type, ast.Tuple):
        names = [dotted_name(element) for element in handler.type.elts]
        return [name for name in names if name is not None]
    name = dotted_name(handler.type)
    return [name] if name is not None else []


def _literal_info(value: ast.expr, lineno: int) -> Optional[LiteralInfo]:
    """A :class:`LiteralInfo` for dict/list/tuple literals holding names."""
    info = LiteralInfo(lineno=lineno)

    def record_item(item: ast.expr) -> None:
        name = dotted_name(item)
        if name is not None:
            info.values.append(name)
            return
        if isinstance(item, ast.Tuple):
            for position, element in enumerate(item.elts):
                element_name = dotted_name(element)
                if element_name is not None:
                    info.tuple_values.setdefault(str(position), []).append(
                        element_name
                    )

    if isinstance(value, ast.Dict):
        for item in value.values:
            record_item(item)
    elif isinstance(value, (ast.List, ast.Tuple, ast.Set)):
        for item in value.elts:
            record_item(item)
    else:
        return None
    if not info.values and not info.tuple_values:
        return None
    return info


def _extract_function(
    node: ast.AST,
    qualname: str,
    sink: Dict[str, FunctionSummary],
) -> FunctionSummary:
    body = getattr(node, "body", [])
    local_funcs = tuple(
        child.name
        for child in body
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
    )
    local_classes = tuple(
        child.name for child in body if isinstance(child, ast.ClassDef)
    )
    extractor = _FunctionExtractor(node, qualname, local_funcs, local_classes)
    args = getattr(node, "args", None)
    if args is not None:
        extractor.take_params(args)
    extractor.take_docstring(node)
    extractor.walk(body)
    # Nested defs get their own summaries, qualified under this one.
    for child in body:
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested_name = f"{qualname}.<locals>.{child.name}"
            sink[nested_name] = _extract_function(child, nested_name, sink)
    return extractor.summary


def _lossy_init(init: ast.FunctionDef) -> bool:
    """Whether ``__init__`` keeps state its ``super().__init__`` drops.

    Heuristic matched to the exception-pickling hazard: the method both
    calls ``super().__init__`` with *fewer* arguments than it has
    non-self parameters and assigns ``self.<attr>`` for the leftovers.
    Such a type reconstructs from ``args`` alone across a pickle
    boundary and silently loses the extra attributes.
    """
    params = [a.arg for a in init.args.args[1:]] + [
        a.arg for a in init.args.kwonlyargs
    ]
    super_args: Optional[int] = None
    assigns_self = False
    for node in ast.walk(init):
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name == "super.__init__":  # dotted_name can't see super()
                super_args = len(node.args)
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "__init__"
                and isinstance(node.func.value, ast.Call)
                and dotted_name(node.func.value.func) == "super"
            ):
                super_args = len(node.args)
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    assigns_self = True
    if super_args is None:
        return False
    return assigns_self and super_args < len(params)


def _extract_class(node: ast.ClassDef) -> ClassSummary:
    summary = ClassSummary(name=node.name, lineno=node.lineno)
    for decorator in node.decorator_list:
        name = dotted_name(decorator) or (
            dotted_name(decorator.func) if isinstance(decorator, ast.Call) else None
        )
        if name is not None and name.split(".")[-1] == "dataclass":
            summary.is_dataclass = True
    for base in node.bases:
        name = dotted_name(base)
        if name is not None:
            summary.bases.append(name)
    nested: Dict[str, FunctionSummary] = {}
    for child in node.body:
        if isinstance(child, ast.AnnAssign) and isinstance(child.target, ast.Name):
            summary.fields[child.target.id] = ast.dump(child.annotation)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if child.name == "__reduce__":
                summary.has_reduce = True
            qualname = f"{node.name}.{child.name}"
            summary.methods[child.name] = _extract_function(child, qualname, nested)
            if child.name == "__init__" and isinstance(child, ast.FunctionDef):
                summary.init_params = [a.arg for a in child.args.args[1:]]
                summary.init_lossy = _lossy_init(child)
    for qualname, fn in nested.items():
        summary.methods[qualname.split(".", 1)[-1]] = fn
    return summary


def summarize_module(path: str, module_name: str) -> ModuleSummary:
    """Parse one file and extract its :class:`ModuleSummary`.

    Raises
    ------
    SyntaxError
        When the file does not parse; the driver converts this into a
        ``parse-error`` finding exactly like the per-file linter does.
    """
    parsed = parse_module(path)
    tree = parsed.tree
    summary = ModuleSummary(
        module=module_name,
        path=path,
        source_hash=_hash_source(parsed.source),
        suppressions={
            str(line): (sorted(rules) if rules is not None else None)
            for line, rules in parsed.suppressions.items()
        },
    )
    package = module_name.rsplit(".", 1)[0] if "." in module_name else module_name
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                summary.imports[local] = alias.name if alias.asname else (
                    alias.name.split(".", 1)[0]
                )
                if alias.name.startswith("repro"):
                    summary.import_modules.append(alias.name)
        elif isinstance(node, ast.ImportFrom):
            source_module = node.module or ""
            if node.level:
                base = module_name.rsplit(".", node.level)[0] if (
                    "." in module_name
                ) else package
                source_module = (
                    f"{base}.{source_module}" if source_module else base
                )
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                summary.imports[local] = f"{source_module}.{alias.name}"
            if source_module.startswith("repro"):
                summary.import_modules.append(source_module)
        elif isinstance(node, ast.Assign):
            if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
                name = node.targets[0].id
                if name == "__all__" and isinstance(
                    node.value, (ast.List, ast.Tuple)
                ):
                    summary.exports = [
                        element.value
                        for element in node.value.elts
                        if isinstance(element, ast.Constant)
                        and isinstance(element.value, str)
                    ]
                else:
                    literal = _literal_info(node.value, node.lineno)
                    if literal is not None:
                        summary.literals[name] = literal
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summary.functions[node.name] = _extract_function(
                node, node.name, summary.functions
            )
        elif isinstance(node, ast.ClassDef):
            summary.classes[node.name] = _extract_class(node)
    # Function-scoped imports matter for resolution too (the fallback
    # ladder and the engine import solvers lazily); fold them into the
    # module import table -- names are unique enough in practice.
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.col_offset > 0:
            source_module = node.module or ""
            if source_module.startswith("repro"):
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    summary.imports.setdefault(
                        local, f"{source_module}.{alias.name}"
                    )
                summary.import_modules.append(source_module)
    summary.import_modules = sorted(set(summary.import_modules))
    return summary
