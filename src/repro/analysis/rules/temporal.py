"""Rule: temporal edges are built through the validated factory.

:class:`repro.temporal.edge.TemporalEdge` is a plain ``NamedTuple`` --
constructing one directly performs no validation, so an ``arrival <
start`` edge produced by a generator or transform only explodes later
(or worse, silently corrupts arrival times).  Library code must build
edges through :func:`repro.temporal.edge.make_edge`, which enforces
``arrival >= start`` and ``weight >= 0`` at the construction site.
Only the owning modules (the edge module itself, the graph container
that re-validates every edge, and the IO parsers with their own
field-level validation) may construct ``TemporalEdge`` directly.

Handing the class itself to another callable -- ``map(TemporalEdge,
...)``, ``starmap(TemporalEdge, ...)``, ``map(TemporalEdge._make,
...)`` -- builds edges just the same and is flagged too; only the
type checks ``isinstance``/``issubclass`` may take it as an argument.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.analysis.core import Finding, ParsedModule, Rule

#: Modules that validate what they build and may construct directly.
ALLOWED_MODULES = frozenset(
    {
        "repro.temporal.edge",
        "repro.temporal.graph",
        "repro.temporal.io",
    }
)


#: Calls that take the class as a type to test against, not to build with.
TYPE_CHECKS = frozenset({"isinstance", "issubclass"})


def _is_temporal_edge(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "TemporalEdge"
    return isinstance(node, ast.Attribute) and node.attr == "TemporalEdge"


def _edge_builder_reference(node: ast.AST) -> bool:
    """``TemporalEdge`` or its ``_make``/``_replace``, used as a value."""
    if isinstance(node, ast.Starred):
        node = node.value
    if _is_temporal_edge(node):
        return True
    return (
        isinstance(node, ast.Attribute)
        and node.attr in {"_make", "_replace"}
        and _is_temporal_edge(node.value)
    )


def _passes_temporal_edge(node: ast.Call) -> List[ast.expr]:
    """The arguments of ``node`` that hand over an edge builder."""
    if isinstance(node.func, ast.Name) and node.func.id in TYPE_CHECKS:
        return []
    values = list(node.args) + [keyword.value for keyword in node.keywords]
    return [value for value in values if _edge_builder_reference(value)]


def _constructs_temporal_edge(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "TemporalEdge"
    if isinstance(func, ast.Attribute):
        if func.attr == "TemporalEdge":
            return True
        # TemporalEdge._make(...) / TemporalEdge._replace would bypass
        # validation just the same.
        if func.attr in {"_make", "_replace"} and isinstance(func.value, ast.Name):
            return func.value.id == "TemporalEdge"
    return False


class TemporalInvariantRule(Rule):
    name = "temporal-invariant"
    code = "REP105"
    description = (
        "library code constructs temporal edges via make_edge() (which "
        "enforces arrival >= start), not TemporalEdge(...) directly"
    )

    def applies(self, module: ParsedModule) -> bool:
        name = module.module_name
        if name is None or not (name == "repro" or name.startswith("repro.")):
            return False
        return name not in ALLOWED_MODULES

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if _constructs_temporal_edge(node):
                yield self.finding(
                    module,
                    node,
                    "direct TemporalEdge construction bypasses validation; "
                    "use repro.temporal.edge.make_edge(...)",
                )
            for argument in _passes_temporal_edge(node):
                yield self.finding(
                    module,
                    argument,
                    "TemporalEdge passed as a callable bypasses validation; "
                    "use repro.temporal.edge.make_edge(...)",
                )
