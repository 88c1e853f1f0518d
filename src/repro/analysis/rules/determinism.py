"""Rule: benchmarked code must be deterministic.

The experiment tables and the end-to-end benchmark's op digests are
only reproducible if solver output never depends on wall-clock time,
the process-global RNG, or set iteration order (hash-seed dependent
for strings).  This rule bans, in every library module:

* wall-clock reads (``time.time``, ``datetime.now`` and friends) --
  elapsed-time probes via ``time.perf_counter``/``time.monotonic`` are
  fine, they never feed back into results;
* calls on the module-global ``random`` RNG (``random.shuffle`` etc.);
  seeded ``random.Random(seed)`` instances are the supported idiom;
* direct iteration over freshly-built sets (``for x in set(...)``,
  set literals/comprehensions) -- wrap in ``sorted(...)``;
* unordered result consumption (``pool.imap_unordered``,
  ``concurrent.futures.as_completed``) outside the deterministic merge
  layer in :mod:`repro.parallel.engine` -- completion order varies run
  to run, so results must flow through ``ParallelExecutor.map`` (or
  ``unordered``, which tags values with submission indices) where a
  single audited call site restores submission order.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astutil import call_target, iter_loop_iters
from repro.analysis.core import Finding, ParsedModule, Rule

#: Dotted call targets that read the wall clock or calendar.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "time.strftime",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Functions of the process-global ``random`` module (unseeded state).
GLOBAL_RANDOM_FUNCS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "getrandbits",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "normalvariate",
        "expovariate",
        "betavariate",
        "triangular",
        "seed",
    }
)

#: Method names whose call sites consume results in completion order.
UNORDERED_CALLS = frozenset({"imap_unordered", "as_completed"})

#: Modules allowed to consume unordered results (the deterministic
#: merge layer, which re-sorts by submission index before yielding).
UNORDERED_ALLOWED_MODULES = frozenset({"repro.parallel.engine"})


def _is_set_expression(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"set", "frozenset"}
    )


class DeterminismRule(Rule):
    name = "determinism"
    code = "REP103"
    description = (
        "no wall-clock reads, global-RNG calls, or set-order iteration "
        "in library modules (benchmarked code must be deterministic)"
    )

    def applies(self, module: ParsedModule) -> bool:
        name = module.module_name
        return name is not None and (name == "repro" or name.startswith("repro."))

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        unordered_allowed = module.module_name in UNORDERED_ALLOWED_MODULES
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                target = call_target(node)
                if target in WALL_CLOCK_CALLS:
                    yield self.finding(
                        module,
                        node,
                        f"wall-clock call {target}() in a library module; use "
                        "time.perf_counter()/time.monotonic() for elapsed "
                        "time, or pass timestamps in explicitly",
                    )
                elif (
                    target is not None
                    and target.startswith("random.")
                    and target[len("random."):] in GLOBAL_RANDOM_FUNCS
                ):
                    yield self.finding(
                        module,
                        node,
                        f"call to the process-global RNG ({target}); build a "
                        "seeded random.Random(seed) instance instead",
                    )
                elif (
                    not unordered_allowed
                    and target is not None
                    and target.rsplit(".", 1)[-1] in UNORDERED_CALLS
                ):
                    yield self.finding(
                        module,
                        node,
                        f"unordered result consumption ({target}) outside "
                        "repro.parallel.engine; completion order is "
                        "nondeterministic -- route results through "
                        "ParallelExecutor.map, whose merge layer restores "
                        "submission order",
                    )
        for iterable in iter_loop_iters(module.tree):
            if _is_set_expression(iterable):
                yield self.finding(
                    module,
                    iterable,
                    "iteration over a freshly-built set is hash-order "
                    "dependent; wrap the expression in sorted(...)",
                )
