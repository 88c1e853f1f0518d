"""Per-rule positive/negative tests for the invariant linter.

Each violation fixture under ``tests/fixtures/analysis/violations``
triggers exactly one rule at a known line; each counterpart under
``clean/`` shows the compliant form and must produce no findings.
"""

import os

import pytest

from repro.analysis import analyze_paths, default_rules, parse_module
from repro.analysis.core import module_name_for
from repro.analysis.registry import get_rules

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures", "analysis")
VIOLATIONS = os.path.join(FIXTURES, "violations")
CLEAN = os.path.join(FIXTURES, "clean")

#: (rule name, code, fixture path relative to violations/ and clean/,
#:  the source line the finding must anchor to)
CASES = [
    (
        "budget-tick",
        "REP101",
        os.path.join("repro", "steiner", "charikar.py"),
        "while queue:",
    ),
    (
        "cache-mutation",
        "REP102",
        os.path.join("repro", "steiner", "mutator.py"),
        "adjacency[vertex].append(edge)",
    ),
    (
        "cache-mutation",
        "REP102",
        os.path.join("repro", "temporal", "indexuser.py"),
        "order.sort()",
    ),
    (
        "cache-mutation",
        "REP102",
        os.path.join("repro", "core", "closurepatch.py"),
        "row[0] = 0.0",
    ),
    (
        "cache-mutation",
        "REP102",
        os.path.join("repro", "temporal", "columnaruser.py"),
        "starts[0] = starts[0] + offset",
    ),
    (
        "cache-mutation",
        "REP102",
        os.path.join("repro", "steiner", "rowuser.py"),
        "ids.reverse()",
    ),
    (
        "cache-mutation",
        "REP102",
        os.path.join("repro", "temporal", "valueuser.py"),
        "weights.sort()",
    ),
    (
        "determinism",
        "REP103",
        os.path.join("repro", "perf", "timing.py"),
        "time.time()",
    ),
    (
        "determinism",
        "REP103",
        os.path.join("repro", "experiments", "unordered.py"),
        "pool.imap_unordered(str, items)",
    ),
    (
        "determinism",
        "REP103",
        os.path.join("repro", "parallel", "shard.py"),
        "pool.imap_unordered(tuple, tasks)",
    ),
    (
        "float-equality",
        "REP104",
        os.path.join("repro", "core", "weights.py"),
        "a.weight == b.weight",
    ),
    (
        "temporal-invariant",
        "REP105",
        os.path.join("repro", "datasets", "maker.py"),
        "TemporalEdge(0, 1, 2.0, 1.0, 1.0)",
    ),
    (
        "api-consistency",
        "REP106",
        os.path.join("repro", "core", "exports.py"),
        '__all__ = ["thing", "thing"]',
    ),
    (
        "swallowed-exception",
        "REP107",
        os.path.join("repro", "resilience", "swallow.py"),
        "except Exception:",
    ),
]

IDS = [case[0] for case in CASES]

#: Violation fixtures checked by a test of their own, kept out of CASES
#: so the parametrised ids above stay stable.
MAPPER_CASE = (
    "temporal-invariant",
    "REP105",
    os.path.join("repro", "datasets", "mapper.py"),
    "map(TemporalEdge,",
)


def _line_of(path, needle):
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            if needle in line:
                return number
    raise AssertionError(f"{needle!r} not found in {path}")


@pytest.mark.parametrize("rule,code,rel_path,needle", CASES, ids=IDS)
def test_rule_fires_exactly_once_on_violation(rule, code, rel_path, needle):
    path = os.path.join(VIOLATIONS, rel_path)
    findings, errors = analyze_paths([path], default_rules(), excludes=())
    assert errors == []
    assert len(findings) == 1, [f"{f.location()} {f.rule}" for f in findings]
    finding = findings[0]
    assert finding.rule == rule
    assert finding.code == code
    assert finding.path == path
    assert finding.line == _line_of(path, needle)


@pytest.mark.parametrize("rule,code,rel_path,needle", CASES, ids=IDS)
def test_clean_counterpart_produces_no_findings(rule, code, rel_path, needle):
    path = os.path.join(CLEAN, rel_path)
    findings, errors = analyze_paths([path], default_rules(), excludes=())
    assert errors == []
    assert findings == [], [f"{f.location()} {f.rule}" for f in findings]


def test_suppression_comment_silences_a_rule():
    path = os.path.join(CLEAN, "repro", "steiner", "pruned.py")
    # The fixture is a real budget-tick violation waived with
    # `# repro: ignore[budget-tick]` on the offending line.
    findings, errors = analyze_paths([path], default_rules(), excludes=())
    assert errors == []
    assert findings == []
    module = parse_module(path)
    line = _line_of(path, "while queue:")
    assert module.is_suppressed(line, "budget-tick")
    assert not module.is_suppressed(line, "float-equality")


def test_temporal_invariant_flags_edge_class_passed_as_callable():
    rule, code, rel_path, needle = MAPPER_CASE
    path = os.path.join(VIOLATIONS, rel_path)
    findings, errors = analyze_paths([path], default_rules(), excludes=())
    assert errors == []
    assert [(f.rule, f.code, f.line) for f in findings] == [
        (rule, code, _line_of(path, needle))
    ]
    assert "passed as a callable" in findings[0].message
    clean, errors = analyze_paths(
        [os.path.join(CLEAN, rel_path)], default_rules(), excludes=()
    )
    assert errors == []
    assert clean == []


def test_temporal_invariant_flags_every_builder_reference(tmp_path):
    findings, errors = _analyze_snippet(
        tmp_path,
        ("repro", "core", "builders.py"),
        "from itertools import repeat, starmap\n"
        "from repro.temporal import edge\n"
        "from repro.temporal.edge import TemporalEdge\n"
        "\n"
        "\n"
        "def build(rows, columns):\n"
        "    a = list(starmap(TemporalEdge, rows))\n"
        "    b = list(map(TemporalEdge._make, rows))\n"
        "    c = list(map(tuple.__new__, repeat(edge.TemporalEdge), rows))\n"
        "    d = sorted(rows, key=TemporalEdge)\n"
        "    ok = [isinstance(r, TemporalEdge) for r in a + b + c + d]\n"
        "    return ok, issubclass(type(rows), TemporalEdge)\n",
    )
    assert errors == []
    assert [(f.code, f.line) for f in findings] == [
        ("REP105", 7),
        ("REP105", 8),
        ("REP105", 9),
        ("REP105", 10),
    ]


def test_temporal_invariant_still_allows_owning_modules(tmp_path):
    findings, errors = _analyze_snippet(
        tmp_path,
        ("repro", "temporal", "graph.py"),
        "from repro.temporal.edge import TemporalEdge\n"
        "\n"
        "\n"
        "def build(columns):\n"
        "    return tuple(map(TemporalEdge, *columns))\n",
    )
    assert errors == []
    assert findings == []


def test_fixture_paths_resolve_to_repro_module_names():
    path = os.path.join(VIOLATIONS, "repro", "steiner", "charikar.py")
    assert module_name_for(path) == "repro.steiner.charikar"
    assert module_name_for(os.path.join("src", "repro", "temporal", "edge.py")) == (
        "repro.temporal.edge"
    )
    assert module_name_for(os.path.join("tests", "test_msta.py")) is None


def _analyze_snippet(tmp_path, rel_parts, source, rules=None):
    path = tmp_path.joinpath(*rel_parts)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return analyze_paths([str(path)], rules or default_rules(), excludes=())


def test_api_rule_flags_unbound_export(tmp_path):
    findings, errors = _analyze_snippet(
        tmp_path,
        ("repro", "core", "api_mod.py"),
        '__all__ = ["missing"]\n',
    )
    assert errors == []
    assert [f.rule for f in findings] == ["api-consistency"]
    assert "missing" in findings[0].message


def test_determinism_rule_flags_set_iteration(tmp_path):
    findings, errors = _analyze_snippet(
        tmp_path,
        ("repro", "temporal", "helper.py"),
        "def order(items):\n"
        "    out = []\n"
        "    for item in set(items):\n"
        "        out.append(item)\n"
        "    return out\n",
    )
    assert errors == []
    assert [f.rule for f in findings] == ["determinism"]
    assert findings[0].line == 3


def test_determinism_rule_flags_global_random(tmp_path):
    findings, errors = _analyze_snippet(
        tmp_path,
        ("repro", "datasets", "rand_mod.py"),
        "import random\n\n\ndef draw():\n    return random.random()\n",
    )
    assert errors == []
    assert [f.rule for f in findings] == ["determinism"]


def test_determinism_rule_exempts_no_module(tmp_path):
    # The wall-clock ban has no allow-list: even a module named like a
    # timing harness is flagged.
    findings, errors = _analyze_snippet(
        tmp_path,
        ("repro", "perf", "harness.py"),
        "import time\n\n\ndef stamp():\n    return time.time()\n",
    )
    assert errors == []
    assert [f.rule for f in findings] == ["determinism"]


def test_determinism_rule_allows_unordered_in_engine(tmp_path):
    findings, errors = _analyze_snippet(
        tmp_path,
        ("repro", "parallel", "engine.py"),
        "def drain(pool, payloads):\n"
        "    return sorted(pool.imap_unordered(tuple, payloads))\n",
    )
    assert errors == []
    assert findings == []


def test_determinism_rule_flags_as_completed(tmp_path):
    findings, errors = _analyze_snippet(
        tmp_path,
        ("repro", "experiments", "futures_mod.py"),
        "from concurrent.futures import as_completed\n\n\n"
        "def drain(futures):\n"
        "    return [f.result() for f in as_completed(futures)]\n",
    )
    assert errors == []
    assert [f.rule for f in findings] == ["determinism"]
    assert "as_completed" in findings[0].message


def test_swallow_rule_flags_bare_except(tmp_path):
    findings, errors = _analyze_snippet(
        tmp_path,
        ("repro", "core", "bare_mod.py"),
        "def guard(task):\n"
        "    try:\n"
        "        return task()\n"
        "    except:\n"
        "        return None\n",
    )
    assert errors == []
    assert [f.rule for f in findings] == ["swallowed-exception"]
    assert "bare except" in findings[0].message


def test_swallow_rule_allows_suppression_comment(tmp_path):
    findings, errors = _analyze_snippet(
        tmp_path,
        ("repro", "core", "waived_mod.py"),
        "def guard(task):\n"
        "    try:\n"
        "        return task()\n"
        "    except Exception:  # repro: ignore[swallowed-exception]\n"
        "        pass\n",
    )
    assert errors == []
    assert findings == []


def test_swallow_rule_ignores_broad_handler_that_acts(tmp_path):
    findings, errors = _analyze_snippet(
        tmp_path,
        ("repro", "core", "acting_mod.py"),
        "def guard(task, log):\n"
        "    try:\n"
        "        return task()\n"
        "    except Exception as exc:\n"
        "        log.append(exc)\n"
        "        raise\n",
    )
    assert errors == []
    assert findings == []


def test_budget_rule_accepts_delegation_to_budget_callee(tmp_path):
    findings, errors = _analyze_snippet(
        tmp_path,
        ("repro", "steiner", "improved.py"),
        "def run(queue, budget, scan):\n"
        "    while queue:\n"
        "        scan(queue, budget=budget)\n",
    )
    assert errors == []
    assert findings == []


def test_budget_rule_covers_incremental_package(tmp_path):
    # repro.incremental is a REP101 target: an uncheckpointed while loop
    # in any of its modules must be flagged.
    findings, errors = _analyze_snippet(
        tmp_path,
        ("repro", "incremental", "walker.py"),
        "def drain(stack):\n"
        "    while stack:\n"
        "        stack.pop()\n",
    )
    assert errors == []
    assert [f.rule for f in findings] == ["budget-tick"]


def test_cache_rule_allows_incremental_owners(tmp_path):
    # The sliding engine's module is a cache owner; the same write
    # outside the owners is the indexuser.py violation fixture.
    findings, errors = _analyze_snippet(
        tmp_path,
        ("repro", "incremental", "engine.py"),
        "def window_order(graph):\n"
        "    order = graph.columnar().positions_by_start()\n"
        "    order.sort()\n"
        "    return order\n",
    )
    assert errors == []
    assert findings == []


def test_parse_error_becomes_a_finding(tmp_path):
    findings, errors = _analyze_snippet(
        tmp_path,
        ("repro", "core", "broken.py"),
        "def broken(:\n",
    )
    assert errors == []
    assert [f.rule for f in findings] == ["parse-error"]
    assert findings[0].code == "REP000"


def test_rule_selection_limits_findings():
    rules = get_rules(["budget-tick"])
    findings, errors = analyze_paths([VIOLATIONS], rules, excludes=())
    assert errors == []
    assert {f.rule for f in findings} == {"budget-tick"}


def test_violations_tree_triggers_every_rule_once():
    findings, errors = analyze_paths([VIOLATIONS], default_rules(), excludes=())
    assert errors == []
    assert sorted(f.rule for f in findings) == sorted(
        case[0] for case in CASES + [MAPPER_CASE]
    )


def test_clean_tree_is_quiet():
    findings, errors = analyze_paths([CLEAN], default_rules(), excludes=())
    assert errors == []
    assert findings == []
