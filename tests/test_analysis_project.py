"""The whole-program interprocedural pass: rules, cache, baseline, CLI.

Fixture contract: every tree under ``tests/fixtures/project/violations``
trips its namesake rule -- and only it -- a known number of times with
all four project rules active (one finding per offending module; the
pickle-safety tree carries two offenders, the legacy cell driver plus
the shard-boundary lambda; the columnar-internals tree carries two
private ``ColumnarEdgeStore`` reads outside the owner module, one
through a ``graph.columnar()`` local and one through an annotated
parameter), and the matching ``clean`` tree is silent -- including
the owner module's own private reads.  The live ``src`` tree must be
project-clean with the committed (empty) baseline.
"""

import json
import os
import shutil

import pytest

from repro.analysis.cli import EXIT_CLEAN, EXIT_FINDINGS, main
from repro.analysis.core import Finding
from repro.analysis.project import (
    analyze_project,
    apply_baseline,
    load_baseline,
    write_baseline,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO_ROOT, "tests", "fixtures", "project")
BASELINE = os.path.join(REPO_ROOT, "lint-baseline.json")

#: rule name -> stable code, mirroring the catalogue.
RULES = {
    "budget-reachability": "REP201",
    "pickle-safety": "REP202",
    "columnar-internals": "REP203",
    "never-raise": "REP204",
}

#: findings the namesake violation tree must produce, one per offender.
EXPECTED_FINDINGS = {
    "budget-reachability": 1,
    "pickle-safety": 2,  # legacy cell driver + shard-boundary lambda
    "columnar-internals": 2,  # columnar() local + annotated parameter
    "never-raise": 1,
}


def _tree(kind, rule):
    return os.path.join(FIXTURES, kind, rule)


# ----------------------------------------------------------------------
# Rule fixtures: known finding counts, clean pairs silent
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rule", sorted(RULES))
def test_violation_fixture_fires_expected_count(rule):
    findings, errors, _stats = analyze_project([_tree("violations", rule)], excludes=())
    assert errors == []
    assert [f.rule for f in findings] == [rule] * EXPECTED_FINDINGS[rule]
    for finding in findings:
        assert finding.code == RULES[rule]
        assert os.path.isfile(finding.path)
        assert finding.line >= 1
    # Distinct offenders: never the same module flagged twice.
    assert len({f.path for f in findings}) == len(findings)


@pytest.mark.parametrize("rule", sorted(RULES))
def test_clean_fixture_is_silent(rule):
    findings, errors, _stats = analyze_project([_tree("clean", rule)], excludes=())
    assert errors == []
    assert findings == []


def test_suppression_comment_silences_project_rule(tmp_path):
    root = tmp_path / "case"
    shutil.copytree(_tree("violations", "budget-reachability"), root)
    offender = root / "repro" / "experiments" / "tables.py"
    source = offender.read_text(encoding="utf-8")
    patched = source.replace(
        "return solve(items, 0)",
        "return solve(items, 0)  # repro: ignore[budget-reachability]",
    )
    assert patched != source
    offender.write_text(patched, encoding="utf-8")
    findings, errors, _stats = analyze_project([str(root)], excludes=())
    assert errors == []
    assert findings == []


# ----------------------------------------------------------------------
# The shipped tree is project-clean (and the committed baseline is empty)
# ----------------------------------------------------------------------
def test_shipped_tree_is_project_clean(capsys):
    code = main(["--project", os.path.join(REPO_ROOT, "src")])
    out = capsys.readouterr().out
    assert code == EXIT_CLEAN, out
    assert "ok: no findings" in out


def test_committed_baseline_is_empty():
    assert load_baseline(BASELINE) == []


def test_shipped_tree_clean_under_committed_baseline(capsys):
    code = main(
        ["--project", "--baseline", BASELINE, os.path.join(REPO_ROOT, "src")]
    )
    out = capsys.readouterr().out
    assert code == EXIT_CLEAN, out


# ----------------------------------------------------------------------
# Baseline mechanics
# ----------------------------------------------------------------------
def test_baseline_roundtrip_drops_recorded_findings(tmp_path):
    tree = _tree("violations", "never-raise")
    findings, _errors, _stats = analyze_project([tree], excludes=())
    assert len(findings) == 1
    baseline_path = tmp_path / "baseline.json"
    write_baseline(str(baseline_path), findings)
    keys = load_baseline(str(baseline_path))
    assert apply_baseline(findings, keys) == []


def test_baseline_matches_as_multiset():
    finding = Finding(
        path="x.py", line=3, col=0, rule="never-raise", code="REP204", message="m"
    )
    twin = Finding(
        path="x.py", line=9, col=0, rule="never-raise", code="REP204", message="m"
    )
    keys = [("x.py", "never-raise", "REP204", "m")]
    # Same key, different line: the single baseline entry absorbs one
    # occurrence, the duplicate still trips.
    assert apply_baseline([finding, twin], keys) == [twin]


def test_baseline_ignores_line_shifts():
    finding = Finding(
        path="x.py", line=3, col=0, rule="never-raise", code="REP204", message="m"
    )
    shifted = Finding(
        path="x.py", line=30, col=4, rule="never-raise", code="REP204", message="m"
    )
    keys = [("x.py", "never-raise", "REP204", "m")]
    assert apply_baseline([finding], keys) == []
    assert apply_baseline([shifted], keys) == []


def test_cli_write_then_apply_baseline(tmp_path, capsys):
    tree = _tree("violations", "pickle-safety")
    baseline_path = str(tmp_path / "baseline.json")
    code = main(
        ["--project", "--no-default-excludes", "--write-baseline", baseline_path, tree]
    )
    capsys.readouterr()
    assert code == EXIT_CLEAN
    code = main(
        ["--project", "--no-default-excludes", "--baseline", baseline_path, tree]
    )
    out = capsys.readouterr().out
    assert code == EXIT_CLEAN, out
    # Without the baseline the same tree still fails.
    code = main(["--project", "--no-default-excludes", tree])
    capsys.readouterr()
    assert code == EXIT_FINDINGS


def test_cli_rejects_malformed_baseline(tmp_path, capsys):
    bad = tmp_path / "baseline.json"
    bad.write_text("{\"version\": 99}", encoding="utf-8")
    with pytest.raises(SystemExit) as excinfo:
        main(["--project", "--baseline", str(bad), _tree("clean", "never-raise")])
    assert excinfo.value.code == 2


# ----------------------------------------------------------------------
# Summary cache: reuse, invalidation, byte-identical reports
# ----------------------------------------------------------------------
def test_cache_cold_and_warm_reports_are_byte_identical(tmp_path, capsys):
    tree = _tree("violations", "budget-reachability")
    argv = [
        "--project",
        "--no-default-excludes",
        "--format",
        "json",
        "--cache-dir",
        str(tmp_path),
        tree,
    ]
    code_cold = main(argv)
    out_cold = capsys.readouterr().out
    code_warm = main(argv)
    out_warm = capsys.readouterr().out
    assert code_cold == code_warm == EXIT_FINDINGS
    assert out_cold == out_warm
    payload = json.loads(out_warm)
    assert payload["counts"]["by_rule"] == {"budget-reachability": 1}
    assert os.path.exists(os.path.join(str(tmp_path), "project-summaries.json"))


def test_cache_reuses_unchanged_modules(tmp_path):
    root = tmp_path / "case"
    shutil.copytree(_tree("clean", "budget-reachability"), root)
    cache = str(tmp_path / "summaries.json")
    _f, _e, cold = analyze_project([str(root)], excludes=(), cache_path=cache)
    assert cold.parsed == 2
    assert cold.reused == 0
    _f, _e, warm = analyze_project([str(root)], excludes=(), cache_path=cache)
    assert warm.parsed == 0
    assert warm.reused == 2
    assert warm.invalidated == []


def test_cache_invalidates_only_the_edited_module(tmp_path):
    root = tmp_path / "case"
    shutil.copytree(_tree("clean", "budget-reachability"), root)
    cache = str(tmp_path / "summaries.json")
    analyze_project([str(root)], excludes=(), cache_path=cache)
    leaf = root / "repro" / "experiments" / "tables.py"
    leaf.write_text(
        leaf.read_text(encoding="utf-8") + "\n# touched\n", encoding="utf-8"
    )
    # ``tables`` imports ``baselines`` but not vice versa -- no cycle,
    # so only the edited module re-parses.
    _f, _e, stats = analyze_project([str(root)], excludes=(), cache_path=cache)
    assert stats.invalidated == ["repro.experiments.tables"]
    assert stats.parsed == 1
    assert stats.reused == 1


def test_cache_invalidates_whole_import_cycle(tmp_path):
    root = tmp_path / "case" / "repro"
    root.mkdir(parents=True)
    (root / "alpha.py").write_text(
        '"""Cycle member."""\nimport repro.beta\n\n\ndef a():\n    return repro.beta.b\n',
        encoding="utf-8",
    )
    (root / "beta.py").write_text(
        '"""Cycle member."""\nimport repro.alpha\n\n\ndef b():\n    return repro.alpha.a\n',
        encoding="utf-8",
    )
    (root / "gamma.py").write_text(
        '"""Independent leaf."""\n\n\ndef c():\n    return 3\n',
        encoding="utf-8",
    )
    cache = str(tmp_path / "summaries.json")
    _f, _e, cold = analyze_project([str(root)], excludes=(), cache_path=cache)
    assert cold.parsed == 3
    (root / "alpha.py").write_text(
        (root / "alpha.py").read_text(encoding="utf-8") + "\n# touched\n",
        encoding="utf-8",
    )
    # alpha and beta import each other: editing alpha re-parses both.
    # gamma is outside the cycle and stays cached.
    _f, _e, stats = analyze_project([str(root)], excludes=(), cache_path=cache)
    assert stats.invalidated == ["repro.alpha", "repro.beta"]
    assert stats.parsed == 2
    assert stats.reused == 1


def test_cache_disabled_parses_everything(tmp_path):
    root = tmp_path / "case"
    shutil.copytree(_tree("clean", "columnar-internals"), root)
    _f, _e, stats = analyze_project([str(root)], excludes=(), cache_path=None)
    assert stats.parsed == 3  # owner module + two public-accessor users
    assert stats.reused == 0


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def test_project_list_rules(capsys):
    code = main(["--project", "--list-rules"])
    out = capsys.readouterr().out
    assert code == EXIT_CLEAN
    for rule, rule_code in RULES.items():
        assert rule in out
        assert rule_code in out


def test_project_rule_selection(capsys):
    tree = _tree("violations", "pickle-safety")
    code = main(
        ["--project", "--no-default-excludes", "--rule", "columnar-internals", tree]
    )
    capsys.readouterr()
    assert code == EXIT_CLEAN
    code = main(
        ["--project", "--no-default-excludes", "--rule", "pickle-safety", tree]
    )
    capsys.readouterr()
    assert code == EXIT_FINDINGS


def test_unknown_project_rule_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--project", "--rule", "no-such-rule", "src"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("flag", ["--baseline", "--write-baseline", "--cache-dir"])
def test_project_only_flags_require_project(flag, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([flag, "somewhere", "src"])
    assert excinfo.value.code == 2


def test_default_excludes_skip_fixture_trees(capsys):
    # The fixture trees live under a `fixtures` path component, which
    # the default excludes skip -- scanning them finds nothing.
    code = main(["--project", FIXTURES])
    out = capsys.readouterr().out
    assert code == EXIT_CLEAN
    assert "ok: no findings" in out
