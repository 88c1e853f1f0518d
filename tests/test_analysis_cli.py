"""End-to-end behaviour of ``python -m repro.analysis`` / ``repro lint``.

Exit-code contract: 0 clean, 1 findings, 2 usage error, 3 internal
linter failure.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_INTERNAL_ERROR, main
from repro.analysis.core import Rule

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO_ROOT, "tests", "fixtures", "analysis")
VIOLATIONS = os.path.join(FIXTURES, "violations")
CLEAN = os.path.join(FIXTURES, "clean")


def test_shipped_tree_is_clean(capsys):
    code = main([os.path.join(REPO_ROOT, "src"), os.path.join(REPO_ROOT, "tests")])
    out = capsys.readouterr().out
    assert code == EXIT_CLEAN
    assert "ok: no findings" in out


def test_violations_exit_one(capsys):
    code = main(["--no-default-excludes", VIOLATIONS])
    out = capsys.readouterr().out
    assert code == EXIT_FINDINGS
    for rule_code in (
        "REP101", "REP102", "REP103", "REP104", "REP105", "REP106", "REP107",
    ):
        assert rule_code in out
    assert "15 findings" in out


def test_default_excludes_skip_fixture_tree(capsys):
    # Without --no-default-excludes the `fixtures` path component is
    # skipped, so scanning the violation tree finds nothing.
    code = main([VIOLATIONS])
    out = capsys.readouterr().out
    assert code == EXIT_CLEAN
    assert "ok: no findings" in out


def test_json_report(capsys):
    code = main(["--format", "json", "--no-default-excludes", VIOLATIONS])
    out = capsys.readouterr().out
    assert code == EXIT_FINDINGS
    payload = json.loads(out)
    assert payload["version"] == 1
    assert payload["counts"]["total"] == 15
    assert payload["counts"]["by_rule"] == {
        "budget-tick": 1,
        "cache-mutation": 6,
        "determinism": 3,
        "float-equality": 1,
        "temporal-invariant": 2,
        "api-consistency": 1,
        "swallowed-exception": 1,
    }
    assert payload["errors"] == []
    for finding in payload["findings"]:
        assert os.path.isfile(finding["path"])
        assert finding["line"] >= 1


def test_rule_selection(capsys):
    code = main(["--rule", "budget-tick", "--no-default-excludes", VIOLATIONS])
    out = capsys.readouterr().out
    assert code == EXIT_FINDINGS
    assert "REP101" in out
    assert "REP105" not in out
    assert "1 finding" in out


def test_unknown_rule_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--rule", "no-such-rule", VIOLATIONS])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "no-such-rule" in err


def test_list_rules(capsys):
    code = main(["--list-rules"])
    out = capsys.readouterr().out
    assert code == EXIT_CLEAN
    for rule_code in ("REP101", "REP102", "REP103", "REP104", "REP105", "REP106"):
        assert rule_code in out


class _BoomRule(Rule):
    name = "boom"
    code = "REP999"
    description = "always crashes (test-only)"

    def check(self, module):
        raise RuntimeError("boom")


def test_internal_rule_failure_exits_three(monkeypatch, tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text("x = 1\n", encoding="utf-8")
    monkeypatch.setattr(
        "repro.analysis.cli.get_rules", lambda names: [_BoomRule()]
    )
    code = main([str(target)])
    out = capsys.readouterr().out
    assert code == EXIT_INTERNAL_ERROR
    assert "internal error" in out
    assert "boom" in out


def test_repro_cli_forwards_lint_subcommand(capsys):
    from repro.cli import main as repro_main

    assert repro_main(["lint", "--list-rules"]) == EXIT_CLEAN
    out = capsys.readouterr().out
    assert "REP101" in out
    code = repro_main(
        [
            "lint",
            "--no-default-excludes",
            os.path.join(VIOLATIONS, "repro", "core", "weights.py"),
        ]
    )
    assert code == EXIT_FINDINGS


def test_module_entry_point_subprocess():
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    bad = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.analysis",
            "--no-default-excludes",
            os.path.join(VIOLATIONS, "repro", "core", "weights.py"),
        ],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert bad.returncode == EXIT_FINDINGS, bad.stdout + bad.stderr
    assert "REP104" in bad.stdout
    good = subprocess.run(
        [sys.executable, "-m", "repro.analysis", os.path.join(CLEAN)],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert good.returncode == EXIT_CLEAN, good.stdout + good.stderr
