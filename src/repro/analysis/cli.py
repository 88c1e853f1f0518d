"""The ``repro lint`` / ``python -m repro.analysis`` entry point.

Exit codes
----------
* ``0`` -- every rule passed on every scanned file;
* ``1`` -- at least one finding (including files that fail to parse);
* ``2`` -- usage error (argparse's convention);
* ``3`` -- the linter itself failed (a rule crashed): the gate must
  fail loudly rather than pretend the tree is clean.

``--project`` switches from the per-file rules (REP1xx) to the
whole-program interprocedural pass (REP2xx): one parse of the tree,
a project-wide call graph, and the budget-reachability /
pickle-safety / columnar-internals / never-raise rules on top, with an
optional findings baseline and an on-disk summary cache.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.analysis.core import analyze_paths
from repro.analysis.registry import ALL_RULES, get_rules
from repro.analysis.reporters import render_json, render_text

#: Exit statuses (see module docstring).
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_INTERNAL_ERROR = 3

#: Path components skipped by default: the test suite's deliberately
#: violating rule fixtures live under ``tests/fixtures/``, and byte
#: caches / hypothesis databases are never source.
DEFAULT_EXCLUDES = ("fixtures", "__pycache__", ".hypothesis")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "repository-specific invariant linter for the temporal-MST "
            "stack (budget checkpoints, cache immutability, determinism, "
            "float epsilon discipline, validated edge construction, "
            "__all__ consistency; --project adds the whole-program "
            "budget/pickle/columnar/never-raise rules)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help=(
            "files or directories to scan "
            "(default: src tests; src alone with --project)"
        ),
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="NAME",
        help="run only this rule (repeatable; default: all rules)",
    )
    parser.add_argument(
        "--exclude",
        action="append",
        default=None,
        metavar="PART",
        help=(
            "skip files with this path component "
            f"(repeatable; default: {', '.join(DEFAULT_EXCLUDES)})"
        ),
    )
    parser.add_argument(
        "--no-default-excludes",
        action="store_true",
        help="scan everything, including the test fixture tree",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--project",
        action="store_true",
        help="run the whole-program interprocedural rules (REP201-REP204)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="drop findings recorded in this baseline file (--project only)",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        default=None,
        help=(
            "write the current findings to FILE as the new baseline and "
            "exit clean (--project only)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help=(
            "directory for the summary cache keyed on source hashes "
            "(--project only; default: no cache)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not write the summary cache (--project only)",
    )
    return parser


def _main_project(
    parser: argparse.ArgumentParser,
    args: argparse.Namespace,
    excludes: Sequence[str],
) -> int:
    import os

    from repro.analysis.project import (
        PROJECT_RULES,
        analyze_project,
        apply_baseline,
        get_project_rules,
        load_baseline,
        write_baseline,
    )

    if args.list_rules:
        for rule_class in PROJECT_RULES:
            print(f"{rule_class.code} {rule_class.name}: {rule_class.description}")
        return EXIT_CLEAN

    try:
        rules = get_project_rules(args.rule or [])
    except KeyError as exc:
        parser.error(str(exc.args[0]))

    cache_path: Optional[str] = None
    if args.cache_dir is not None and not args.no_cache:
        cache_path = os.path.join(args.cache_dir, "project-summaries.json")

    paths = args.paths if args.paths else ["src"]
    findings, errors, _stats = analyze_project(
        paths, rules, excludes=excludes, cache_path=cache_path
    )

    if args.write_baseline is not None:
        write_baseline(args.write_baseline, findings)
        findings = []
    elif args.baseline is not None:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
        findings = apply_baseline(findings, baseline)

    if args.format == "json":
        print(render_json(findings, errors))
    else:
        print(render_text(findings, errors))
    if errors:
        return EXIT_INTERNAL_ERROR
    return EXIT_FINDINGS if findings else EXIT_CLEAN


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    excludes: List[str] = [] if args.no_default_excludes else list(DEFAULT_EXCLUDES)
    if args.exclude:
        excludes.extend(args.exclude)

    if args.project:
        return _main_project(parser, args, excludes)
    for flag, name in (
        (args.baseline, "--baseline"),
        (args.write_baseline, "--write-baseline"),
        (args.cache_dir, "--cache-dir"),
    ):
        if flag is not None:
            parser.error(f"{name} requires --project")

    if args.list_rules:
        for rule_class in ALL_RULES:
            print(f"{rule_class.code} {rule_class.name}: {rule_class.description}")
        return EXIT_CLEAN

    try:
        rules = get_rules(args.rule or [])
    except KeyError as exc:
        parser.error(str(exc.args[0]))

    paths = args.paths if args.paths else ["src", "tests"]
    findings, errors = analyze_paths(paths, rules, excludes=excludes)
    if args.format == "json":
        print(render_json(findings, errors))
    else:
        print(render_text(findings, errors))
    if errors:
        return EXIT_INTERNAL_ERROR
    return EXIT_FINDINGS if findings else EXIT_CLEAN


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
