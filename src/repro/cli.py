"""Command-line interface.

``python -m repro <command>`` (or the ``temporal-mst`` console script)
exposes the library's main entry points on edge-list files:

* ``stats``    -- Table-1 style statistics of a temporal graph file;
* ``msta``     -- earliest-arrival spanning tree (Algorithms 1/2);
* ``mstw``     -- minimum-weight spanning tree (the Section 4 pipeline);
* ``steiner``  -- targeted dissemination (temporal directed Steiner);
* ``generate`` -- write a synthetic dataset in the native format;
* ``experiment`` -- regenerate a paper table/figure (table1..table8,
  fig8a, fig8b, or ``all``);

Files use the native 5-column format ``u v start arrival weight`` or
KONECT rows (``--format konect``); ``-`` reads stdin.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.core.errors import (
    BudgetExceededError,
    CheckpointFormatError,
    ExperimentInterruptedError,
    GraphFormatError,
    ReproError,
    UnreachableRootError,
)
from repro.core.export import tree_to_dot, tree_to_json
from repro.core.msta import minimum_spanning_tree_a
from repro.core.mstw import minimum_spanning_tree_w
from repro.core.steiner_temporal import minimum_steiner_tree_w
from repro.datasets.registry import DATASETS, load_dataset
from repro.experiments import EXPERIMENTS, ExperimentContext, run_experiment
from repro.resilience.budget import Budget
from repro.temporal import io as tio
from repro.temporal.graph import TemporalGraph
from repro.temporal.stats import GraphStatistics, compute_statistics
from repro.temporal.window import TimeWindow

#: Exit codes per failure family (sysexits-style), checked in order.
#: ``2`` stays the usage-error code (argparse's convention).
EXIT_CODES = (
    (GraphFormatError, 65),  # EX_DATAERR: malformed input
    (UnreachableRootError, 66),  # EX_NOINPUT: root/terminals unreachable
    (BudgetExceededError, 67),  # budget drained without a fallback
    (CheckpointFormatError, 68),  # stale checkpoint schema on resume
    (ExperimentInterruptedError, 75),  # EX_TEMPFAIL: resumable stop
)
#: Any other ReproError (EX_SOFTWARE).
EXIT_OTHER_REPRO_ERROR = 70


def exit_code_for(exc: ReproError) -> int:
    """The distinct exit code for one :class:`ReproError` subclass."""
    for error_type, code in EXIT_CODES:
        if isinstance(exc, error_type):
            return code
    return EXIT_OTHER_REPRO_ERROR


def _load_graph(path: str, fmt: str, duration: float) -> TemporalGraph:
    source = sys.stdin if path == "-" else path
    if fmt == "native":
        return tio.read_native(source)
    return tio.read_konect(source, duration=duration)


def _parse_vertex(token: str):
    try:
        return int(token)
    except ValueError:
        return token


def _emit_tree(tree, args, header: str) -> None:
    """Print a tree in the requested output format (table/json/dot)."""
    fmt = getattr(args, "output", "table")
    if fmt == "json":
        print(tree_to_json(tree, indent=2))
    elif fmt == "dot":
        print(tree_to_dot(tree), end="")
    else:
        print(header)
        print("# vertex parent start arrival weight")
        for vertex in sorted(tree.parent_edge, key=repr):
            edge = tree.parent_edge[vertex]
            print(
                f"{vertex} {edge.source} {edge.start:g} "
                f"{edge.arrival:g} {edge.weight:g}"
            )


def _window_from(args) -> Optional[TimeWindow]:
    if args.t_alpha is None and args.t_omega is None:
        return None
    t_alpha = args.t_alpha if args.t_alpha is not None else 0.0
    t_omega = args.t_omega if args.t_omega is not None else float("inf")
    return TimeWindow(t_alpha, t_omega)


def _add_io_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("graph", help="edge list file, or '-' for stdin")
    parser.add_argument(
        "--format",
        choices=["native", "konect"],
        default="native",
        help="input format (default: native 'u v start arrival weight')",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=0.0,
        help="contact duration applied when loading konect rows",
    )


def _add_window_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--t-alpha", type=float, default=None, help="window start")
    parser.add_argument("--t-omega", type=float, default=None, help="window end")


def _positive_float(token: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {token!r}") from None
    if value <= 0 or value != value:
        raise argparse.ArgumentTypeError(f"must be a positive number, got {token}")
    return value


def _positive_int(token: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {token!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {token}")
    return value


def _add_budget_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--budget",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget for the DST solve",
    )
    parser.add_argument(
        "--fallback",
        action="store_true",
        help="degrade to cheaper solver rungs instead of failing on budget",
    )


def _add_output_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--output",
        choices=["table", "json", "dot"],
        default="table",
        help="tree output format (default: plain table)",
    )


def _cmd_stats(args) -> int:
    graph = _load_graph(args.graph, args.format, args.duration)
    stats = compute_statistics(graph)
    print(GraphStatistics.header())
    print(stats.as_row(args.name))
    return 0


def _cmd_msta(args) -> int:
    graph = _load_graph(args.graph, args.format, args.duration)
    tree = minimum_spanning_tree_a(
        graph, _parse_vertex(args.root), _window_from(args), algorithm=args.algorithm
    )
    _emit_tree(
        tree, args, f"# root {args.root}; {tree.num_edges} vertices reached"
    )
    return 0


def _budget_from(args) -> Optional[Budget]:
    if getattr(args, "budget", None) is None:
        return None
    return Budget(deadline_seconds=args.budget)


def _degradation_note(result) -> str:
    if getattr(result, "rung", None) is None:
        return ""
    note = f"; solved by {result.rung}"
    if result.degraded:
        note += " (degraded)"
    return note


def _cmd_mstw(args) -> int:
    graph = _load_graph(args.graph, args.format, args.duration)
    result = minimum_spanning_tree_w(
        graph,
        _parse_vertex(args.root),
        _window_from(args),
        level=args.level,
        algorithm=args.algorithm,
        budget=_budget_from(args),
        fallback=args.fallback,
    )
    _emit_tree(
        result.tree,
        args,
        f"# root {args.root}; weight {result.weight:g}; "
        f"{result.num_terminals} terminals; level {result.level}"
        + _degradation_note(result),
    )
    return 0


def _cmd_steiner(args) -> int:
    graph = _load_graph(args.graph, args.format, args.duration)
    terminals = [_parse_vertex(t) for t in args.terminals.split(",") if t]
    result = minimum_steiner_tree_w(
        graph,
        _parse_vertex(args.root),
        terminals,
        _window_from(args),
        level=args.level,
        algorithm=args.algorithm,
        allow_unreachable=args.allow_unreachable,
        budget=_budget_from(args),
        fallback=args.fallback,
    )
    _emit_tree(
        result.tree,
        args,
        f"# root {args.root}; weight {result.weight:g}; "
        f"targets {len(result.terminals)}; unreachable {len(result.unreachable)}; "
        f"steiner relays {len(result.steiner_vertices)}"
        + _degradation_note(result),
    )
    return 0


def _cmd_generate(args) -> int:
    graph = load_dataset(
        args.dataset, scale=args.scale, seed=args.seed, weighted=args.weighted
    )
    if args.out == "-":
        tio.write_native(graph, sys.stdout)
    else:
        tio.write_native(graph, args.out)
        print(
            f"wrote {graph.num_edges} edges / {graph.num_vertices} vertices "
            f"to {args.out}",
            file=sys.stderr,
        )
    return 0


def _experiment_context(args) -> Optional[ExperimentContext]:
    """An ExperimentContext when any resilience/parallel flag is set."""
    if (
        args.budget is None
        and args.checkpoint_dir is None
        and not args.resume
        and args.max_cells is None
        and args.jobs == 1
    ):
        return None
    checkpoint_dir = args.checkpoint_dir
    if checkpoint_dir is None and args.resume:
        checkpoint_dir = ".repro-checkpoints"
    return ExperimentContext(
        cell_budget_seconds=args.budget,
        checkpoint_dir=checkpoint_dir,
        resume=args.resume,
        interrupt_after=args.max_cells,
        jobs=args.jobs,
    )


def _cmd_experiment(args) -> int:
    names = sorted(EXPERIMENTS) if args.name == "all" else [args.name]
    context = _experiment_context(args)
    if args.markdown:
        from repro.experiments.report import build_report

        document = build_report(names, quick=args.quick, context=context)
        if args.markdown == "-":
            print(document, end="")
        else:
            with open(args.markdown, "w", encoding="utf-8") as handle:
                handle.write(document)
            print(f"wrote report to {args.markdown}", file=sys.stderr)
        return 0
    for name in names:
        try:
            result = run_experiment(name, quick=args.quick, context=context)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        print(result.render())
        print()
    if context is not None:
        # Recovery actions are reported out-of-band: tables must render
        # byte-identically with and without faults.
        summary = context.fault_summary()
        if summary is not None:
            print(f"note: {summary}", file=sys.stderr)
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis.cli import main as lint_main

    return lint_main(args.lint_args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="temporal-mst",
        description="Minimum spanning trees in temporal graphs (SIGMOD 2015).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="Table-1 style graph statistics")
    _add_io_arguments(p_stats)
    p_stats.add_argument("--name", default="graph", help="row label")
    p_stats.set_defaults(func=_cmd_stats)

    p_msta = sub.add_parser("msta", help="earliest-arrival spanning tree")
    _add_io_arguments(p_msta)
    _add_window_arguments(p_msta)
    _add_output_argument(p_msta)
    p_msta.add_argument("--root", required=True)
    p_msta.add_argument(
        "--algorithm",
        choices=["auto", "chronological", "stack"],
        default="auto",
    )
    p_msta.set_defaults(func=_cmd_msta)

    p_mstw = sub.add_parser("mstw", help="minimum-weight spanning tree")
    _add_io_arguments(p_mstw)
    _add_window_arguments(p_mstw)
    _add_output_argument(p_mstw)
    p_mstw.add_argument("--root", required=True)
    p_mstw.add_argument("--level", type=int, default=2, help="DST iterations i")
    p_mstw.add_argument(
        "--algorithm",
        choices=["pruned", "improved", "charikar"],
        default="pruned",
    )
    _add_budget_arguments(p_mstw)
    p_mstw.set_defaults(func=_cmd_mstw)

    p_steiner = sub.add_parser(
        "steiner", help="targeted dissemination (temporal Steiner tree)"
    )
    _add_io_arguments(p_steiner)
    _add_window_arguments(p_steiner)
    _add_output_argument(p_steiner)
    p_steiner.add_argument("--root", required=True)
    p_steiner.add_argument(
        "--terminals", required=True, help="comma-separated target vertices"
    )
    p_steiner.add_argument("--level", type=int, default=2)
    p_steiner.add_argument(
        "--algorithm",
        choices=["pruned", "improved", "charikar"],
        default="pruned",
    )
    p_steiner.add_argument("--allow-unreachable", action="store_true")
    _add_budget_arguments(p_steiner)
    p_steiner.set_defaults(func=_cmd_steiner)

    p_gen = sub.add_parser("generate", help="write a synthetic dataset")
    p_gen.add_argument("dataset", choices=sorted(DATASETS))
    p_gen.add_argument("--scale", type=float, default=0.1)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--weighted", action="store_true")
    p_gen.add_argument("--out", default="-", help="output file, or '-' for stdout")
    p_gen.set_defaults(func=_cmd_generate)

    p_exp = sub.add_parser(
        "experiment", help="regenerate a paper table or figure"
    )
    p_exp.add_argument(
        "name",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="experiment key, or 'all'",
    )
    p_exp.add_argument(
        "--quick",
        action="store_true",
        help="smaller workloads and fewer levels (CI-friendly)",
    )
    p_exp.add_argument(
        "--markdown",
        default=None,
        help="write a markdown report to this file ('-' for stdout)",
    )
    p_exp.add_argument(
        "--budget",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per experiment cell",
    )
    p_exp.add_argument(
        "--checkpoint-dir",
        default=None,
        help="directory for per-experiment checkpoint files "
        "(default with --resume: .repro-checkpoints)",
    )
    p_exp.add_argument(
        "--resume",
        action="store_true",
        help="reuse completed cells from a previous interrupted run",
    )
    p_exp.add_argument(
        "--max-cells",
        type=_positive_int,
        default=None,
        metavar="N",
        help="stop after N freshly computed cells (checkpoint survives)",
    )
    p_exp.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="worker processes for the cell grid (output is identical "
        "to --jobs 1; default 1)",
    )
    p_exp.set_defaults(func=_cmd_experiment)

    p_lint = sub.add_parser(
        "lint",
        help="repository-specific invariant linter (repro.analysis)",
        add_help=False,
    )
    p_lint.add_argument(
        "lint_args",
        nargs=argparse.REMAINDER,
        help="arguments forwarded to `python -m repro.analysis`",
    )
    p_lint.set_defaults(func=_cmd_lint)

    return parser


def main(argv: Optional[list] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # Forwarded verbatim: argparse.REMAINDER cannot capture leading
        # options (`lint --list-rules`), so the sub-tool parses its own
        # argv.  The `lint` subparser below stays for --help discovery.
        from repro.analysis.cli import main as lint_main

        return lint_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
