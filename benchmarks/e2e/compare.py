"""Compare two end-to-end benchmark documents written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py BASE.json NEW.json

For every workload in both documents and every end-to-end metric that
``BENCHMARK.json`` declares, the new median and the new min are each
compared with the base's, against the metric's ``bound`` (a share of
the base value, in the metric's ``better`` direction).  One row is
printed per workload.

A metric is ``unresolved`` when either side's max/min spread over its
repeats exceeds the bound: the runs cannot tell a change of that size
from noise, unless every new repeat beats every base repeat
(``better``).  A spread above 2x draws a warning.

Exit status 1 when a metric regressed, when the documents share seed
and size but their output digests differ, or when the share of failed
operations grew.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def worse_by(base: float, new: float, better: str) -> float:
    """Relative change of ``new`` against ``base``; positive means worse."""
    change = (new - base) / base
    return change if better == "lower" else -change


def spread(values: Dict[str, Any]) -> float:
    return values["max"] / values["min"] - 1 if values["min"] > 0 else float("inf")


def judge(declared: Dict[str, Any], base: Dict[str, Any], new: Dict[str, Any]) -> str:
    bound, better = declared["bound"], declared["better"]
    if max(spread(base), spread(new)) > bound:
        if better == "lower":
            separated = new["max"] < base["min"]
        else:
            separated = new["min"] > base["max"]
        return "better" if separated else "unresolved"
    worst = max(
        worse_by(base["median"], new["median"], better),
        worse_by(base["min"], new["min"], better),
    )
    if worst > bound:
        return "REGRESSED"
    return "better" if worst < -bound else "ok"


def compare(
    base: Dict[str, Any], new: Dict[str, Any], declared: List[Dict[str, Any]]
) -> int:
    status = 0
    same_inputs = (base["seed"], base["size"]) == (new["seed"], new["size"])
    for key in ("nproc", "python", "numpy"):
        old, now = base["host"].get(key), new["host"].get(key)
        if old != now:
            print(f"warning: host {key} differs: {old} vs {now}")
    for name in sorted(set(base["workloads"]) & set(new["workloads"])):
        b, n = base["workloads"][name], new["workloads"][name]
        cells = []
        for decl in declared:
            metric = decl["name"]
            if metric not in b["metrics"] or metric not in n["metrics"]:
                continue
            bm, nm = b["metrics"][metric], n["metrics"][metric]
            verdict = judge(decl, bm, nm)
            change = worse_by(bm["median"], nm["median"], "lower")
            cells.append(f"{metric} {change:+.1%} {verdict}")
            if verdict == "REGRESSED":
                status = 1
            for side, values in (("base", bm), ("new", nm)):
                if spread(values) > 1.0:
                    ratio = spread(values) + 1
                    print(f"warning: {name} {metric}: {side} max/min is {ratio:.1f}x")
        if b["failed"] / b["attempted"] < n["failed"] / n["attempted"]:
            cells.append(
                f"failed {b['failed']}/{b['attempted']} -> "
                f"{n['failed']}/{n['attempted']}"
            )
            status = 1
        if same_inputs and b["digest"] != n["digest"]:
            differing = sorted(
                op
                for op, digest in n["op_digests"].items()
                if b["op_digests"].get(op) != digest
            )
            where = ", ".join(differing) or "operation set"
            cells.append(f"DIGEST MISMATCH in {where}")
            status = 1
        print(f"{name}: " + " | ".join(cells))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    documents = []
    for path in (args.base, args.new, os.path.join(ROOT, "BENCHMARK.json")):
        with open(path) as handle:
            documents.append(json.load(handle))
    base, new, bench = documents
    return compare(base, new, bench["end_to_end"])


if __name__ == "__main__":
    sys.exit(main())
