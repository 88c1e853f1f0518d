"""One repeat of one workload, run in a fresh process by ``run.py``.

Prints a single JSON line on stdout.  ``first_op_at`` is the
``time.monotonic()`` reading taken when set-up is done (the parent
subtracts its spawn time to get the set-up time).  The line also
carries one pass over the workload's operations: wall and CPU seconds
per operation (checks and digests run outside both), the peak RSS of
this process and of its reaped children, the engines' counters and,
with ``--trace``, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from typing import Any, Dict, List, Optional


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _peak_rss_mb() -> float:
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def run_pass(ops: List[Any], recorder: Optional[Any]) -> List[Dict[str, Any]]:
    records = []
    for op in ops:
        if recorder is not None:
            recorder.in_op = True
        cpu_start = _cpu_seconds()
        start = time.perf_counter()
        try:
            result = op.run()
            error = None
        except Exception as exc:  # an operation's failure is counted, not fatal
            traceback.print_exc()
            result, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        cpu = _cpu_seconds() - cpu_start
        if recorder is not None:
            recorder.in_op = False
        digest, failure = op.check(result) if error is None else (None, error)
        records.append(
            {
                "id": op.id,
                "wall_s": wall,
                "cpu_s": cpu,
                "digest": digest,
                "failure": failure,
            }
        )
    return records


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    recorder = None
    if args.trace:
        import tracing

        spool = os.path.join(args.workdir, "spool")
        os.makedirs(spool, exist_ok=True)
        recorder = tracing.install(spool)
    import workloads

    pass_ = workloads.WORKLOADS[args.workload](args.seed, args.size, args.workdir)
    first_op_at = time.monotonic()
    ops = run_pass(pass_.ops, recorder)
    stats = pass_.stats()
    out: Dict[str, Any] = {
        "first_op_at": first_op_at,
        "ops": ops,
        "peak_rss_mb": _peak_rss_mb(),
        "stats": stats,
    }
    if recorder is not None:
        wall = sum(op["wall_s"] for op in ops)
        metrics = tracing.layer_metrics(recorder.snapshot(), wall, stats)
        out["layers"] = {name: list(pair) for name, pair in metrics.items()}
        out["missing_sites"] = recorder.missing
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
