"""End-to-end benchmark: whole workloads, timed from outside the library.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload W]... [--seed N] [--repeats R]
        [--trace [0|1]] [--size full|tiny] [--out FILE]

Every repeat of a workload runs one pass in a fresh ``child.py``
process with ``PYTHONPATH=<root>/src``, ``PYTHONHASHSEED=0`` and
single-threaded BLAS, so no repeat inherits another's heap or caches.
The workloads are sized so that the default three repeats measure about
``run_seconds`` of ``BENCHMARK.json``; ``--seconds`` is accepted for
that contract's command line and changes nothing.

Every end-to-end metric is measured once per repeat and reported as
the median over the repeats (the document also keeps min, max and n).
Workloads with at least ``LATENCY_MIN_OPS`` operations per pass also
get the 50th/90th percentile of their operation latencies in the
document; they are not gated.  ``--trace 1`` adds one traced repeat
whose per-layer metrics (see ``tracing.py``) replace the end-to-end
ones on the final line.

Outputs are checked: every operation's result digest must agree across
repeats, between the traced and untraced runs, and with the committed
reference under ``reference/`` where one exists for the seed.  A
mismatch, an exception, or a degraded / over-budget / timed-out cell
counts the operation as failed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (needs HERE on sys.path)

SCHEMA = 1
CHILD_TIMEOUT_S = 170
#: Fewer operations than this make a percentile a reweighting of two
#: or three values rather than a latency distribution.
LATENCY_MIN_OPS = 20
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not an operation failure)."""


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def host_info() -> Dict[str, Any]:
    import multiprocessing

    import numpy

    return {
        "nproc": nproc(),
        "start_method": multiprocessing.get_start_method(),
        "batch_start_method": workloads.BATCH_START_METHOD,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "loadavg_1m": os.getloadavg()[0],
    }


def percentile(values: List[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summary(values: List[float]) -> Dict[str, Any]:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "values": values,
    }


def spawn(
    workload: str, args: argparse.Namespace, workdir: str, trace: bool = False
) -> Dict[str, Any]:
    """Run ``child.py`` once; returns its JSON line plus the set-up time."""
    os.makedirs(workdir)
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        TMPDIR=workdir,
    )
    command = [
        sys.executable,
        os.path.join(HERE, "child.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--size", args.size,
        "--workdir", workdir,
    ] + (["--trace"] if trace else [])
    started = time.monotonic()
    # A session of its own, so that stopping the child stops its pool
    # workers too.
    with subprocess.Popen(
        command,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as child:
        try:
            stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException as exc:  # timeout or interrupt; re-raised below
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"{workload}: child exceeded {CHILD_TIMEOUT_S}s")
            raise
    if child.returncode != 0:
        raise BenchError(f"{workload}: child exited with status {child.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    result["setup_s"] = result["first_op_at"] - started
    return result


def load_reference(seed: int) -> Dict[str, Dict[str, str]]:
    path = os.path.join(HERE, "reference", f"seed{seed}.json")
    if not os.path.exists(path):
        return {}
    with open(path) as handle:
        return json.load(handle)["workloads"]


def check_digests(
    passes: List[Dict[str, Any]], reference: Dict[str, str]
) -> List[Dict[str, Any]]:
    """Failures: operations that failed, disagreed between passes or
    with the reference."""
    failures = []
    seen: Dict[str, str] = {}
    for index, child in enumerate(passes):
        for op in child["ops"]:
            reason = op["failure"]
            digest = op["digest"]
            if reason is None and seen.setdefault(op["id"], digest) != digest:
                reason = f"digest {digest} differs from an earlier {seen[op['id']]}"
            if reason is None and reference.get(op["id"], digest) != digest:
                reason = f"digest {digest} differs from reference {reference[op['id']]}"
            if reason is not None:
                failures.append({"pass": index, "op": op["id"], "reason": reason})
    return failures


def run_workload(
    name: str, args: argparse.Namespace, tmp: str, reference: Dict[str, str]
) -> Dict[str, Any]:
    passes = [
        spawn(name, args, os.path.join(tmp, f"{name}-{i}"))
        for i in range(args.repeats)
    ]
    traced = None
    if args.trace:
        traced = spawn(name, args, os.path.join(tmp, f"{name}-traced"), trace=True)

    walls = [sum(op["wall_s"] for op in child["ops"]) for child in passes]
    metrics = {
        "setup_s": summary([child["setup_s"] for child in passes]),
        "wall_s": summary(walls),
        "cpu_s": summary([sum(op["cpu_s"] for op in child["ops"]) for child in passes]),
        "peak_rss_mb": summary([child["peak_rss_mb"] for child in passes]),
    }

    checked = passes + ([traced] if traced is not None else [])
    failures = check_digests(checked, reference)
    digests = {op["id"]: op["digest"] for op in passes[0]["ops"]}
    ops_per_pass = len(passes[0]["ops"])
    record: Dict[str, Any] = {
        "repeats": args.repeats,
        "ops_per_pass": ops_per_pass,
        "attempted": sum(len(child["ops"]) for child in checked),
        "failed": len(failures),
        "failures": failures,
        "digest": workloads.digest_of(digests),
        "op_digests": digests,
        "reference": "checked" if reference else "none",
        "stats": passes[0]["stats"],
        "metrics": {
            metric: dict(values, unit=END_TO_END_UNITS[metric])
            for metric, values in metrics.items()
        },
    }
    if ops_per_pass >= LATENCY_MIN_OPS:
        latencies = [[op["wall_s"] * 1e3 for op in child["ops"]] for child in passes]
        record["latency_ms"] = {
            f"p{q}": summary([percentile(values, q) for values in latencies])
            for q in (50, 90)
        }
    if traced is not None:
        traced_wall = sum(op["wall_s"] for op in traced["ops"])
        layers = {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit) in traced["layers"].items()
        }
        layers["trace.overhead"]["value"] = traced_wall / statistics.median(walls) - 1
        traced_digests = {op["id"]: op["digest"] for op in traced["ops"]}
        record["trace"] = {
            "digest": workloads.digest_of(traced_digests),
            "missing_sites": traced["missing_sites"],
            "metrics": layers,
        }
    return record


def print_workload(name: str, record: Dict[str, Any]) -> None:
    print(
        f"{name}: {record['repeats']} repeats x {record['ops_per_pass']} ops, "
        f"{record['failed']}/{record['attempted']} failed, digest {record['digest']} "
        f"(reference {record['reference']})"
    )
    for failure in record["failures"]:
        print(f"  FAILED pass {failure['pass']} {failure['op']}: {failure['reason']}")
    for metric, s in record["metrics"].items():
        print(
            f"  {metric:<14} {s['median']:12.4f} {s['unit']:<5} "
            f"(min {s['min']:.4f}, max {s['max']:.4f}, n={s['n']})"
        )
    for quantile, s in record.get("latency_ms", {}).items():
        print(f"  op latency {quantile} {s['median']:12.4f} ms    (not gated)")
    if "trace" in record:
        trace = record["trace"]
        print(f"  traced digest {trace['digest']}, missing {trace['missing_sites']}")
        for metric, s in sorted(trace["metrics"].items()):
            print(f"  {metric:<30} {s['value']:14.6g} {s['unit']}")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=sorted(workloads.WORKLOADS)
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--seconds",
        type=float,
        help="accepted for the BENCHMARK.json command line; changes nothing",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--out")
    parser.add_argument(
        "--update-reference",
        action="store_true",
        help="store this run's operation digests as the seed's reference",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    names = args.workload or list(workloads.WORKLOADS)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no library source under {ROOT}/src", file=sys.stderr)
        return 2
    host = host_info()
    if "batch_sweep" in names and host["nproc"] < workloads.BATCH_JOBS:
        print(
            f"error: batch_sweep runs {workloads.BATCH_JOBS} workers and needs "
            f"nproc >= {workloads.BATCH_JOBS} (have {host['nproc']})",
            file=sys.stderr,
        )
        return 2
    references = load_reference(args.seed) if args.size == "full" else {}
    # Inside the checkout (the benchmark writes nowhere else), under the
    # already ignored build/; removed when the run ends.
    scratch = os.path.join(ROOT, "build", "e2e-bench")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        records = {
            name: run_workload(name, args, tmp, references.get(name, {}))
            for name in names
        }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.removedirs(scratch)  # and build/, when nothing else is there
        except OSError:
            pass  # another run still uses it

    document = {
        "schema": SCHEMA,
        "seed": args.seed,
        "size": args.size,
        "trace": bool(args.trace),
        "host": host,
        "workloads": records,
    }
    for name, record in records.items():
        print_workload(name, record)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
    if args.update_reference:
        write_reference(args, records)

    metrics: Dict[str, Any] = {}
    for name, record in records.items():
        if args.trace:
            values = record["trace"]["metrics"]
        else:
            values = {
                metric: {"value": s["median"], "unit": s["unit"]}
                for metric, s in record["metrics"].items()
            }
        prefix = "" if len(records) == 1 else f"{name}/"
        metrics.update({prefix + metric: value for metric, value in values.items()})
    failed = sum(record["failed"] for record in records.values())
    result = {
        "correct": failed == 0,
        "attempted": sum(record["attempted"] for record in records.values()),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def write_reference(args: argparse.Namespace, records: Dict[str, Any]) -> None:
    if args.size != "full":
        raise SystemExit("error: references are kept for --size full only")
    path = os.path.join(HERE, "reference", f"seed{args.seed}.json")
    stored = {"seed": args.seed, "workloads": load_reference(args.seed)}
    for name, record in records.items():
        if record["failed"]:
            raise SystemExit(f"error: {name} had failures; reference not written")
        stored["workloads"][name] = record["op_digests"]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(stored, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    sys.exit(main())
