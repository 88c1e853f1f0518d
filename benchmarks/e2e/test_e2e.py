"""Self-test of the end-to-end benchmark at ``--size tiny``.

Run with ``python -m pytest benchmarks/e2e``; the tier-1 suite does not
collect it (its ``testpaths`` is ``tests``).  Each workload runs in a
few seconds at this size.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench(tmp_path, *args):
    """Run ``run.py`` at tiny size; returns (document, last stdout line)."""
    out = tmp_path / "doc.json"
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--size", "tiny",
         "--repeats", "2", "--seed", "3", "--out", str(out), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(out.read_text()), json.loads(completed.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return bench(tmp_path_factory.mktemp("traced"), "--trace", "1")


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return bench(tmp_path_factory.mktemp("untraced"), "--trace", "0")


def test_every_metric_is_declared(declared, traced):
    document, _ = traced
    for kind, key in (("end_to_end", "metrics"), ("per_layer", None)):
        units = {m["name"]: m["unit"] for m in declared[kind]}
        assert all(NAME.fullmatch(name) for name in units)
        for workload, record in document["workloads"].items():
            emitted = record[key] if key else record["trace"]["metrics"]
            assert set(emitted) == set(units), (kind, workload)
            assert {n: s["unit"] for n, s in emitted.items()} == units
    assert {w["name"] for w in declared["workloads"]} == set(document["workloads"])


def test_last_line_is_the_result(traced, untraced):
    for document, result in (traced, untraced):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1


def test_every_trace_site_is_bound(traced):
    for record in traced[0]["workloads"].values():
        assert record["trace"]["missing_sites"] == []


def test_trace_covers_the_timed_region(traced):
    for workload, record in traced[0]["workloads"].items():
        assert record["trace"]["metrics"]["trace.coverage"]["value"] >= 0.95, workload


def test_traced_digest_equals_untraced(traced):
    for record in traced[0]["workloads"].values():
        assert record["trace"]["digest"] == record["digest"]


def test_two_runs_give_equal_digests(traced, untraced):
    for workload, record in untraced[0]["workloads"].items():
        assert traced[0]["workloads"][workload]["digest"] == record["digest"]


def test_spans_outside_operations_keep_only_setup_layers(tmp_path):
    sys.path.insert(0, HERE)
    import tracing

    recorder = tracing.Recorder(str(tmp_path))
    for in_op, layer in (
        (False, "temporal.reach"),
        (False, "datasets.load"),
        (True, "temporal.reach"),
    ):
        recorder.in_op = in_op
        recorder.pop(recorder.push(layer), time.perf_counter(), {})
    assert {layer: calls for layer, (_, _, calls) in recorder.layers.items()} == {
        "temporal.reach": 1,
        "datasets.load": 1,
    }


def test_compare_passes_itself_and_flags_a_regression(tmp_path, untraced):
    document = json.loads(json.dumps(untraced[0]))
    walls = [r["metrics"]["wall_s"] for r in document["workloads"].values()]
    for wall in walls:
        wall.update(min=wall["median"], max=wall["median"])
    base = tmp_path / "base.json"
    base.write_text(json.dumps(document))
    compare = [sys.executable, os.path.join(HERE, "compare.py"), str(base)]
    assert subprocess.run(compare + [str(base)], capture_output=True).returncode == 0
    for wall in walls:
        wall.update(median=wall["median"] * 2, min=wall["min"] * 2, max=wall["max"] * 2)
    slower = tmp_path / "slower.json"
    slower.write_text(json.dumps(document))
    assert subprocess.run(compare + [str(slower)], capture_output=True).returncode == 1


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e")
    completed = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "query_stream"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
