"""The bench harness: scenarios, timing document, CLI subcommand."""

import json
import subprocess
import sys

import pytest

from repro.perf.harness import (
    SCHEMA_VERSION,
    run_benchmarks,
    summarize,
    write_benchmarks,
)
from repro.perf.scenarios import SCALES, build_scenarios, scenario_names

#: A cheap scenario subset exercised by the timing tests (full smoke
#: runs live in CI's bench-smoke job, not the unit suite).
FAST = ["closure_prepare", "msta_stack"]


class TestScenarios:
    def test_scales_exist(self):
        assert set(SCALES) >= {"smoke", "full"}

    @pytest.mark.parametrize("scale", sorted(SCALES))
    def test_scenario_suite_shape(self, scale):
        scenarios = build_scenarios(scale)
        # The acceptance floor: at least 8 scenarios per scale.
        assert len(scenarios) >= 8
        names = [s.name for s in scenarios]
        assert len(names) == len(set(names)), "duplicate scenario names"
        by_name = {s.name: s for s in scenarios}
        for scenario in scenarios:
            assert scenario.group
            assert scenario.description
            if scenario.baseline is not None:
                assert scenario.baseline in by_name

    def test_speedup_pair_present(self):
        """The committed >=1.5x claim needs its pair at full scale."""
        names = scenario_names("full")
        assert "solve_improved_i2" in names
        assert "solve_improved_i2_legacy" in names

    def test_unknown_scale(self):
        with pytest.raises(KeyError):
            build_scenarios("galactic")

    def test_parallel_scenarios_gated_by_jobs(self):
        """Pool-backed variants only join the suite at their jobs level."""
        at_one = scenario_names("smoke", jobs=1)
        assert "parallel_sweep_serial" in at_one
        assert "parallel_sweep_jobs1" in at_one
        assert "parallel_sweep_jobs2" not in at_one
        at_four = scenario_names("smoke", jobs=4)
        assert "parallel_sweep_jobs2" in at_four
        assert "parallel_sweep_jobs4" in at_four

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError):
            build_scenarios("smoke", jobs=0)


class TestHarness:
    def test_document_schema(self):
        doc = run_benchmarks("smoke", repeats=1, names=FAST)
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["scale"] == "smoke"
        assert doc["repeats"] == 1
        assert "python" in doc["platform"]
        rows = doc["scenarios"]
        assert {r["name"] for r in rows} == set(FAST)
        for row in rows:
            assert row["median_s"] >= 0
            assert row["min_s"] <= row["median_s"] <= row["max_s"]
            assert row["repeats"] == 1
            assert row["peak_alloc_bytes"] > 0
            assert "n" in row["params"] and "M" in row["params"]

    def test_baseline_pulled_in_and_speedup_computed(self):
        doc = run_benchmarks("smoke", repeats=1, names=["solve_improved_i2"])
        names = {r["name"] for r in doc["scenarios"]}
        # solve_improved_i2's baseline joins the run automatically.
        assert names == {"solve_improved_i2", "solve_improved_i2_legacy"}
        optimised = next(
            r for r in doc["scenarios"] if r["name"] == "solve_improved_i2"
        )
        assert optimised["baseline"] == "solve_improved_i2_legacy"
        assert optimised["speedup"] is not None and optimised["speedup"] > 0

    def test_solver_scenario_reports_expansions(self):
        doc = run_benchmarks("smoke", repeats=1, names=["solve_pruned_i2"])
        row = next(
            r for r in doc["scenarios"] if r["name"] == "solve_pruned_i2"
        )
        assert row["expansions"] > 0
        assert row["params"]["i"] == 2
        assert row["params"]["k"] > 0

    def test_determinism_across_runs(self):
        """Same scale, same seeds: identical workloads, identical counts."""
        doc1 = run_benchmarks(
            "smoke", repeats=1, names=["solve_pruned_i2"], track_alloc=False
        )
        doc2 = run_benchmarks(
            "smoke", repeats=1, names=["solve_pruned_i2"], track_alloc=False
        )
        row1 = doc1["scenarios"][-1]
        row2 = doc2["scenarios"][-1]
        assert row1["expansions"] == row2["expansions"]
        assert row1["params"] == row2["params"]

    def test_document_records_execution_environment(self):
        """Schema v2: jobs + CPU/start-method provenance in the doc."""
        doc = run_benchmarks("smoke", repeats=1, names=FAST, track_alloc=False)
        assert doc["jobs"] == 1
        assert doc["platform"]["cpu_count"] >= 1
        assert doc["platform"]["start_method"] in (
            "fork",
            "spawn",
            "forkserver",
        )

    def test_parallel_scenario_reports_reuse_hits(self):
        doc = run_benchmarks(
            "smoke",
            repeats=1,
            names=["parallel_sweep_jobs1"],
            track_alloc=False,
        )
        rows = {r["name"]: r for r in doc["scenarios"]}
        # the serial baseline joins the run automatically
        assert set(rows) == {"parallel_sweep_serial", "parallel_sweep_jobs1"}
        # each window's variants share one extraction: one miss per window
        engine = rows["parallel_sweep_jobs1"]
        params = engine["params"]
        assert engine["reuse_hits"] == params["cells"] - params["windows"] > 0
        assert rows["parallel_sweep_serial"]["reuse_hits"] is None
        with pytest.raises(KeyError):
            run_benchmarks("smoke", repeats=1, names=["nope"])

    def test_bad_repeats(self):
        with pytest.raises(ValueError):
            run_benchmarks("smoke", repeats=0)

    def test_write_round_trip(self, tmp_path):
        doc = run_benchmarks("smoke", repeats=1, names=FAST, track_alloc=False)
        path = tmp_path / "bench.json"
        write_benchmarks(doc, str(path))
        assert json.loads(path.read_text()) == doc

    def test_summarize_renders(self, capsys):
        doc = run_benchmarks("smoke", repeats=1, names=FAST, track_alloc=False)
        summarize(doc)
        out = capsys.readouterr().out
        for name in FAST:
            assert name in out


class TestBenchCli:
    def _run(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_list(self, capsys):
        assert self._run("bench", "--list", "--scale", "smoke") == 0
        out = capsys.readouterr().out.splitlines()
        assert "solve_improved_i2" in out
        assert len(out) >= 8

    def test_run_only_and_out(self, tmp_path, capsys):
        out_path = tmp_path / "doc.json"
        code = self._run(
            "bench",
            "--repeats",
            "1",
            "--only",
            "msta_stack",
            "--out",
            str(out_path),
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["schema_version"] == SCHEMA_VERSION

    def test_self_compare_is_clean(self, tmp_path):
        out_path = tmp_path / "doc.json"
        assert (
            self._run(
                "bench",
                "--repeats",
                "1",
                "--only",
                "msta_stack",
                "--out",
                str(out_path),
            )
            == 0
        )
        # Generous tolerance: this asserts the wiring (schema match,
        # clean diff, exit code), not micro-timing stability.
        code = self._run(
            "bench",
            "--repeats",
            "1",
            "--only",
            "msta_stack",
            "--compare",
            str(out_path),
            "--tolerance",
            "100",
        )
        assert code == 0

    def test_compare_missing_baseline_file(self, tmp_path, capsys):
        code = self._run(
            "bench",
            "--repeats",
            "1",
            "--only",
            "msta_stack",
            "--compare",
            str(tmp_path / "absent.json"),
        )
        assert code == 2

    def test_module_entry_point(self, tmp_path):
        """`python -m repro bench` works as documented in the issue."""
        out_path = tmp_path / "doc.json"
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "bench",
                "--scale",
                "smoke",
                "--repeats",
                "1",
                "--only",
                "msta_stack",
                "--out",
                str(out_path),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert out_path.exists()


class TestShardedScenarios:
    def test_sharded_scenarios_gated_by_jobs(self):
        at_one = scenario_names("smoke", jobs=1)
        assert "sharded_sweep_jobs1" in at_one
        assert "sharded_sweep_jobs2_wholegraph" not in at_one
        at_two = scenario_names("smoke", jobs=2)
        assert "sharded_sweep_jobs2_wholegraph" in at_two

    def test_speedup_pair_present_at_full_scale(self):
        """The jobs=1 vs jobs=2 pair exists at full scale."""
        names = scenario_names("full", jobs=2)
        assert "sharded_sweep_jobs2_wholegraph" in names
        assert "sharded_sweep_jobs1" in names
