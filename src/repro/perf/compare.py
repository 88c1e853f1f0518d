"""Regression comparator for bench documents.

``compare_benchmarks(baseline_doc, current_doc)`` diffs two documents
produced by :mod:`repro.perf.harness` scenario-by-scenario and flags a
regression when the current median exceeds ``baseline * tolerance``.
The tolerance resolves, most specific first: the scenario's own
``tolerance`` field in the *baseline* document, then the call-level
default.  Medians below :data:`NOISE_FLOOR_S` on both sides are never
flagged -- sub-millisecond scenarios on shared CI runners are noise,
not signal.

A scenario present in the baseline but missing from the current run is
a failure (a silently dropped benchmark would otherwise look like a
pass); new scenarios in the current run never fail but are rendered as
``WARN`` and counted in the verdict line -- an ungated scenario that
silently passed would defeat the gate, so the warning nags until the
baseline is regenerated.

Module usage::

    python -m repro.perf.compare baseline.json current.json

exits 0 when clean, 1 on regression (the CI ``bench-smoke`` gate), and
2 on malformed input.  ``python -m repro bench --compare`` routes here.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.perf.harness import SCHEMA_VERSION

#: Schema versions this comparator can diff against each other.  v2
#: only *adds* fields to v1 (top-level ``jobs``, platform CPU info,
#: per-scenario ``reuse_hits``), and v3 only added the now-unwritten
#: ``shard_stats`` to v2, so earlier baselines remain comparable and
#: committed baselines keep gating CI across schema bumps.
COMPATIBLE_VERSIONS = frozenset({1, 2, SCHEMA_VERSION})

#: Both medians under this many seconds -> too fast to gate on.
NOISE_FLOOR_S = 0.002

#: Default allowed slowdown factor (current may be up to 25% slower).
DEFAULT_TOLERANCE = 1.25


@dataclass
class ScenarioDelta:
    """One scenario's baseline-vs-current figures."""

    name: str
    baseline_s: Optional[float]
    current_s: Optional[float]
    tolerance: float
    ratio: Optional[float] = None
    status: str = "ok"  # ok | regression | missing | new | skipped-noise

    @property
    def failed(self) -> bool:
        return self.status in ("regression", "missing")


#: ``(field label, extractor)`` pairs of the run-environment metadata
#: compared by :func:`_metadata_warnings`.  Timings from different
#: worker counts, CPU counts, or start methods are comparable only with
#: care -- the comparator says so out loud instead of diffing silently.
_METADATA_FIELDS = (
    ("jobs", lambda doc: doc.get("jobs")),
    ("cpu_count", lambda doc: doc.get("platform", {}).get("cpu_count")),
    (
        "start_method",
        lambda doc: doc.get("platform", {}).get("start_method"),
    ),
)


def _metadata_warnings(
    baseline: Dict[str, Any], current: Dict[str, Any]
) -> List[str]:
    """WARN lines for run-environment metadata the documents disagree on.

    Never fails the gate -- a committed baseline is routinely replayed
    on runners with different core counts -- but a silent mismatch has
    cost real debugging time, so the disagreement is rendered with the
    report.  Fields absent from one side (v1 documents) are skipped.
    """
    warnings = []
    for label, extract in _METADATA_FIELDS:
        base_value = extract(baseline)
        cur_value = extract(current)
        if base_value is None or cur_value is None:
            continue
        if base_value != cur_value:
            warnings.append(
                f"WARN  metadata mismatch: {label} differs "
                f"(baseline {base_value!r}, current {cur_value!r}) -- "
                "timings may not be comparable"
            )
    return warnings


@dataclass
class ComparisonReport:
    """The full diff of two bench documents."""

    deltas: List[ScenarioDelta] = field(default_factory=list)
    metadata_warnings: List[str] = field(default_factory=list)

    @property
    def failures(self) -> List[ScenarioDelta]:
        return [d for d in self.deltas if d.failed]

    @property
    def warnings(self) -> List[ScenarioDelta]:
        """Current scenarios with no baseline entry (status ``new``).

        These never fail the gate, but they are surfaced loudly: an
        ungated scenario silently passing would hide exactly the
        regressions the comparator exists to catch, so the render marks
        them ``WARN`` and the verdict line counts them until the
        baseline is regenerated.
        """
        return [d for d in self.deltas if d.status == "new"]

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = list(self.metadata_warnings)
        name_width = max((len(d.name) for d in self.deltas), default=4)
        for delta in self.deltas:
            base = (
                f"{delta.baseline_s * 1e3:8.2f}ms"
                if delta.baseline_s is not None
                else "       --"
            )
            cur = (
                f"{delta.current_s * 1e3:8.2f}ms"
                if delta.current_s is not None
                else "       --"
            )
            ratio = (
                f"{delta.ratio:5.2f}x" if delta.ratio is not None else "    --"
            )
            if delta.failed:
                marker = "FAIL"
            elif delta.status == "new":
                marker = "WARN"
            else:
                marker = "  ok"
            lines.append(
                f"{marker}  {delta.name:<{name_width}}  "
                f"{base} -> {cur}  {ratio}  "
                f"(tol {delta.tolerance:.2f}x, {delta.status})"
            )
        verdict = (
            "OK: no regressions"
            if self.ok
            else f"REGRESSION: {len(self.failures)} scenario(s) failed"
        )
        if self.warnings:
            names = ", ".join(d.name for d in self.warnings)
            verdict += (
                f"; WARNING: {len(self.warnings)} scenario(s) have no "
                f"baseline entry and are ungated ({names}) -- "
                "regenerate the baseline to gate them"
            )
        lines.append(verdict)
        return "\n".join(lines)


def _index(document: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    return {row["name"]: row for row in document.get("scenarios", [])}


def compare_benchmarks(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
    key: str = "median_s",
) -> ComparisonReport:
    """Diff two bench documents; see the module docstring for the rules."""
    if tolerance <= 0:
        raise ValueError(f"tolerance must be > 0, got {tolerance}")
    for label, document in (("baseline", baseline), ("current", current)):
        version = document.get("schema_version")
        if version not in COMPATIBLE_VERSIONS:
            raise ValueError(
                f"{label} document has schema_version {version!r}, "
                f"expected one of {sorted(COMPATIBLE_VERSIONS)}"
            )

    baseline_rows = _index(baseline)
    current_rows = _index(current)
    report = ComparisonReport(
        metadata_warnings=_metadata_warnings(baseline, current)
    )

    for name, base_row in baseline_rows.items():
        scenario_tolerance = base_row.get("tolerance") or tolerance
        base_value = base_row.get(key)
        cur_row = current_rows.get(name)
        if cur_row is None:
            report.deltas.append(
                ScenarioDelta(
                    name=name,
                    baseline_s=base_value,
                    current_s=None,
                    tolerance=scenario_tolerance,
                    status="missing",
                )
            )
            continue
        cur_value = cur_row.get(key)
        delta = ScenarioDelta(
            name=name,
            baseline_s=base_value,
            current_s=cur_value,
            tolerance=scenario_tolerance,
        )
        if base_value and cur_value:
            delta.ratio = cur_value / base_value
        if (
            base_value is not None
            and cur_value is not None
            and base_value < NOISE_FLOOR_S
            and cur_value < NOISE_FLOOR_S
        ):
            delta.status = "skipped-noise"
        elif delta.ratio is not None and delta.ratio > scenario_tolerance:
            delta.status = "regression"
        report.deltas.append(delta)

    for name, cur_row in current_rows.items():
        if name not in baseline_rows:
            report.deltas.append(
                ScenarioDelta(
                    name=name,
                    baseline_s=None,
                    current_s=cur_row.get(key),
                    tolerance=tolerance,
                    status="new",
                )
            )

    return report


def load_document(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.compare",
        description="Diff two bench JSON documents; exit 1 on regression.",
    )
    parser.add_argument("baseline", help="baseline bench JSON path")
    parser.add_argument("current", help="current bench JSON path")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help=f"default allowed slowdown factor (default {DEFAULT_TOLERANCE})",
    )
    args = parser.parse_args(argv)
    try:
        baseline = load_document(args.baseline)
        current = load_document(args.current)
        report = compare_benchmarks(
            baseline, current, tolerance=args.tolerance
        )
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
