#!/usr/bin/env python3
"""Compare two directories of ``BENCH_*.json`` artifacts for regressions.

CI runs the bench-smoke job on every push, downloads the previous
successful run's artifacts, and diffs them against the fresh ones.
Two thresholds drive the outcome:

* drops beyond ``--threshold`` (default 20%) print GitHub
  ``::warning::`` annotations — visible on the workflow summary, but
  shared-runner noise at this level is common, so they do not fail the
  build;
* drops beyond ``--fail-on-regression`` (e.g. 0.35) print ``::error::``
  annotations and exit 1 — the hard gate: a >35% throughput drop is
  beyond plausible runner jitter for these benches.

Metrics present in only one side are never silently ignored: new metric
names (added benchmarks) and removed ones (renamed/deleted) are listed
as ``::notice::`` lines so artifact drift stays visible in the summary.

Usage::

    python scripts/bench_compare.py <old-dir> <new-dir> [--threshold 0.20]
    python scripts/bench_compare.py previous-bench artifacts \\
        --threshold 0.20 --fail-on-regression 0.35
    python scripts/bench_compare.py previous-bench artifacts --strict

``--strict`` exits 1 when *any* regression beyond the warn threshold is
found (for local use). Only throughput-like metrics are compared (key
contains one of the :data:`METRIC_MARKERS` substrings); raw wall-clock
and count fields are ignored.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

#: substrings marking a numeric field as a higher-is-better throughput
METRIC_MARKERS = (
    "events_per_second",
    "cells_per_second",
    "decisions_per_second",
    "ratio",
    "speedup",
)


def throughput_metrics(document, prefix: str = "") -> Dict[str, float]:
    """Flatten a bench document into ``dotted.path -> value`` metrics."""
    metrics: Dict[str, float] = {}
    if not isinstance(document, dict):
        return metrics
    for key, value in document.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            metrics.update(throughput_metrics(value, f"{path}."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            if any(marker in key for marker in METRIC_MARKERS):
                metrics[path] = float(value)
    return metrics


@dataclass
class CompareReport:
    """Everything one artifact-directory comparison found."""

    #: warn-level drops (beyond the warn threshold, below the fail one)
    warnings: List[str] = field(default_factory=list)
    #: fail-level drops (beyond the fail threshold)
    failures: List[str] = field(default_factory=list)
    #: metrics present only in the new artifacts ("file: path (value)")
    added: List[str] = field(default_factory=list)
    #: metrics present only in the old artifacts
    removed: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[str]:
        """All regression messages, fail-level first."""
        return self.failures + self.warnings


def _load_metrics(path: Path) -> Dict[str, float]:
    try:
        return throughput_metrics(json.loads(path.read_text(encoding="utf-8")))
    except (OSError, ValueError):
        return {}  # unreadable artifacts are not comparable


def compare_directories(
    old_dir: Path,
    new_dir: Path,
    threshold: float,
    fail_threshold: float | None = None,
) -> CompareReport:
    """Compare every artifact pair; track added/removed metric names too."""
    report = CompareReport()
    old_files = {path.name for path in Path(old_dir).glob("BENCH_*.json")}
    new_files = {path.name for path in Path(new_dir).glob("BENCH_*.json")}
    for name in sorted(old_files - new_files):
        for path in sorted(_load_metrics(Path(old_dir) / name)):
            report.removed.append(f"{name}: {path}")
    for name in sorted(new_files):
        new_metrics = _load_metrics(Path(new_dir) / name)
        if name not in old_files:
            for path, value in sorted(new_metrics.items()):
                report.added.append(f"{name}: {path} ({value:,.1f})")
            continue
        old_metrics = _load_metrics(Path(old_dir) / name)
        for path, value in sorted(new_metrics.items()):
            if path not in old_metrics:
                report.added.append(f"{name}: {path} ({value:,.1f})")
        for path in sorted(set(old_metrics) - set(new_metrics)):
            report.removed.append(f"{name}: {path}")
        for path, old_value in sorted(old_metrics.items()):
            new_value = new_metrics.get(path)
            if new_value is None or old_value <= 0:
                continue
            drop = (old_value - new_value) / old_value
            if drop <= threshold:
                continue
            message = (
                f"{name}: {path} regressed {drop:.0%} "
                f"({old_value:,.1f} -> {new_value:,.1f})"
            )
            if fail_threshold is not None and drop > fail_threshold:
                report.failures.append(message)
            else:
                report.warnings.append(message)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_dir", help="previous run's artifact directory")
    parser.add_argument("new_dir", help="this run's artifact directory")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="relative drop that warns (default 0.20)",
    )
    parser.add_argument(
        "--fail-on-regression",
        type=float,
        default=None,
        metavar="DROP",
        help=(
            "relative drop that fails the run with ::error:: annotations "
            "(e.g. 0.35); unset keeps the gate warn-only"
        ),
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 on any regression beyond --threshold (for local use)",
    )
    args = parser.parse_args(argv)
    if args.fail_on_regression is not None and (
        args.fail_on_regression < args.threshold
    ):
        parser.error("--fail-on-regression must be >= --threshold")
    if not Path(args.old_dir).is_dir():
        print(f"no previous artifacts at {args.old_dir}; nothing to compare")
        return 0
    report = compare_directories(
        Path(args.old_dir),
        Path(args.new_dir),
        args.threshold,
        args.fail_on_regression,
    )
    for message in report.added:
        print(f"::notice title=new bench metric::{message}")
    for message in report.removed:
        print(f"::notice title=removed bench metric::{message}")
    for message in report.warnings:
        print(f"::warning title=bench regression::{message}")
    for message in report.failures:
        print(f"::error title=bench regression::{message}")
    if not report.regressions:
        print(f"bench compare: no regression beyond {args.threshold:.0%}")
        return 0
    print(
        f"bench compare: {len(report.regressions)} metric(s) regressed "
        f"({len(report.failures)} beyond the fail threshold)"
    )
    if report.failures:
        return 1
    return 1 if args.strict else 0


if __name__ == "__main__":
    sys.exit(main())
