"""``python3 -m perf compare PARENT CHANGE``: two result sets, one verdict per cell.

A result file is what ``python3 -m perf run --repeat N --out DIR`` wrote
(``DIR/results.json``) or the committed ``perf/baseline.json``: a list
of *sets*, each the runs of one pass on one commit. ``FILE:K`` names
set ``K`` of a file; a bare ``FILE`` names its last set.

For every end-to-end metric there is one table with one row per
workload: each side's median, quartiles and run count, the change of the
median in the metric's *worse* direction, and a verdict —

* ``ok``: the change's median is no worse than the parent's by more
  than the metric's bound;
* ``regressed``: it is worse by more than the bound;
* ``unresolved``: the run-to-run spread of either side (distance between
  its quartiles over its median) exceeds the bound and the two sides'
  runs overlap, so the medians decide nothing. When every run of one
  side reads better than every run of the other the spread does not
  matter and the verdict stands.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from perf.measure import iqr_share, quartiles


def load_set(spec: str) -> dict:
    """The result set ``FILE[:K]`` names (``K`` defaults to the last)."""
    path, colon, index = spec.rpartition(":")
    if not (colon and index.isdigit()):
        path, index = spec, "-1"
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["sets"][int(index)]


def untraced_values(result_set: dict) -> Dict[Tuple[str, str], List[float]]:
    """``(workload, metric) -> one value per correct untraced run``."""
    values: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    for run in result_set["runs"]:
        if run["trace"] or not run["correct"]:
            continue
        for metric, reading in run["metrics"].items():
            values[run["workload"], metric].append(reading["value"])
    return values


def worsening(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of ``parent``."""
    delta = (change - parent) / parent
    return delta if better == "lower" else -delta


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> str:
    worse = worsening(quartiles(parent)[1], quartiles(change)[1], better)
    decided = "regressed" if worse > bound else "ok"
    if max(iqr_share(parent), iqr_share(change)) <= bound:
        return decided
    apart = min(change) > max(parent) or max(change) < min(parent)
    return decided if apart else "unresolved"


def _figure(value: float) -> str:
    return f"{value:,.0f}" if abs(value) >= 1000.0 else f"{value:.4g}"


def _side(values: Sequence[float]) -> str:
    q1, median, q3 = (_figure(value) for value in quartiles(values))
    return f"{median:>10} [{q1}..{q3}] n={len(values)}".ljust(42)


def compare_sets(benchmark: dict, parent: dict, change: dict) -> int:
    """Print the tables; the number of ``regressed`` cells is the return value."""
    before, after = untraced_values(parent), untraced_values(change)
    failed = {
        side: sum(1 for run in result_set["runs"] if not run["correct"])
        for side, result_set in (("parent", parent), ("change", change))
    }
    regressed = 0
    for metric in benchmark["end_to_end"]:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        print(f"{name} ({metric['unit']}, {better} is better, bound {bound:.0%})")
        for workload in (w["name"] for w in benchmark["workloads"]):
            old, new = before.get((workload, name)), after.get((workload, name))
            if not old or not new:
                print(f"  {workload:<15} missing on {'parent' if not old else 'change'}")
                continue
            worse = worsening(quartiles(old)[1], quartiles(new)[1], better)
            outcome = verdict(old, new, better, bound)
            regressed += outcome == "regressed"
            print(
                f"  {workload:<15}{_side(old)}->{_side(new)}"
                f"worse {worse:+6.1%}  spread {iqr_share(old):.1%}/{iqr_share(new):.1%}"
                f"  {outcome}"
            )
    print(f"failed runs: parent {failed['parent']}, change {failed['change']}")
    if failed["change"] > failed["parent"]:
        print("regressed: more runs failed their checks than on the parent")
        regressed += 1
    return regressed


def compare_files(benchmark: dict, parent: str, change: str) -> int:
    return 1 if compare_sets(benchmark, load_set(parent), load_set(change)) else 0
