"""ASCII reporting: series tables and speedup summaries.

The benches print, for every figure, the same series the paper plots —
one column per strategy setting, one row per sample time — plus the
derived headline numbers (speedup over the purely proactive baseline).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.metrics.series import TimeSeries

#: label used for the purely proactive baseline column
PROACTIVE_LABEL = "proactive"


def format_series_table(
    series_by_label: Dict[str, TimeSeries],
    rows: int = 12,
    time_unit: float = 3600.0,
    time_label: str = "t(h)",
    value_format: str = "{:>12.4g}",
) -> str:
    """Render several time series as one aligned ASCII table.

    Sample times are taken from the longest series, thinned to ``rows``
    evenly spaced rows; each other series contributes its most recent
    value at those times.
    """
    if not series_by_label:
        return "(no series)"
    reference = max(series_by_label.values(), key=len)
    if reference.empty:
        return "(empty series)"
    indices = _even_indices(len(reference), rows)
    labels = list(series_by_label)
    header = f"{time_label:>8} " + " ".join(f"{label:>12.12}" for label in labels)
    lines = [header, "-" * len(header)]
    for index in indices:
        time = reference.times[index]
        cells = []
        for label in labels:
            series = series_by_label[label]
            try:
                value = series.value_at(time)
                cells.append(value_format.format(value))
            except ValueError:
                cells.append(f"{'-':>12}")
        lines.append(f"{time / time_unit:>8.2f} " + " ".join(cells))
    return "\n".join(lines)


def _even_indices(length: int, rows: int) -> List[int]:
    if length <= rows:
        return list(range(length))
    if rows == 1:
        return [length - 1]
    step = (length - 1) / (rows - 1)
    return sorted({round(i * step) for i in range(rows)})


# ----------------------------------------------------------------------
# Speedup summaries
# ----------------------------------------------------------------------
def final_value_speedups(
    series_by_label: Dict[str, TimeSeries],
    baseline: str = PROACTIVE_LABEL,
) -> Dict[str, float]:
    """Speedup as ratio of final metric values (higher metric = better).

    Used for gossip learning, whose metric (eq. 6) *is* a relative speed:
    the ratio of final metrics is the paper's "order of magnitude
    speedup ... compared to the purely proactive implementation".
    """
    base = series_by_label[baseline]
    if base.empty or base.final() == 0:
        raise ValueError("baseline series is empty or zero")
    return {
        label: series.final() / base.final()
        for label, series in series_by_label.items()
        if not series.empty
    }


def steady_state_lag_ratios(
    series_by_label: Dict[str, TimeSeries],
    baseline: str = PROACTIVE_LABEL,
    tail_fraction: float = 0.5,
) -> Dict[str, float]:
    """Speedup as ratio of steady-state mean lags (lower lag = better).

    Used for push gossip: the paper reports "the delay of receiving the
    freshest update is one third of that of the proactive
    implementation", i.e. a ratio of steady-state average lags. The mean
    is taken over the last ``tail_fraction`` of each series to skip the
    cold-start transient.
    """
    base = series_by_label[baseline]
    if base.empty:
        raise ValueError("baseline series is empty")
    start = base.times[0] + (base.times[-1] - base.times[0]) * (1 - tail_fraction)
    base_mean = base.mean(start=start)
    ratios = {}
    for label, series in series_by_label.items():
        if series.empty:
            continue
        mean = series.mean(start=start)
        ratios[label] = base_mean / mean if mean > 0 else math.inf
    return ratios


def time_to_threshold_speedups(
    series_by_label: Dict[str, TimeSeries],
    baseline: str = PROACTIVE_LABEL,
    threshold: Optional[float] = None,
) -> Dict[str, Optional[float]]:
    """Speedup as ratio of times to first drop below a threshold.

    Used for chaotic iteration (metric: angle, lower = better). The
    default threshold is the baseline's final angle — "how long does each
    variant take to reach the accuracy the proactive baseline reaches by
    the end of the run". Variants that never reach it map to ``None``.
    """
    base = series_by_label[baseline]
    if base.empty:
        raise ValueError("baseline series is empty")
    if threshold is None:
        threshold = base.final() * 1.0000001  # the baseline itself qualifies
    base_time = base.first_time_below(threshold)
    if base_time is None:
        base_time = base.times[-1]
    speedups: Dict[str, Optional[float]] = {}
    for label, series in series_by_label.items():
        reach = series.first_time_below(threshold)
        speedups[label] = (base_time / reach) if reach and reach > 0 else None
    return speedups


def format_speedups(
    speedups: Dict[str, Optional[float]], title: str = "speedup vs proactive"
) -> str:
    """Render a speedup dictionary as aligned ASCII lines."""
    lines = [title]
    width = max((len(label) for label in speedups), default=8)
    for label, value in speedups.items():
        rendered = f"{value:.2f}x" if value is not None else "n/a"
        lines.append(f"  {label:<{width}}  {rendered}")
    return "\n".join(lines)


def format_messages_per_node(
    rates_by_label: Dict[str, float], period_label: str = "Δ"
) -> str:
    """Render the communication-rate check (§4: 'same overall rate')."""
    lines = [f"data messages per node per {period_label}:"]
    width = max((len(label) for label in rates_by_label), default=8)
    for label, rate in rates_by_label.items():
        lines.append(f"  {label:<{width}}  {rate:.3f}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Result-store listings (``repro store ls`` / ``repro store diff``)
# ----------------------------------------------------------------------
def format_store_entries(entries) -> str:
    """Render result-store entries as an aligned ``ls`` table.

    ``entries`` is any iterable of :class:`repro.store.StoreEntry`-like
    objects (key, label, seed, summary dict, created_at, stale flag).
    """
    entries = list(entries)
    if not entries:
        return "(empty store)"
    rows = []
    for entry in sorted(entries, key=lambda e: (e.label, e.seed, e.key)):
        final = entry.summary.get("final_metric")
        size = entry.summary.get("n")
        periods = entry.summary.get("periods")
        rows.append(
            (
                entry.key[:12],
                entry.label,
                str(entry.seed),
                f"{size}x{periods}" if size is not None else "-",
                f"{final:.4g}" if final is not None else "-",
                entry.created_at or "-",
                "stale" if entry.stale else "",
            )
        )
    header = ("key", "label", "seed", "NxP", "final", "created (UTC)", "")
    widths = [
        max(len(row[column]) for row in rows + [header])
        for column in range(len(header))
    ]
    lines = [
        "  ".join(f"{cell:<{widths[i]}}" for i, cell in enumerate(header)).rstrip()
    ]
    lines.append("-" * len(lines[0]))
    for row in rows:
        lines.append(
            "  ".join(f"{cell:<{widths[i]}}" for i, cell in enumerate(row)).rstrip()
        )
    return "\n".join(lines)


def format_store_diff(report: Dict[str, list], left: str, right: str) -> str:
    """Render a :func:`repro.store.diff_stores` report for the shell."""
    lines = [
        f"A = {left}",
        f"B = {right}",
        f"matching cells:  {len(report['matching'])}",
        f"differing cells: {len(report['differing'])}",
        f"only in A:       {len(report['only_left'])}",
        f"only in B:       {len(report['only_right'])}",
    ]
    for title, bucket in (
        ("differing", "differing"),
        ("only in A", "only_left"),
        ("only in B", "only_right"),
    ):
        for entry in report[bucket]:
            lines.append(
                f"  [{title}] {entry.key[:12]}  {entry.label} seed={entry.seed}"
            )
    return "\n".join(lines)
