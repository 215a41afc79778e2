"""Export experiment results and figure data to CSV / JSON.

Downstream users typically want the raw series for their own plotting
stack. Two formats:

* **CSV** — one row per sample; figure data is written wide (one column
  per labeled series, empty cells where a series has no sample at that
  time).
* **JSON** — a self-describing document including the configuration
  (the nested :class:`~repro.scenarios.ScenarioSpec` shape, marked
  ``"config_format": "scenario-spec-v1"``), the series, and the
  accounting; round-trips through :func:`load_result_json`.

Used by the CLI (``--save out.json`` / ``--save out.csv``) and directly::

    from repro.experiments.export import save_result
    save_result(result, "run.json")
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path
from typing import Dict, Union

from repro.core.meanfield import MeanFieldTrajectory
from repro.experiments.figures import FigureData
from repro.experiments.runner import ExperimentResult
from repro.experiments.suite import SuiteResult
from repro.metrics.series import TimeSeries

PathLike = Union[str, Path]


# ----------------------------------------------------------------------
# Experiment results
# ----------------------------------------------------------------------
def result_to_dict(result: ExperimentResult) -> dict:
    """A JSON-serializable view of an experiment result.

    ``config`` is the nested :class:`~repro.scenarios.ScenarioSpec`
    shape (component refs as ``{"name", "params"}``), marked
    ``"config_format": "scenario-spec-v1"``.
    """
    document = {
        "format": "repro-result-v1",
        "label": result.label,
        "config": dataclasses.asdict(result.config),
        "config_format": "scenario-spec-v1",
        "metric": {
            "times": list(result.metric.times),
            "values": list(result.metric.values),
        },
        "data_messages": result.data_messages,
        "messages_per_node_per_period": result.messages_per_node_per_period,
        "network": {
            "sent": result.network.sent,
            "delivered": result.network.delivered,
            "lost_offline": result.network.lost_offline,
            "lost_dropped": result.network.lost_dropped,
            "lost_sender_offline": result.network.lost_sender_offline,
            "by_kind": dict(result.network.by_kind),
        },
        "ratelimit_violations": len(result.ratelimit_violations),
        "surviving_walks": result.surviving_walks,
        "elapsed_seconds": result.elapsed,
    }
    if result.tokens is not None:
        document["tokens"] = {
            "times": list(result.tokens.times),
            "values": list(result.tokens.values),
        }
    return document


def save_result(result: ExperimentResult, path: PathLike) -> None:
    """Write a result as JSON (``.json``) or CSV (anything else)."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        path.write_text(json.dumps(result_to_dict(result), indent=2), encoding="utf-8")
    else:
        _write_series_csv(path, {"metric": result.metric})


def load_result_json(path: PathLike) -> dict:
    """Load a JSON result document, restoring the series objects.

    Returns the document dict with ``metric`` (and ``tokens`` if present)
    replaced by :class:`TimeSeries` instances.
    """
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    if document.get("format") != "repro-result-v1":
        raise ValueError(f"{path}: not a repro result document")
    document["metric"] = TimeSeries(
        zip(document["metric"]["times"], document["metric"]["values"])
    )
    if "tokens" in document:
        document["tokens"] = TimeSeries(
            zip(document["tokens"]["times"], document["tokens"]["values"])
        )
    return document


# ----------------------------------------------------------------------
# Figure data
# ----------------------------------------------------------------------
def figure_to_dict(data: FigureData) -> dict:
    """A JSON-serializable view of a figure's series and metadata.

    Extras that ``json.dumps`` rejects, at any depth, are left out.
    """
    extras = {}
    for key, value in data.extras.items():
        value = _with_trajectory_curves(value)
        try:
            json.dumps(value)
        except (TypeError, ValueError):
            continue
        extras[key] = value
    return {
        "format": "repro-figure-v1",
        "name": data.name,
        "description": data.description,
        "scale": data.scale_label,
        "series": {
            label: {"times": list(series.times), "values": list(series.values)}
            for label, series in data.series.items()
        },
        "message_rates": dict(data.message_rates),
        "extras": extras,
    }


def _with_trajectory_curves(value):
    """Mean-field trajectories as ``{"times", "balances"}``, the prediction
    curves Figure 5 exists to compare against; anything else as it is."""
    if isinstance(value, MeanFieldTrajectory):
        return {"times": list(value.times), "balances": list(value.balances)}
    if isinstance(value, dict):
        return {key: _with_trajectory_curves(item) for key, item in value.items()}
    return value


def save_figure(data: FigureData, path: PathLike) -> None:
    """Write figure data as JSON (``.json``) or wide CSV (anything else)."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        path.write_text(json.dumps(figure_to_dict(data), indent=2), encoding="utf-8")
    else:
        _write_series_csv(path, data.series)


# ----------------------------------------------------------------------
# Suite results
# ----------------------------------------------------------------------
def suite_to_dict(result: SuiteResult) -> dict:
    """A JSON-serializable view of a parallel suite run.

    Cells carrying :class:`ExperimentResult` payloads are embedded as
    full result documents; custom task payloads degrade to ``repr``.
    """
    cells = []
    for cell in result.cells:
        if isinstance(cell.result, ExperimentResult):
            payload = result_to_dict(cell.result)
        else:
            payload = {"repr": repr(cell.result)}
        cells.append(
            {
                "index": cell.index,
                "label": cell.config.label(),
                "seed": cell.config.seed,
                "wall_seconds": cell.wall_seconds,
                "events_processed": cell.events_processed,
                "cached": cell.cached,
                "result": payload,
            }
        )
    return {
        "format": "repro-suite-v1",
        "name": result.suite_name,
        "workers": result.workers,
        "serial_fallback_reason": result.serial_fallback_reason,
        "cache_hits": result.cache_hits,
        "simulated_cells": result.simulated_cells,
        "wall_seconds": result.wall_seconds,
        "total_cell_seconds": result.total_cell_seconds,
        "virtual_seconds": result.virtual_seconds,
        "total_events": result.total_events,
        "events_per_second": result.events_per_second,
        "cells_per_second": result.cells_per_second,
        "parallel_efficiency": result.parallel_efficiency,
        "cells": cells,
    }


def save_suite(result: SuiteResult, path: PathLike) -> None:
    """Write a suite result document as JSON."""
    Path(path).write_text(json.dumps(suite_to_dict(result), indent=2), encoding="utf-8")


# ----------------------------------------------------------------------
def _write_series_csv(path: Path, series_by_label: Dict[str, TimeSeries]) -> None:
    """Wide CSV: a shared time column plus one column per series."""
    all_times = sorted(
        {time for series in series_by_label.values() for time in series.times}
    )
    lookup = {
        label: dict(zip(series.times, series.values))
        for label, series in series_by_label.items()
    }
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time"] + list(series_by_label))
        for time in all_times:
            row = [repr(time)]
            for label in series_by_label:
                value = lookup[label].get(time)
                row.append("" if value is None else repr(value))
            writer.writerow(row)
