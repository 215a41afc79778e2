"""Shared helpers for the figure benches.

Every bench regenerates the data behind one figure of the paper and
prints it as an ASCII table — the same rows/series the paper plots —
plus derived headline numbers, and asserts the paper's claim about
them. None of them times anything: speed is measured by
``python3 -m perf run`` alone. Scale is controlled with ``REPRO_SCALE``
(ci / medium / paper); see ``repro.experiments.scale``.

Run with::

    pytest -s benchmarks/
    REPRO_SCALE=medium pytest -s benchmarks/
"""

from __future__ import annotations

import pytest

from repro.experiments.figures import FigureData
from repro.experiments.report import format_messages_per_node, format_series_table
from repro.experiments.scale import current_scale


@pytest.fixture(scope="session")
def scale():
    preset = current_scale()
    print(f"\n[repro] benchmark scale: {preset.label}")
    return preset


@pytest.fixture(scope="session")
def quick(scale):
    """Use the thinned strategy selection at CI scale."""
    return scale.name == "ci"


def print_figure(data: FigureData, rows: int = 12, notes: str = "") -> None:
    """Render a FigureData block the way the paper's figures read."""
    bar = "=" * 72
    print(f"\n{bar}")
    print(f"{data.name}: {data.description}")
    print(f"scale: {data.scale_label}")
    if notes:
        print(notes)
    print(bar)
    print(format_series_table(data.series, rows=rows))
    if data.message_rates:
        print()
        print(format_messages_per_node(data.message_rates))
