"""Tests for ASCII reporting and speedup calculations."""

import math

import pytest

from repro.experiments.report import (
    final_value_speedups,
    format_messages_per_node,
    format_series_table,
    format_speedups,
    steady_state_lag_ratios,
    time_to_threshold_speedups,
)
from repro.metrics.series import TimeSeries


def series(points):
    return TimeSeries(points)


@pytest.fixture
def gossip_like():
    return {
        "proactive": series([(0.0, 0.01), (100.0, 0.01), (200.0, 0.01)]),
        "randomized": series([(0.0, 0.05), (100.0, 0.08), (200.0, 0.10)]),
    }


def test_final_value_speedups(gossip_like):
    speedups = final_value_speedups(gossip_like)
    assert speedups["proactive"] == pytest.approx(1.0)
    assert speedups["randomized"] == pytest.approx(10.0)


def test_final_value_speedups_needs_baseline(gossip_like):
    with pytest.raises(KeyError):
        final_value_speedups(gossip_like, baseline="missing")


def test_steady_state_lag_ratios():
    curves = {
        "proactive": series([(0.0, 90.0), (50.0, 30.0), (100.0, 30.0)]),
        "generalized": series([(0.0, 90.0), (50.0, 10.0), (100.0, 10.0)]),
    }
    ratios = steady_state_lag_ratios(curves, tail_fraction=0.5)
    assert ratios["proactive"] == pytest.approx(1.0)
    assert ratios["generalized"] == pytest.approx(3.0)


def test_lag_ratio_handles_zero_lag():
    curves = {
        "proactive": series([(0.0, 10.0), (100.0, 10.0)]),
        "perfect": series([(0.0, 0.0), (100.0, 0.0)]),
    }
    ratios = steady_state_lag_ratios(curves)
    assert ratios["perfect"] == math.inf


def test_time_to_threshold_speedups():
    curves = {
        "proactive": series([(0.0, 1.0), (100.0, 0.5), (200.0, 0.1)]),
        "fast": series([(0.0, 1.0), (50.0, 0.05)]),
        "never": series([(0.0, 1.0), (200.0, 0.9)]),
    }
    speedups = time_to_threshold_speedups(curves, threshold=0.2)
    assert speedups["proactive"] == pytest.approx(1.0)
    assert speedups["fast"] == pytest.approx(4.0)
    assert speedups["never"] is None


def test_time_to_threshold_default_uses_baseline_final():
    curves = {
        "proactive": series([(0.0, 1.0), (200.0, 0.1)]),
        "fast": series([(0.0, 1.0), (40.0, 0.05)]),
    }
    speedups = time_to_threshold_speedups(curves)
    assert speedups["fast"] == pytest.approx(5.0)


def test_format_series_table_contains_all_columns(gossip_like):
    for rows in (3, 1):  # one row is the final sample, not a division by zero
        table = format_series_table(gossip_like, rows=rows)
        assert "proactive" in table
        assert "randomized" in table
        lines = table.splitlines()
        assert len(lines) == 2 + rows  # header + rule + rows
    assert lines[-1].split()[0] == "0.06"  # t = 200 s, in hours


def test_format_series_table_empty():
    assert "no series" in format_series_table({})


def test_format_series_table_handles_short_series():
    table = format_series_table(
        {
            "long": series([(float(i) * 3600, 1.0) for i in range(10)]),
            "short": series([(7.0 * 3600, 2.0)]),
        },
        rows=5,
    )
    assert "-" in table  # missing samples rendered as dashes


def test_format_speedups():
    text = format_speedups({"a": 2.0, "b": None}, title="test title")
    assert "test title" in text
    assert "2.00x" in text
    assert "n/a" in text


def test_format_messages_per_node():
    text = format_messages_per_node({"proactive": 1.0, "randomized": 0.93})
    assert "1.000" in text
    assert "0.930" in text
