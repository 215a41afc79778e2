"""Tests for the §4.2 parameter grid, its suite and its table."""

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentResult
from repro.experiments.scale import ScalePreset
from repro.experiments.suite import run_suite
from repro.experiments.sweep import (
    PAPER_A_VALUES,
    PAPER_C_MINUS_A,
    format_sweep_table,
    parameter_grid,
    sweep_suite,
)
from repro.metrics.series import TimeSeries
from repro.sim.network import NetworkStats

MICRO = ScalePreset(
    name="micro", n=80, n_large=160, periods=30, repeats=1, trace_users=100
)


def result_at(strategy, spend_rate, capacity, final_metric) -> ExperimentResult:
    """A hand-built result: only its spec and final metric matter here."""
    config = ExperimentConfig(
        app="push-gossip", strategy=strategy, spend_rate=spend_rate, capacity=capacity
    )
    return ExperimentResult(
        config=config,
        label=config.label(),
        metric=TimeSeries([(0.0, 1.0), (10.0, final_metric)]),
        tokens=None,
        network=NetworkStats(),
        data_messages=0,
        messages_per_node_per_period=1.0,
    )


def test_paper_grid_definition():
    assert PAPER_A_VALUES == (1, 2, 5, 10, 15, 20, 40)
    assert PAPER_C_MINUS_A == (0, 1, 2, 5, 10, 15, 20, 40, 80)
    grid = parameter_grid()
    assert len(grid) == 7 * 9
    assert all(a <= c for a, c in grid)
    assert (1, 1) in grid  # A=1, C-A=0
    assert (40, 120) in grid  # A=40, C-A=80


def test_custom_grid():
    grid = parameter_grid(a_values=(1, 2), c_minus_a=(0, 3))
    assert grid == [(1, 1), (1, 4), (2, 2), (2, 5)]


def test_sweep_suite_is_strategy_major():
    suite = sweep_suite(
        "gossip-learning",
        ["randomized", "generalized"],
        scale=MICRO,
        seed=4,
        a_values=(1, 5),
        c_minus_a=(0, 5),
        scenario="trace",
    )
    grid = [(1, 1), (1, 6), (5, 5), (5, 10)]
    assert [spec.strategy.name for spec in suite] == (
        ["randomized"] * 4 + ["generalized"] * 4
    )
    assert [
        (spec.strategy.kwargs["spend_rate"], spec.strategy.kwargs["capacity"])
        for spec in suite
    ] == grid + grid
    for spec in suite:
        assert (spec.app.name, spec.n, spec.periods) == ("gossip-learning", 80, 30)
        assert (spec.seed, spec.churn.name) == (4, "stunner-trace")
    for result in run_suite(suite, workers=1).results():
        assert result.metric.final() > 0
        assert result.messages_per_node_per_period <= 1.05


def test_sweep_suite_simple_collapses_a_dimension():
    suite = sweep_suite(
        "push-gossip", ["simple"], scale=MICRO, a_values=(1, 5), c_minus_a=(0, 5)
    )
    # The simple strategy has no A: only the first A value's row is kept.
    assert [spec.strategy.kwargs for spec in suite] == [
        {"capacity": 1},
        {"capacity": 6},
    ]


def test_format_sweep_table():
    results = [
        result_at("randomized", 1, 1, 0.5),
        result_at("randomized", 1, 6, 0.3),
        result_at("randomized", 5, 10, 0.8),
    ]
    table = format_sweep_table(results, higher_is_better=True)
    header, rule, row_1, row_5, footer = table.splitlines()
    assert header.split() == ["A", "\\", "C", "1", "6", "10"]
    assert row_1.split() == ["1", "0.5", "0.3", "-"]  # no (A=1, C=10) cell
    assert row_5.split() == ["5", "-", "-", "0.8*"]
    assert footer == "(* best: randomized(A=5, C=10) -> 0.8)"


def test_format_sweep_table_lower_is_better():
    results = [
        result_at("simple", None, 1, 30.0),
        result_at("simple", None, 11, 10.0),
    ]
    table = format_sweep_table(results, higher_is_better=False)
    # A strategy without A has one row, labelled "-", and a C-only footer.
    assert table.splitlines()[2].split() == ["-", "30", "10*"]
    assert table.endswith("(* best: simple(C=11) -> 10)")


def test_format_empty_sweep():
    assert "empty" in format_sweep_table([], higher_is_better=True)
