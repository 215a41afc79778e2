"""Tests for the parallel suite orchestration layer.

The core contract under test: a suite's results depend only on its
configs — never on the worker count, the scheduling order, or whether
execution fell back to the serial path.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.export import save_suite, suite_to_dict
from repro.experiments.runner import average_results, run_experiment
from repro.experiments.scale import worker_count
from repro.experiments.suite import (
    ExperimentSuite,
    SuiteExecutionError,
    SuiteProgress,
    SuiteRunner,
    run_suite,
)

BASE = ExperimentConfig(
    app="gossip-learning",
    strategy="randomized",
    spend_rate=5,
    capacity=10,
    n=60,
    periods=20,
    seed=7,
)


def small_suite(cells: int = 4) -> ExperimentSuite:
    return ExperimentSuite.from_configs(
        "small",
        [BASE.with_overrides(seed=BASE.seed + i) for i in range(cells)],
    )


def result_fingerprint(result) -> tuple:
    """Everything that should be invariant across worker counts."""
    return (
        result.config.seed,
        tuple(result.metric.times),
        tuple(result.metric.values),
        result.data_messages,
        result.network.sent,
        result.network.delivered,
    )


# ----------------------------------------------------------------------
# ExperimentSuite construction
# ----------------------------------------------------------------------
def test_suite_requires_configs():
    with pytest.raises(ValueError, match="no configs"):
        ExperimentSuite(name="empty", configs=())


def test_from_grid_row_major_order():
    suite = ExperimentSuite.from_grid(
        "grid", BASE, spend_rate=(1, 5), capacity=(10, 20)
    )
    combos = [
        (c.strategy.kwargs["spend_rate"], c.strategy.kwargs["capacity"]) for c in suite
    ]
    assert combos == [(1, 10), (1, 20), (5, 10), (5, 20)]


def test_from_grid_requires_axes():
    with pytest.raises(ValueError, match="axis"):
        ExperimentSuite.from_grid("grid", BASE)


def test_repeated_matches_run_averaged_seeds():
    suite = ExperimentSuite.from_configs("one", [BASE]).repeated(3)
    assert [c.seed for c in suite] == [7, 1007, 2007]


def test_repeated_identity_for_single_repeat():
    suite = small_suite(2)
    assert suite.repeated(1) is suite


def test_repeated_groups_are_contiguous():
    suite = small_suite(2).repeated(2)
    assert [c.seed for c in suite] == [7, 1007, 8, 1008]


def test_averaged_merges_each_repetition_group():
    outcome = SuiteRunner(workers=1).run(small_suite(2).repeated(3))
    results = outcome.results()
    merged = outcome.averaged(3)
    assert [result_fingerprint(result) for result in merged] == [
        result_fingerprint(average_results(results[start : start + 3]))
        for start in (0, 3)
    ]
    assert merged[0].metric.values != results[0].metric.values
    assert outcome.averaged(1) == results


# ----------------------------------------------------------------------
# Determinism across worker counts and scheduling
# ----------------------------------------------------------------------
def test_serial_matches_direct_run_experiment():
    suite = small_suite(3)
    serial = SuiteRunner(workers=1).run(suite)
    direct = [run_experiment(config) for config in suite]
    assert [result_fingerprint(r) for r in serial.results()] == [
        result_fingerprint(r) for r in direct
    ]
    assert serial.workers == 1
    assert serial.serial_fallback_reason is None


def test_parallel_bit_identical_to_serial():
    """Same suite seed => identical results for any worker count."""
    suite = small_suite(5)
    serial = SuiteRunner(workers=1).run(suite)
    pooled = SuiteRunner(workers=4).run(suite)
    assert [result_fingerprint(r) for r in serial.results()] == [
        result_fingerprint(r) for r in pooled.results()
    ]
    assert [cell.index for cell in pooled.cells] == list(range(5))


def test_run_suite_preserves_input_order():
    configs = [BASE.with_overrides(seed=s) for s in (31, 3, 17)]
    suite = ExperimentSuite.from_configs("ordered", configs)
    results = run_suite(suite, workers=2).results()
    assert [r.config.seed for r in results] == [31, 3, 17]


def test_suite_result_accounting():
    suite = small_suite(3)
    outcome = run_suite(suite, workers=1)
    assert len(outcome.cells) == 3
    assert outcome.total_events == sum(r.events_processed for r in outcome.results())
    assert outcome.total_events > 0
    assert outcome.virtual_seconds == pytest.approx(
        sum(c.horizon for c in suite.configs)
    )
    assert outcome.events_per_second > 0
    assert outcome.cells_per_second > 0
    assert "cells" in outcome.summary()


# ----------------------------------------------------------------------
# Worker failure propagation
# ----------------------------------------------------------------------
def _explode_on_seed_9(config: ExperimentConfig):
    if config.seed == 9:
        raise RuntimeError("boom at seed 9")
    return run_experiment(config)


@pytest.mark.parametrize("workers", [1, 3])
def test_worker_failure_propagates(workers):
    suite = small_suite(4)  # seeds 7, 8, 9, 10
    runner = SuiteRunner(workers=workers, task=_explode_on_seed_9)
    with pytest.raises(SuiteExecutionError) as excinfo:
        runner.run(suite)
    assert excinfo.value.index == 2
    assert excinfo.value.config.seed == 9
    assert isinstance(excinfo.value.__cause__, RuntimeError)


# ----------------------------------------------------------------------
# Serial fallback on platforms without fork
# ----------------------------------------------------------------------
def test_fallback_to_serial_without_fork(monkeypatch):
    import repro.experiments.suite as suite_module

    monkeypatch.setattr(suite_module, "_fork_available", lambda: False)
    suite = small_suite(2)
    outcome = SuiteRunner(workers=4).run(suite)
    assert outcome.workers == 1
    assert outcome.serial_fallback_reason == "no-fork"
    assert [result_fingerprint(r) for r in outcome.results()] == [
        result_fingerprint(r) for r in SuiteRunner(workers=1).run(suite).results()
    ]


# ----------------------------------------------------------------------
# Worker-count resolution
# ----------------------------------------------------------------------
def test_worker_count_override_wins(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "3")
    assert worker_count(5) == 5


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "3")
    assert worker_count() == 3


def test_worker_count_rejects_garbage(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "many")
    with pytest.raises(ValueError, match="not an integer"):
        worker_count()
    monkeypatch.setenv("REPRO_WORKERS", "0")
    with pytest.raises(ValueError, match=">= 1"):
        worker_count()
    with pytest.raises(ValueError, match=">= 1"):
        worker_count(0)


def test_worker_count_defaults_to_cpu_count(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert worker_count() >= 1


# ----------------------------------------------------------------------
# Progress reporting
# ----------------------------------------------------------------------
def test_progress_callback_sees_every_cell():
    seen = []
    suite = small_suite(3)
    SuiteRunner(workers=1, progress=seen.append).run(suite)
    assert [p.done for p in seen] == [1, 2, 3]
    assert all(p.total == 3 for p in seen)
    assert seen[-1].eta_seconds == pytest.approx(0.0)
    assert "3/3" in seen[-1].render()


def test_progress_eta_unknown_before_first_cell():
    progress = SuiteProgress(suite_name="s", done=0, total=4, index=0, elapsed=0.0)
    assert progress.eta_seconds == float("inf")
    assert "eta ?" in progress.render()


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------
def test_suite_export_round_trip(tmp_path):
    outcome = run_suite(small_suite(2), workers=1)
    document = suite_to_dict(outcome)
    assert document["format"] == "repro-suite-v1"
    assert len(document["cells"]) == 2
    assert document["cells"][0]["result"]["format"] == "repro-result-v1"
    path = tmp_path / "suite.json"
    save_suite(outcome, path)
    loaded = json.loads(path.read_text(encoding="utf-8"))
    assert loaded["total_events"] == outcome.total_events
    assert loaded["cells"][1]["seed"] == 8
