"""Result-store round-trips: hits are bit-identical, resume is sound.

Covers the PR 3 acceptance criteria at library level:

* a cache hit returns a bit-identical :class:`ExperimentResult`
  (every field, including ``extras``);
* a warm suite rerun simulates zero cells and reproduces the cold run
  bit-identically (guarded by poisoning the execution path);
* a schema-version bump invalidates stale entries and ``gc`` prunes
  them;
* a crashed/partial suite resumes: only the missing cells simulate and
  the merged outcome equals a from-scratch run.
"""

from __future__ import annotations

import pickle
import sys

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.experiments.suite import ExperimentSuite, SuiteRunner
from repro.scenarios import ComponentRef, ScenarioSpec
from repro.store import (
    RESULT_SCHEMA_VERSION,
    ResultStore,
    StoreMissError,
    cell_key,
    diff_stores,
    task_identity,
)


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        app="gossip-learning",
        strategy="randomized",
        spend_rate=5,
        capacity=10,
        n=50,
        periods=10,
        seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def small_suite() -> ExperimentSuite:
    return ExperimentSuite.from_grid(
        "store-test", small_config(), spend_rate=(1, 5), capacity=(10, 20)
    )


def assert_results_identical(left, right, ignore_elapsed=False):
    """Field-by-field bit-identity check for two experiment results."""
    assert left.config == right.config
    assert left.label == right.label
    assert left.metric.times == right.metric.times
    assert left.metric.values == right.metric.values
    if left.tokens is None:
        assert right.tokens is None
    else:
        assert left.tokens.times == right.tokens.times
        assert left.tokens.values == right.tokens.values
    assert left.network == right.network
    assert left.data_messages == right.data_messages
    assert left.messages_per_node_per_period == right.messages_per_node_per_period
    assert left.ratelimit_violations == right.ratelimit_violations
    assert left.surviving_walks == right.surviving_walks
    assert left.extras == right.extras
    assert left.events_processed == right.events_processed
    if not ignore_elapsed:
        assert left.elapsed == right.elapsed


def poison_execution(monkeypatch):
    """Make any actual cell execution fail loudly."""

    def boom(*args, **kwargs):
        raise AssertionError("a cell was simulated, expected pure cache hits")

    monkeypatch.setattr("repro.experiments.suite._execute_cell", boom)


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------
def test_cell_key_is_deterministic_and_seed_sensitive():
    config = small_config()
    assert cell_key(config) == cell_key(small_config())
    assert cell_key(config) != cell_key(small_config(seed=8))
    assert cell_key(config) != cell_key(small_config(capacity=11))


def test_cell_key_is_shared_by_flat_call_and_hand_built_spec():
    by_hand = ScenarioSpec(
        app=ComponentRef.of("gossip-learning", grading_scale=None),
        strategy=ComponentRef.of("randomized", spend_rate=5, capacity=10),
        overlay=ComponentRef.of("kout", k=20),
        n=50,
        periods=10,
        seed=7,
    )
    # The literal is what the commit before ExperimentConfig became a
    # function computed for this spec: spec entries stay hits across it.
    assert cell_key(small_config()) == cell_key(by_hand) == (
        "8dcb92f96542d256a51242affbe27eabba376ebab6370259564c644d424a2c25"
    )


def test_cell_key_distinguishes_task_and_schema_version():
    config = small_config()
    assert cell_key(config, task=run_experiment) == cell_key(config)
    assert cell_key(config, task=small_suite) != cell_key(config)
    assert cell_key(config, schema_version=RESULT_SCHEMA_VERSION + 1) != cell_key(
        config
    )


def test_cell_key_covers_scenario_specs():
    spec = ScenarioSpec(
        app=ComponentRef("gossip-learning"),
        strategy=ComponentRef.of("simple", capacity=5),
        n=40,
        periods=5,
    )
    assert cell_key(spec) == cell_key(spec)
    assert cell_key(spec) != cell_key(spec.with_overrides(seed=2))


def test_task_identity_default_matches_run_experiment():
    assert task_identity(None) == task_identity(run_experiment)


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
def test_cache_hit_returns_bit_identical_result(tmp_path):
    store = ResultStore(tmp_path / "store")
    config = small_config()
    fresh = run_experiment(config, store=store)
    assert fresh.extras  # gossip learning populates extras
    cached = run_experiment(config, store=store)
    assert_results_identical(fresh, cached)
    resimulated = run_experiment(config)
    assert_results_identical(cached, resimulated, ignore_elapsed=True)


def test_round_trip_preserves_tokens_and_audit_fields(tmp_path):
    store = ResultStore(tmp_path / "store")
    config = small_config(collect_tokens=True, audit_sends=True)
    fresh = run_experiment(config, store=store)
    assert fresh.tokens is not None
    cached = store.get(config)
    assert cached is not None
    assert_results_identical(fresh, cached)


def test_warm_suite_rerun_simulates_zero_cells(tmp_path, monkeypatch):
    store = ResultStore(tmp_path / "store")
    suite = small_suite()
    cold = SuiteRunner(workers=1, store=store).run(suite)
    assert cold.cache_hits == 0
    assert cold.simulated_cells == len(suite)
    assert len(store) == len(suite)

    poison_execution(monkeypatch)
    warm = SuiteRunner(workers=1, store=store).run(suite)
    assert warm.cache_hits == len(suite)
    assert warm.simulated_cells == 0
    for cold_cell, warm_cell in zip(cold.cells, warm.cells):
        assert warm_cell.cached
        assert_results_identical(cold_cell.result, warm_cell.result)


def test_pooled_run_persists_and_serves_across_worker_counts(tmp_path):
    store = ResultStore(tmp_path / "store")
    suite = small_suite()
    pooled = SuiteRunner(workers=2, store=store).run(suite)
    serial = SuiteRunner(workers=1, store=store).run(suite)
    assert serial.cache_hits == len(suite)
    for left, right in zip(pooled.cells, serial.cells):
        assert_results_identical(left.result, right.result)


# ----------------------------------------------------------------------
# Invalidation
# ----------------------------------------------------------------------
def test_schema_version_bump_invalidates_stale_entries(tmp_path):
    root = tmp_path / "store"
    config = small_config()
    old_store = ResultStore(root, schema_version=1)
    result = run_experiment(config)
    old_store.put(config, result)
    assert old_store.get(config) is not None

    new_store = ResultStore(root, schema_version=2)
    assert new_store.get(config) is None  # stale entry never hits
    removed, kept = new_store.gc()
    assert (removed, kept) == (1, 0)
    assert len(new_store) == 0


def test_gc_removes_corrupt_entries_and_all_flag(tmp_path):
    store = ResultStore(tmp_path / "store")
    config = small_config()
    store.put(config, run_experiment(config))
    corrupt = store.entries_dir / ("0" * 64 + ".pkl")
    corrupt.write_bytes(b"not a pickle")
    assert store.get(config) is not None
    removed, kept = store.gc()
    assert (removed, kept) == (1, 1)
    removed, kept = store.gc(remove_all=True)
    assert (removed, kept) == (1, 0)
    assert len(store) == 0


def test_gc_sweeps_orphaned_temp_files(tmp_path):
    store = ResultStore(tmp_path / "store")
    config = small_config()
    store.put(config, run_experiment(config))
    orphan = store.entries_dir / ("1" * 64 + ".tmp.12345")
    orphan.write_bytes(b"torn write")
    removed, kept = store.gc()
    assert (removed, kept) == (1, 1)
    assert not orphan.exists()
    assert store.get(config) is not None


class RetiredConfig:
    """Stands in for a config class a later commit deleted."""


def test_corrupt_entry_reads_as_miss_and_is_rewritten(tmp_path, monkeypatch):
    store = ResultStore(tmp_path / "store")
    config = small_config()
    store.put(config, run_experiment(config))
    path = store.path_for_key(store.key_for(config))
    path.write_bytes(pickle.dumps({"format": "something-else"}))
    assert store.get(config) is None
    rerun = run_experiment(config, store=store)
    assert_results_identical(store.get(config), rerun)
    # An entry whose pickle names a class that no longer resolves (every
    # entry written while ExperimentConfig was a dataclass) is a miss
    # too, and garbage to gc.
    store.put(config, RetiredConfig())
    monkeypatch.delattr(sys.modules[__name__], "RetiredConfig")
    assert store.get(config) is None
    assert store.gc() == (1, 0)


# ----------------------------------------------------------------------
# Crash / resume
# ----------------------------------------------------------------------
def test_partial_suite_resumes_bit_identically(tmp_path, monkeypatch):
    suite = small_suite()
    reference = SuiteRunner(workers=1).run(suite)

    # Simulate a suite killed after two cells: only those made it to disk.
    store = ResultStore(tmp_path / "store")
    partial = ExperimentSuite.from_configs("partial", suite.configs[:2])
    SuiteRunner(workers=1, store=store).run(partial)
    assert len(store) == 2

    resumed = SuiteRunner(workers=1, store=store).run(suite)
    assert resumed.cache_hits == 2
    assert resumed.simulated_cells == len(suite) - 2
    for reference_cell, resumed_cell in zip(reference.cells, resumed.cells):
        assert_results_identical(
            reference_cell.result, resumed_cell.result, ignore_elapsed=True
        )

    # And the now-complete store replays the whole suite without simulating.
    poison_execution(monkeypatch)
    replay = SuiteRunner(workers=1, store=store, offline=True).run(suite)
    assert replay.cache_hits == len(suite)


# ----------------------------------------------------------------------
# Offline mode
# ----------------------------------------------------------------------
def test_offline_requires_store():
    with pytest.raises(ValueError, match="offline"):
        SuiteRunner(workers=1, offline=True)


def test_offline_miss_raises_store_miss_error(tmp_path):
    store = ResultStore(tmp_path / "store")
    suite = small_suite()
    runner = SuiteRunner(workers=1, store=store, offline=True)
    with pytest.raises(StoreMissError) as excinfo:
        runner.run(suite)
    assert len(excinfo.value.missing) == len(suite)


# ----------------------------------------------------------------------
# Task separation, listings, diff
# ----------------------------------------------------------------------
def final_metric_task(config):
    """A custom cell task used to check task-keyed separation."""
    return run_experiment(config).metric.final()


def test_distinct_tasks_never_share_entries(tmp_path):
    store = ResultStore(tmp_path / "store")
    config = small_config()
    store.put(config, 1.25, task=final_metric_task)
    assert store.get(config) is None  # default task must not see it
    assert store.get(config, task=final_metric_task) == 1.25


def test_entries_listing_carries_metadata(tmp_path):
    store = ResultStore(tmp_path / "store")
    config = small_config()
    store.put(config, run_experiment(config))
    (entry,) = list(store.entries())
    assert entry.label == config.label()
    assert entry.seed == config.seed
    assert entry.summary["n"] == config.n
    assert entry.summary["periods"] == config.periods
    assert "final_metric" in entry.summary
    assert not entry.stale


def test_diff_stores_buckets(tmp_path):
    left = ResultStore(tmp_path / "left")
    right = ResultStore(tmp_path / "right")
    shared = small_config()
    shared_result = run_experiment(shared)
    left.put(shared, shared_result)
    right.put(shared, shared_result)
    only_left = small_config(seed=11)
    left.put(only_left, run_experiment(only_left))
    report = diff_stores(left, right)
    assert [entry.label for entry in report["matching"]] == [shared.label()]
    assert [entry.seed for entry in report["only_left"]] == [11]
    assert report["only_right"] == []
    assert report["differing"] == []


def test_diff_stores_flags_divergent_result_content(tmp_path):
    """Same key, drifted series content -> 'differing', even if the final
    metric happens to match (the digest covers the whole series)."""
    left = ResultStore(tmp_path / "left")
    right = ResultStore(tmp_path / "right")
    config = small_config()
    result = run_experiment(config)
    left.put(config, result)
    drifted = run_experiment(config)
    drifted.metric.values[0] += 1e-9  # mid-series drift, final value intact
    right.put(config, drifted)
    report = diff_stores(left, right)
    assert [entry.label for entry in report["differing"]] == [config.label()]
    assert report["matching"] == []


def test_diff_stores_ignores_wall_clock_differences(tmp_path):
    """Two independent runs of one config must compare as matching."""
    left = ResultStore(tmp_path / "left")
    right = ResultStore(tmp_path / "right")
    config = small_config()
    left.put(config, run_experiment(config))
    right.put(config, run_experiment(config))  # different elapsed wall-clock
    report = diff_stores(left, right)
    assert len(report["matching"]) == 1
    assert report["differing"] == []
