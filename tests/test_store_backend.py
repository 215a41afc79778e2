"""Store identity audit for the ``backend`` axis.

The backend a cell was simulated on is part of its identity: keys must
differ across backends, entries written before the axis existed (schema
version 1) must never satisfy a lookup, ``repro store gc`` must prune
them, and ``repro store diff`` across backends must report disjoint
grids — never a match.
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.store import RESULT_SCHEMA_VERSION, ResultStore, cell_key, diff_stores


def config(**overrides) -> ExperimentConfig:
    defaults = dict(
        app="push-gossip",
        strategy="simple",
        capacity=5,
        n=60,
        periods=10,
        seed=7,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_schema_version_bumped_for_backend_axis():
    # The backend axis changed what a cell key means; the bump is the
    # contract that no pre-axis entry can ever hit again.
    assert RESULT_SCHEMA_VERSION >= 2


def test_backend_axis_changes_config_key():
    assert cell_key(config()) != cell_key(config(backend="vectorized"))


def test_backend_axis_changes_spec_key():
    event_spec = config()
    vector_spec = config(backend="vectorized")
    assert event_spec.canonical_dict() != vector_spec.canonical_dict()
    assert cell_key(event_spec) != cell_key(vector_spec)


def test_pre_backend_entries_are_misses(tmp_path):
    """Entries written under schema v1 (no backend axis) never hit."""
    root = tmp_path / "store"
    legacy = ResultStore(root, schema_version=1)
    cfg = config()
    legacy.put(cfg, run_experiment(cfg))
    assert legacy.get(cfg) is not None  # sanity: hits under its own schema
    current = ResultStore(root)
    assert current.get(cfg) is None
    assert current.contains(cfg) is False


def test_gc_prunes_pre_backend_entries(tmp_path):
    root = tmp_path / "store"
    legacy = ResultStore(root, schema_version=1)
    cfg = config()
    legacy.put(cfg, run_experiment(cfg))
    current = ResultStore(root)
    current.put(config(seed=8), run_experiment(config(seed=8)))
    assert len(current) == 2
    removed, kept = current.gc()
    assert (removed, kept) == (1, 1)
    assert current.get(config(seed=8)) is not None


def test_store_diff_across_backends_reports_disjoint_grids(tmp_path):
    """The same scenario on two backends must never diff as matching."""
    event_store = ResultStore(tmp_path / "event")
    vector_store = ResultStore(tmp_path / "vectorized")
    run_experiment(config(), store=event_store)
    run_experiment(config(backend="vectorized"), store=vector_store)
    report = diff_stores(event_store, vector_store)
    assert report["matching"] == []
    assert len(report["only_left"]) == 1
    assert len(report["only_right"]) == 1


def test_mixed_backend_store_gc_keeps_both(tmp_path):
    """Current-schema cells from both backends coexist and survive gc."""
    store = ResultStore(tmp_path / "store")
    run_experiment(config(), store=store)
    run_experiment(config(backend="vectorized"), store=store)
    removed, kept = store.gc()
    assert (removed, kept) == (0, 2)
    assert store.get(config()) is not None
    assert store.get(config(backend="vectorized")) is not None
