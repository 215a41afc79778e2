"""Unit tests for the simulation-backend layer.

The equivalence gate (``test_backend_equivalence.py``) establishes that
the vectorized engine matches the event engine; these tests cover the
layer's plumbing — registry, dispatch, determinism, the supported
envelope, store keying, CLI and overlay fast paths.
"""

import numpy as np
import pytest

from repro.backends import BackendUnsupportedError
from repro.cli import main
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.experiments.suite import ExperimentSuite, SuiteRunner
from repro.registry import backends
from repro.scenarios import ComponentRef, ScenarioSpec
from repro.sim.randomness import RandomStreams
from repro.store import ResultStore


def vec_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        app="push-gossip",
        strategy="randomized",
        spend_rate=10,
        capacity=20,
        n=80,
        periods=20,
        seed=3,
        backend="vectorized",
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


# ----------------------------------------------------------------------
# Registry + spec surface
# ----------------------------------------------------------------------
def test_backend_registry_entries():
    assert "event" in backends
    assert "vectorized" in backends
    assert backends.get("event").summary


def test_spec_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown backend"):
        ScenarioSpec(
            app=ComponentRef("push-gossip"),
            strategy=ComponentRef.of("simple", capacity=5),
            n=10,
            periods=5,
            backend="quantum",
        )


def test_config_backend_flows_into_spec():
    assert vec_config().backend == "vectorized"
    assert vec_config(backend="event").backend == "event"


def test_cli_lists_backends(capsys):
    assert main(["list", "backends"]) == 0
    out = capsys.readouterr().out
    assert "vectorized" in out and "event" in out


# ----------------------------------------------------------------------
# Dispatch + determinism
# ----------------------------------------------------------------------
def test_vectorized_result_shape():
    # The second input is the population the backend exists for: the
    # event engine would need minutes for an N = 10^5 cell.
    for size in (dict(), dict(n=100_000)):
        result = run_experiment(
            vec_config(collect_tokens=True, audit_sends=True, **size)
        )
        assert result.config.backend == "vectorized"
        assert not result.metric.empty
        assert result.tokens is not None and not result.tokens.empty
        assert result.data_messages > 0
        assert result.network.by_kind["data"] == result.data_messages
        assert result.ratelimit_violations == []
        assert result.events_processed > 0


def test_vectorized_is_deterministic():
    first = run_experiment(vec_config(audit_sends=True))
    second = run_experiment(vec_config(audit_sends=True))
    assert list(first.metric.times) == list(second.metric.times)
    assert list(first.metric.values) == list(second.metric.values)
    assert first.data_messages == second.data_messages
    assert first.network.sent == second.network.sent
    assert first.events_processed == second.events_processed


def test_seed_changes_vectorized_result():
    first = run_experiment(vec_config(seed=3))
    second = run_experiment(vec_config(seed=4))
    assert list(first.metric.values) != list(second.metric.values)


def test_suite_dispatches_per_cell_backend():
    """A suite mixing backends routes every cell through its own engine."""
    suite = ExperimentSuite.from_configs(
        "mixed-backends",
        [vec_config(), vec_config(backend="event")],
    )
    result = SuiteRunner(workers=1).run(suite)
    assert [cell.config.backend for cell in result.cells] == ["vectorized", "event"]
    assert all(not cell.result.metric.empty for cell in result.cells)


def test_vectorized_under_churn_runs():
    result = run_experiment(vec_config(scenario="flash-crowd", periods=30))
    assert not result.metric.empty
    # Churned runs send strictly less than the failure-free rate of ~1.
    assert 0 < result.messages_per_node_per_period < 1.0


# ----------------------------------------------------------------------
# Supported envelope
# ----------------------------------------------------------------------
def test_vectorized_rejects_other_apps():
    with pytest.raises(BackendUnsupportedError, match="gossip-learning"):
        run_experiment(
            ExperimentConfig(
                app="gossip-learning",
                strategy="simple",
                capacity=5,
                n=40,
                periods=5,
                backend="vectorized",
            )
        )


def test_vectorized_rejects_grading():
    with pytest.raises(BackendUnsupportedError, match="grading"):
        run_experiment(vec_config(grading_scale=5.0))


def test_vectorized_rejects_reactive_injection():
    with pytest.raises(BackendUnsupportedError, match="reactive-injection"):
        run_experiment(vec_config(reactive_injection=True))


def test_unsupported_error_is_usage_error():
    assert issubclass(BackendUnsupportedError, ValueError)


# ----------------------------------------------------------------------
# Store keying across backends
# ----------------------------------------------------------------------
def test_store_roundtrips_vectorized_results(tmp_path):
    store = ResultStore(tmp_path / "store")
    config = vec_config()
    fresh = run_experiment(config, store=store)
    cached = run_experiment(config, store=store)
    assert list(cached.metric.values) == list(fresh.metric.values)
    assert cached.elapsed == fresh.elapsed  # the pickled original, not a rerun
    assert len(store) == 1


def test_backends_never_share_store_cells(tmp_path):
    store = ResultStore(tmp_path / "store")
    vec_result = run_experiment(vec_config(), store=store)
    event_result = run_experiment(vec_config(backend="event"), store=store)
    assert len(store) == 2
    assert list(vec_result.metric.values) != list(event_result.metric.values)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_run_with_vectorized_backend(capsys):
    code = main(
        "run --app push-gossip --strategy simple -C 5 --backend vectorized"
        " --nodes 80 --periods 20".split()
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "msgs/node/period" in out


def test_cli_vectorized_unsupported_app_is_usage_error(capsys):
    code = main(
        "run --app gossip-learning --strategy simple -C 5 --backend vectorized"
        " --nodes 40 --periods 5".split()
    )
    assert code == 2
    assert "vectorized" in capsys.readouterr().err


def test_spec_validates_initial_tokens_for_every_backend():
    """Account invariants fail at spec time, identically per backend."""
    for backend in ("event", "vectorized"):
        with pytest.raises(ValueError, match="initial_tokens must be >= 0"):
            vec_config(strategy="simple", spend_rate=None, capacity=5,
                       initial_tokens=-3, backend=backend)
        with pytest.raises(ValueError, match="exceeds the strategy's"):
            vec_config(strategy="simple", spend_rate=None, capacity=5,
                       initial_tokens=6, backend=backend)
    # The overdraft reference keeps permitting a negative start.
    cfg = vec_config(
        strategy="reactive", spend_rate=None, capacity=None, initial_tokens=-1
    )
    assert cfg.initial_tokens == -1


def test_vectorized_tolerates_zero_degree_sink_node():
    """A trailing out-degree-0 node must not crash the CSR peer draw."""
    from repro.registry import overlays

    @overlays.register(
        "ring-with-sink-test",
        summary="test-only ring whose last node has no out-links",
    )
    def _build(n, rng):
        from repro.overlay.graph import Overlay

        rows = [[(i + 1) % n] for i in range(n - 1)] + [[]]
        return Overlay(rows)

    try:
        result = run_experiment(vec_config(overlay="ring-with-sink-test", n=16))
        assert result.data_messages > 0
    finally:
        # Test-only registration: leave the global catalog untouched for
        # tests that assert the exact built-in set.
        overlays._entries.pop("ring-with-sink-test", None)


# ----------------------------------------------------------------------
# Overlay fast paths
# ----------------------------------------------------------------------
def test_kout_adjacency_is_valid_wiring():
    from repro.overlay.kout import kout_adjacency

    targets = kout_adjacency(200, 7, seed=123)
    assert targets.shape == (200, 7)
    rows = np.arange(200)[:, None]
    assert (targets != rows).all()  # no self-loops
    assert ((targets >= 0) & (targets < 200)).all()
    ordered = np.sort(targets, axis=1)
    assert (ordered[:, 1:] != ordered[:, :-1]).all()  # distinct per row


def test_large_kout_overlay_matches_vectorized_csr():
    """Event-side Overlay and vectorized CSR wire the same topology."""
    from repro.overlay.kout import (
        NUMPY_WIRING_MIN_N,
        kout_adjacency,
        random_kout_overlay,
    )

    n, k, seed = NUMPY_WIRING_MIN_N, 5, 11
    overlay = random_kout_overlay(n, k, RandomStreams(seed).stream("overlay"))
    targets = kout_adjacency(
        n, k, RandomStreams(seed).stream("overlay").getrandbits(64)
    )
    assert overlay.n == n
    for node in (0, 1, n // 2, n - 1):
        assert overlay.out_neighbors(node) == tuple(targets[node])


def test_trusted_overlay_rows_skip_validation():
    from repro.overlay.graph import Overlay

    overlay = Overlay.from_trusted_rows([(1, 2), (0, 2), (0, 1)])
    assert overlay.n == 3
    assert overlay.out_neighbors(0) == (1, 2)
    assert overlay.in_neighbors(0) == (1, 2)
