"""Tests for the declarative scenario layer and the newly opened matrix."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.scenarios import (
    SCENARIO_PRESETS,
    SCENARIOS,
    ComponentRef,
    NetworkSpec,
    ScenarioSpec,
    scenario_preset,
)

SMALL = dict(n=60, periods=12, seed=3)


def small_spec(**overrides):
    base = dict(
        app=ComponentRef.of("push-gossip"),
        strategy=ComponentRef.of("randomized", spend_rate=5, capacity=10),
        **SMALL,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


# ----------------------------------------------------------------------
# ComponentRef / NetworkSpec
# ----------------------------------------------------------------------
def test_component_ref_params_are_order_insensitive():
    a = ComponentRef.of("generalized", spend_rate=5, capacity=10)
    b = ComponentRef.of("generalized", capacity=10, spend_rate=5)
    assert a == b
    assert a.kwargs == {"spend_rate": 5, "capacity": 10}


def test_component_ref_with_params_merges():
    ref = ComponentRef.of("kout", k=20)
    assert ref.with_params(k=5).kwargs == {"k": 5}
    assert ref.label() == "kout(k=20)"


def test_network_spec_validation():
    with pytest.raises(ValueError):
        NetworkSpec(loss_rate=1.0)
    with pytest.raises(ValueError):
        NetworkSpec(transfer_jitter=1.5)
    with pytest.raises(ValueError):
        NetworkSpec(transfer_time=0.0)


# ----------------------------------------------------------------------
# Spec validation
# ----------------------------------------------------------------------
def test_spec_rejects_unknown_components():
    with pytest.raises(ValueError, match="unknown app"):
        small_spec(app=ComponentRef.of("raft"))
    with pytest.raises(ValueError, match="unknown strategy"):
        small_spec(strategy=ComponentRef.of("leaky-bucket"))
    with pytest.raises(ValueError, match="unknown overlay"):
        small_spec(overlay=ComponentRef.of("torus"))
    with pytest.raises(ValueError, match="unknown churn model"):
        small_spec(churn=ComponentRef.of("meteor-strike"))


def test_spec_rejects_bad_component_params():
    with pytest.raises(ValueError, match="unknown parameter"):
        small_spec(app=ComponentRef.of("push-gossip", shininess=1))
    with pytest.raises(ValueError):  # C < A fails inside the strategy
        small_spec(strategy=ComponentRef.of("randomized", spend_rate=10, capacity=5))


def test_spec_rejects_churn_incompatible_app():
    with pytest.raises(ValueError, match="churn"):
        small_spec(
            app=ComponentRef.of("replication-repair"),
            churn=ComponentRef("stunner-trace"),
        )


def test_spec_structural_validation():
    with pytest.raises(ValueError):
        small_spec(n=1)
    with pytest.raises(ValueError):
        small_spec(periods=0)
    with pytest.raises(ValueError):
        small_spec(period_spread=1.0)


def test_scenario_presets_cover_scenarios_tuple():
    assert SCENARIOS == tuple(SCENARIO_PRESETS)
    with pytest.raises(ValueError, match="unknown scenario"):
        scenario_preset("mars")


def test_spec_label_and_overrides():
    spec = small_spec()
    assert spec.label() == "push-gossip/randomized(A=5, C=10)/failure-free"
    other = spec.with_overrides(seed=99)
    assert other.seed == 99
    assert spec.seed == SMALL["seed"]


def test_config_to_spec_round_trips_fields():
    spec = ExperimentConfig(
        app="gossip-learning",
        strategy="generalized",
        spend_rate=5,
        capacity=10,
        n=80,
        periods=20,
        seed=11,
        loss_rate=0.1,
        grading_scale=4.0,
    )
    assert spec.app.kwargs["grading_scale"] == 4.0
    assert spec.strategy.kwargs == {"spend_rate": 5, "capacity": 10}
    assert spec.network.loss_rate == 0.1
    assert spec.n == 80 and spec.periods == 20 and spec.seed == 11
    assert spec.horizon == 20 * spec.period


# ----------------------------------------------------------------------
# The three newly opened scenario combinations
# ----------------------------------------------------------------------
def test_trace_driven_chaotic_iteration_runs():
    spec = small_spec(
        app=ComponentRef.of("chaotic-iteration"),
        strategy=ComponentRef.of("generalized", spend_rate=2, capacity=6),
        churn=ComponentRef("stunner-trace"),
    )
    result = run_experiment(spec)
    assert not result.metric.empty
    assert result.label == "chaotic-iteration/generalized(A=2, C=6)/trace"
    # Deterministic: same spec, same seed, same series.
    again = run_experiment(spec)
    assert result.metric.values == again.metric.values


def test_lossy_watts_strogatz_push_gossip_runs():
    spec = small_spec(
        overlay=ComponentRef.of("watts-strogatz", degree=4, rewire=0.05),
        network=NetworkSpec(loss_rate=0.10),
    )
    result = run_experiment(spec)
    assert not result.metric.empty
    assert result.network.lost_dropped > 0
    again = run_experiment(spec)
    assert result.metric.values == again.metric.values


def test_flash_crowd_churn_runs():
    spec = small_spec(
        app=ComponentRef.of("gossip-learning"),
        strategy=ComponentRef.of("simple", capacity=5),
        churn=ComponentRef.of("flash-crowd", base_fraction=0.4),
        periods=20,
    )
    result = run_experiment(spec)
    assert not result.metric.empty
    # The crowd churns in and out again: some deliveries must have
    # found their destination offline.
    assert result.network.lost_offline > 0
    again = run_experiment(spec)
    assert result.metric.values == again.metric.values


def test_legacy_config_paths_for_new_combinations():
    # The flat veneer reaches the same combinations.
    chaotic = ExperimentConfig(
        app="chaotic-iteration",
        strategy="randomized",
        spend_rate=2,
        capacity=6,
        scenario="trace",
        **SMALL,
    )
    lossy = ExperimentConfig(
        app="push-gossip",
        strategy="randomized",
        spend_rate=5,
        capacity=10,
        overlay="watts-strogatz",
        loss_rate=0.1,
        **SMALL,
    )
    crowd = ExperimentConfig(
        app="gossip-learning",
        strategy="simple",
        capacity=5,
        scenario="flash-crowd",
        **SMALL,
    )
    for config in (chaotic, lossy, crowd):
        assert not run_experiment(config).metric.empty


# ----------------------------------------------------------------------
# The new first-class network/timing axes
# ----------------------------------------------------------------------
def test_export_marks_spec_configs(tmp_path):
    from repro.experiments.export import load_result_json, save_result

    spec_result = run_experiment(small_spec())
    spec_path = tmp_path / "spec.json"
    save_result(spec_result, spec_path)
    document = load_result_json(spec_path)
    assert document["config_format"] == "scenario-spec-v1"
    assert document["config"]["app"]["name"] == "push-gossip"


def test_transfer_jitter_changes_and_stays_deterministic():
    plain = small_spec()
    jittered = small_spec(network=NetworkSpec(transfer_jitter=0.5))
    a = run_experiment(jittered)
    b = run_experiment(jittered)
    assert a.metric.values == b.metric.values
    assert a.metric.values != run_experiment(plain).metric.values


def test_period_spread_heterogeneous_periods():
    from repro.experiments.runner import Experiment

    spread = small_spec(period_spread=0.3)
    experiment = Experiment(spread)
    periods = {node.process.period for node in experiment.nodes}
    assert len(periods) > 1
    nominal = spread.period
    assert all(nominal * 0.7 <= period <= nominal * 1.3 for period in periods)
    a = run_experiment(spread)
    b = run_experiment(spread)
    assert a.metric.values == b.metric.values


def test_period_spread_keeps_burst_bound():
    spec = small_spec(period_spread=0.2, audit_sends=True)
    result = run_experiment(spec)
    assert result.ratelimit_violations == []


# ----------------------------------------------------------------------
# Flash-crowd trace shape
# ----------------------------------------------------------------------
def test_flash_crowd_trace_shape():
    import random

    from repro.churn.flash_crowd import FlashCrowdConfig, generate_flash_crowd_trace

    config = FlashCrowdConfig(horizon=1000.0, base_fraction=0.3)
    trace = generate_flash_crowd_trace(200, random.Random(1), config)
    online_start = sum(trace.is_online(i, 0.0) for i in range(200))
    online_peak = sum(trace.is_online(i, 250.0) for i in range(200))
    online_end = sum(trace.is_online(i, 999.0) for i in range(200))
    # Backbone only at the start, surge at the peak, decay by the end.
    assert online_start == pytest.approx(60, abs=2)
    assert online_peak > 2 * online_start
    assert online_end < online_peak
