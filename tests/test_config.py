"""The contract of ``ExperimentConfig``: a flat-keyword ScenarioSpec constructor."""

import inspect

import pytest

from repro.experiments.config import PAPER, ExperimentConfig
from repro.registry import applications
from repro.scenarios import ComponentRef, NetworkSpec, ScenarioSpec
from repro.store import cell_key


def test_paper_constants_match_section_4_1():
    assert PAPER.period == 172.8
    assert PAPER.transfer_time == 1.728
    assert PAPER.period / PAPER.transfer_time == pytest.approx(100.0)
    assert PAPER.out_degree == 20
    assert PAPER.ws_degree == 4
    assert PAPER.ws_rewire == 0.01
    assert PAPER.inject_interval == pytest.approx(17.28)
    assert PAPER.period / PAPER.inject_interval == pytest.approx(10.0)
    assert PAPER.initial_tokens == 0
    assert PAPER.n_small == 5000
    assert PAPER.n_large == 500_000
    assert PAPER.periods == 1000
    # Two days of 1000 periods:
    assert PAPER.periods * PAPER.period == pytest.approx(172_800.0)


def test_constructor_returns_the_one_config_type():
    config = ExperimentConfig(app="push-gossip", strategy="proactive")
    assert type(config) is ScenarioSpec
    assert len(inspect.signature(ExperimentConfig).parameters) == 32


#: the explicit parameters a flat call hands each registered app
PUSH_PARAMS = dict(
    grading_scale=None,
    inject_interval=17.28,
    pull_on_rejoin=True,
    reactive_injection=False,
)
APP_PARAMS = {
    "chaotic-iteration": dict(grading_scale=None),
    "gossip-learning": dict(grading_scale=None),
    "push-gossip": PUSH_PARAMS,
    "push-pull-gossip": PUSH_PARAMS,
    "replication-repair": dict(
        target_replication=3,
        objects_per_node=1.0,
        fail_fraction=0.2,
        fail_window=(0.25, 0.35),
        detection_delay=None,
    ),
}


@pytest.mark.parametrize("app", applications.names())
def test_flat_call_equals_the_hand_built_spec(app):
    flat = ExperimentConfig(
        app=app, strategy="randomized", spend_rate=5, capacity=10, n=80, loss_rate=0.1
    )
    overlay = ComponentRef.of("kout", k=20)
    if app == "chaotic-iteration":
        overlay = ComponentRef.of("watts-strogatz", degree=4, rewire=0.01)
    by_hand = ScenarioSpec(
        app=ComponentRef.of(app, **APP_PARAMS[app]),
        strategy=ComponentRef.of("randomized", spend_rate=5, capacity=10),
        overlay=overlay,
        network=NetworkSpec(loss_rate=0.1),
        n=80,
    )
    assert flat == by_hand
    assert cell_key(flat) == cell_key(by_hand)


def test_default_config_uses_paper_values():
    config = ExperimentConfig(app="push-gossip", strategy="proactive")
    assert config.n == 5000
    assert config.horizon == pytest.approx(172_800.0)
    assert config.effective_sample_interval == pytest.approx(86.4)


def test_unknown_app_rejected():
    with pytest.raises(ValueError, match="unknown app"):
        ExperimentConfig(app="raft", strategy="proactive")


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError, match="unknown scenario"):
        ExperimentConfig(app="push-gossip", strategy="proactive", scenario="mars")


def test_chaotic_iteration_under_churn_now_composes():
    # Previously hard-rejected; the registry refactor opened the
    # combination (the paper's figures still exclude it, see figure3).
    config = ExperimentConfig(
        app="chaotic-iteration", strategy="proactive", scenario="trace"
    )
    assert config.churn.name == "stunner-trace"


def test_replication_under_churn_rejected():
    with pytest.raises(ValueError, match="churn"):
        ExperimentConfig(
            app="replication-repair", strategy="proactive", scenario="trace"
        )


def test_overlay_override_flows_into_spec():
    config = ExperimentConfig(
        app="push-gossip",
        strategy="proactive",
        overlay="watts-strogatz",
        ws_degree=6,
        ws_rewire=0.1,
    )
    assert config.overlay == ComponentRef.of("watts-strogatz", degree=6, rewire=0.1)


def test_default_overlay_follows_the_app():
    kout = ExperimentConfig(app="push-gossip", strategy="proactive")
    ws = ExperimentConfig(app="chaotic-iteration", strategy="proactive")
    assert kout.overlay.name == "kout"
    assert ws.overlay.name == "watts-strogatz"


def test_invalid_strategy_parameters_fail_fast():
    with pytest.raises(ValueError):
        ExperimentConfig(app="push-gossip", strategy="generalized", spend_rate=5)
    with pytest.raises(ValueError):
        ExperimentConfig(
            app="push-gossip", strategy="randomized", spend_rate=10, capacity=5
        )


def test_tiny_network_rejected():
    with pytest.raises(ValueError):
        ExperimentConfig(app="push-gossip", strategy="proactive", n=1)
    with pytest.raises(ValueError):
        ExperimentConfig(app="push-gossip", strategy="proactive", periods=0)


@pytest.mark.parametrize("backend", ["event", "vectorized"])
@pytest.mark.parametrize("interval", [-5.0, 0.0])
def test_non_positive_sample_interval_rejected(backend, interval):
    with pytest.raises(ValueError, match="sample_interval must be positive"):
        ExperimentConfig(
            app="push-gossip",
            strategy="proactive",
            backend=backend,
            sample_interval=interval,
        )


def test_label_is_descriptive():
    config = ExperimentConfig(
        app="gossip-learning", strategy="randomized", spend_rate=10, capacity=20
    )
    assert config.label() == "gossip-learning/randomized(A=10, C=20)/failure-free"


def test_with_overrides():
    config = ExperimentConfig(app="push-gossip", strategy="proactive", seed=1)
    other = config.with_overrides(seed=99, n=100)
    assert other.seed == 99
    assert other.n == 100
    assert other.app == config.app
    assert config.seed == 1  # original frozen


def test_with_overrides_routes_component_parameters():
    config = ExperimentConfig(
        app="push-gossip", strategy="randomized", spend_rate=5, capacity=10
    )
    other = config.with_overrides(capacity=7, inject_interval=5.0, k=3, loss_rate=0.2)
    assert other == ExperimentConfig(
        app="push-gossip",
        strategy="randomized",
        spend_rate=5,
        capacity=7,
        inject_interval=5.0,
        out_degree=3,
        loss_rate=0.2,
    )
    with pytest.raises(TypeError, match="shininess"):
        config.with_overrides(shininess=1)
    simple = ExperimentConfig(app="push-gossip", strategy="simple", capacity=7)
    with pytest.raises(TypeError, match="spend_rate"):
        simple.with_overrides(spend_rate=5)


def test_make_strategy_round_trip():
    config = ExperimentConfig(app="push-gossip", strategy="simple", capacity=7)
    assert config.build_strategy().describe() == "simple(C=7)"


def test_custom_sample_interval():
    config = ExperimentConfig(
        app="push-gossip", strategy="proactive", sample_interval=50.0
    )
    assert config.effective_sample_interval == 50.0
