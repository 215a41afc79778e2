"""Tests for the component registries and their parameter schemas."""

import pytest

from repro.registry import (
    ALL_REGISTRIES,
    ParamSpec,
    Registry,
    applications,
    churn_models,
    overlays,
    strategies,
)


def test_builtin_strategies_registered():
    names = strategies.names()
    for expected in (
        "proactive",
        "simple",
        "generalized",
        "randomized",
        "reactive",
        "graded-generalized",
        "graded-randomized",
    ):
        assert expected in names


def test_builtin_applications_registered():
    assert set(applications.names()) == {
        "gossip-learning",
        "push-gossip",
        "push-pull-gossip",
        "chaotic-iteration",
        "replication-repair",
    }


def test_builtin_overlays_and_churn_models_registered():
    assert set(overlays.names()) == {"kout", "watts-strogatz"}
    assert set(churn_models.names()) == {"none", "stunner-trace", "flash-crowd"}


def test_unknown_name_lists_choices():
    with pytest.raises(ValueError, match="unknown strategy 'leaky-bucket'"):
        strategies.get("leaky-bucket")
    with pytest.raises(ValueError, match="unknown app"):
        applications.get("raft")
    with pytest.raises(ValueError, match="unknown overlay"):
        overlays.get("torus")
    with pytest.raises(ValueError, match="unknown churn model"):
        churn_models.get("meteor-strike")


def test_unknown_parameter_rejected():
    with pytest.raises(ValueError, match="unknown parameter"):
        strategies.create("simple", capacity=5, shininess=11)


def test_missing_required_parameter_rejected():
    with pytest.raises(ValueError, match="requires parameter 'capacity'"):
        strategies.create("simple")


def test_create_builds_component():
    strategy = strategies.create("randomized", spend_rate=5, capacity=10)
    assert strategy.describe() == "randomized(A=5, C=10)"


def test_mistyped_parameter_rejected_cleanly():
    # CLI --app-param values fall back to raw strings; the schema must
    # turn those into usage errors, not factory tracebacks.
    with pytest.raises(ValueError, match="expects int"):
        strategies.create("simple", capacity="junk")
    with pytest.raises(ValueError, match="expects float"):
        applications.create("push-gossip", inject_interval="junk")
    with pytest.raises(ValueError, match="expects int"):
        strategies.create("simple", capacity=True)  # bool is not an int here


def test_int_accepted_for_float_parameters():
    plugin = applications.create("push-gossip", inject_interval=20)
    assert plugin.inject_interval == 20


def test_duplicate_registration_rejected():
    registry = Registry("widget")
    registry.register("a")(lambda: None)
    with pytest.raises(ValueError, match="duplicate"):
        registry.register("a")(lambda: None)


def test_registration_describe_includes_params():
    registration = strategies.get("generalized")
    text = registration.describe()
    assert "generalized" in text
    assert "spend_rate" in text
    assert "capacity" in text


def test_param_spec_describe():
    required = ParamSpec("k", "int", required=True, help="out-degree")
    optional = ParamSpec("rewire", "float", default=0.01)
    assert "required" in required.describe()
    assert "out-degree" in required.describe()
    assert "0.01" in optional.describe()


def test_all_registries_describe():
    for registry in ALL_REGISTRIES.values():
        assert registry.describe().strip()


def test_plugin_contracts_declared():
    for registration in applications:
        factory = registration.factory
        assert factory.default_overlay in overlays.names()
        assert isinstance(factory.supports_churn, bool)
        # Only eq. 6 (gossip learning's relative speed) grows as runs improve;
        # lag, angle and replication deficit shrink.
        assert factory.higher_is_better == (registration.name == "gossip-learning")
