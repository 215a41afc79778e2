"""Scenario-matrix smoke bench: run a registry cross-product.

The matrix is *derived from the registries*: every registered
application is crossed with every scenario preset its plugin supports
(failure-free, trace, flash-crowd), plus the network-axis combinations
the legacy harness could not express (lossy small-world push gossip,
jittered heterogeneous-period gossip learning). The cells run as one
parallel suite.

Cell sizes are a fraction of the ``REPRO_SCALE`` preset — this is a
breadth bench (does every combination assemble, run and stay
deterministic?), not a depth bench.
"""

from __future__ import annotations

from repro.experiments.scale import worker_count
from repro.experiments.suite import ExperimentSuite, SuiteRunner
from repro.registry import applications
from repro.scenarios import (
    SCENARIO_PRESETS,
    ComponentRef,
    NetworkSpec,
    ScenarioSpec,
)


def _matrix_specs(scale) -> list:
    """The registry cross-product at smoke size, plus network-axis extras."""
    n = max(60, scale.n // 4)
    periods = max(20, scale.periods // 4)
    base = dict(n=n, periods=periods, seed=1)
    strategy = ComponentRef.of("randomized", spend_rate=5, capacity=10)
    specs = []
    for registration in applications:
        for preset in SCENARIO_PRESETS.values():
            if preset.churn.name != "none" and not registration.factory.supports_churn:
                continue
            specs.append(
                ScenarioSpec(
                    app=ComponentRef.of(registration.name),
                    strategy=strategy,
                    churn=preset.churn,
                    **base,
                )
            )
    # Network-axis combinations beyond the preset cross-product.
    specs.append(
        ScenarioSpec(
            app=ComponentRef.of("push-gossip"),
            strategy=strategy,
            overlay=ComponentRef.of("watts-strogatz"),
            network=NetworkSpec(loss_rate=0.10),
            **base,
        )
    )
    specs.append(
        ScenarioSpec(
            app=ComponentRef.of("gossip-learning"),
            strategy=strategy,
            network=NetworkSpec(transfer_jitter=0.3),
            period_spread=0.2,
            **base,
        )
    )
    return specs


def test_scenario_matrix_smoke_artifact(scale):
    specs = _matrix_specs(scale)
    suite = ExperimentSuite.from_configs(
        "scenario-matrix",
        specs,
        description="registry cross-product smoke matrix",
    )
    result = SuiteRunner(workers=worker_count()).run(suite)

    print(f"\nscenario matrix ({len(suite)} cells, {result.workers} workers):")
    for cell in result.cells:
        payload = cell.result
        final = payload.metric.final() if not payload.metric.empty else None
        print(
            f"  {payload.label:<55} {payload.events_processed:>10,} events"
            f"   final metric {final}"
        )
    print(f"  total: {result.summary()}")

    # Every cell ran to the horizon and produced a metric series.
    assert len(result.cells) == len(specs)
    assert all(cell.result.events_processed > 0 for cell in result.cells)
    assert result.total_events > 0

    # Determinism across the matrix: a serial re-run of a sample of the
    # opened combinations reproduces the pooled results bit-for-bit.
    sample = [index for index, spec in enumerate(specs) if spec.churn.name != "none"]
    sample = sample[:3]
    rerun = SuiteRunner(workers=1).run(
        ExperimentSuite.from_configs(
            "scenario-matrix-recheck", [specs[i] for i in sample]
        )
    )
    for recheck, index in zip(rerun.cells, sample):
        original = result.cells[index].result
        assert recheck.result.metric.values == original.metric.values
