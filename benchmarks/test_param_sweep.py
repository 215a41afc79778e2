"""§4.2 parameter-space exploration.

The paper sweeps A in {1, 2, 5, 10, 15, 20, 40} x C-A in {0, 1, 2, 5,
10, 15, 20, 40, 80} for each strategy/application. At CI scale a thinned
grid runs; ``REPRO_SCALE=paper`` restores the full 63-cell grid.

Paper reference shape: "relative to our purely proactive baseline, all
the parameter combinations result in a very significant performance
improvement in the case of gossip learning and push gossip"; C >> A
combinations have poor error correction; A=10/C=10 is among the best in
gossip learning, among the worst in push gossip; A=10/C=20 and A=5/C=10
are robust everywhere.
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.experiments.suite import run_suite
from repro.experiments.sweep import format_sweep_table, sweep_suite


def proactive_reference(app, scale):
    return run_experiment(
        ExperimentConfig(
            app=app, strategy="proactive", n=scale.n, periods=scale.periods, seed=1
        )
    )


def test_sweep_gossip_learning_randomized(scale):
    suite = sweep_suite("gossip-learning", ["randomized"], scale=scale)
    cells = run_suite(suite).results()
    reference = proactive_reference("gossip-learning", scale)
    print("\ngossip learning, randomized token account — final metric (eq. 6):")
    print(format_sweep_table(cells, higher_is_better=True))
    print(f"proactive baseline: {reference.metric.final():.4g}")

    better = [c for c in cells if c.metric.final() > reference.metric.final()]
    # "all the parameter combinations result in a very significant
    # performance improvement" — allow a couple of cold-start stragglers
    # at reduced scale.
    assert len(better) >= len(cells) - 2


def test_sweep_push_gossip_generalized(scale):
    suite = sweep_suite("push-gossip", ["generalized"], scale=scale)
    cells = run_suite(suite).results()
    reference = proactive_reference("push-gossip", scale)
    start = reference.metric.times[-1] / 2
    reference_lag = reference.metric.mean(start=start)
    print("\npush gossip, generalized token account — final lag (eq. 7):")
    print(format_sweep_table(cells, higher_is_better=False))
    print(f"proactive baseline steady lag: {reference_lag:.4g}")

    improved = [c for c in cells if c.metric.final() < reference_lag]
    assert len(improved) >= len(cells) * 2 // 3


def test_sweep_exposes_a_equals_c_weakness_in_push_gossip(scale):
    """'with A = C, only at most one reactive message is sent' — those
    settings cannot spread updates exponentially and lag behind."""

    def run_pair():
        shared = dict(app="push-gossip", n=scale.n, periods=scale.periods, seed=1)
        tight = run_experiment(
            ExperimentConfig(
                strategy="generalized", spend_rate=10, capacity=10, **shared
            )
        )
        spreading = run_experiment(
            ExperimentConfig(
                strategy="generalized", spend_rate=10, capacity=20, **shared
            )
        )
        return tight, spreading

    tight, spreading = run_pair()
    start = tight.metric.times[-1] / 2
    tight_lag = tight.metric.mean(start=start)
    spreading_lag = spreading.metric.mean(start=start)
    print(
        f"\npush gossip steady lag: A=C=10 -> {tight_lag:.2f}, "
        f"A=10 C=20 -> {spreading_lag:.2f}"
    )
    assert spreading_lag < tight_lag
