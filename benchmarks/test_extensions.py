"""Benches for the paper's future-work extensions, implemented here.

* **Graded usefulness** (§3.1: "finer grading is possible in the
  future") — graded strategies scale reactive spending with how useful a
  message actually was, compared against their binary parents.
* **Push-pull gossip** (§2.3: the superior variant the paper skipped
  "for the sake of simplicity") — stale pushes are answered with the
  fresher update, paid for with a token.
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment


def steady_lag(result, tail_fraction=0.5):
    start = result.metric.times[-1] * (1 - tail_fraction)
    return result.metric.mean(start=start)


def test_graded_usefulness_extension(scale):
    def run_pair():
        shared = dict(
            app="push-gossip",
            spend_rate=5,
            capacity=10,
            n=scale.n,
            periods=scale.periods,
            seed=1,
        )
        binary = run_experiment(ExperimentConfig(strategy="randomized", **shared))
        graded = run_experiment(
            ExperimentConfig(strategy="graded-randomized", grading_scale=5.0, **shared)
        )
        return binary, graded

    binary, graded = run_pair()
    print(
        f"\npush gossip steady lag: binary usefulness = {steady_lag(binary):.2f}, "
        f"graded (scale 5 updates) = {steady_lag(graded):.2f}"
    )
    print(
        f"message rates: binary = {binary.messages_per_node_per_period:.3f}, "
        f"graded = {graded.messages_per_node_per_period:.3f}"
    )
    # Grading must respect the budget and stay in the same quality band
    # as its binary parent (it spends less per marginal update).
    assert graded.messages_per_node_per_period <= 1.02
    assert steady_lag(graded) <= steady_lag(binary) * 1.5


def test_push_pull_extension(scale):
    def run_pair():
        shared = dict(
            strategy="randomized",
            spend_rate=5,
            capacity=10,
            n=scale.n,
            periods=scale.periods,
            seed=1,
        )
        push = run_experiment(ExperimentConfig(app="push-gossip", **shared))
        push_pull = run_experiment(ExperimentConfig(app="push-pull-gossip", **shared))
        return push, push_pull

    push, push_pull = run_pair()
    print(
        f"\nsteady lag: push = {steady_lag(push):.2f}, "
        f"push-pull = {steady_lag(push_pull):.2f}"
    )
    print(
        f"message rates: push = {push.messages_per_node_per_period:.3f}, "
        f"push-pull = {push_pull.messages_per_node_per_period:.3f}"
    )
    # Push-pull is at least as fresh on the same (token-bounded) budget.
    assert steady_lag(push_pull) <= steady_lag(push) * 1.1
    assert push_pull.messages_per_node_per_period <= 1.05
