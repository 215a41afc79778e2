"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation isolates one mechanism of the token account design and
shows its contribution:

* usefulness-aware reactive function (generalized halves the budget for
  useless messages; randomized spends nothing);
* zero initial tokens (the paper's cold-start handicap for large C);
* pull-on-rejoin in the churn scenario (§4.1.2);
* C >> A (poor error correction, §4.2's warning).
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment


def steady_lag(result, tail_fraction=0.5):
    start = result.metric.times[-1] * (1 - tail_fraction)
    return result.metric.mean(start=start)


def test_usefulness_ablation(scale):
    """Randomized reacts only to useful messages; an ablated variant that
    reacts to everything wastes tokens on stale updates. The ablation is
    expressed through the generalized strategy, whose useless-message
    budget is half the useful one rather than zero."""

    def run_pair():
        shared = dict(app="push-gossip", n=scale.n, periods=scale.periods, seed=1)
        frugal = run_experiment(
            ExperimentConfig(strategy="randomized", spend_rate=5, capacity=10, **shared)
        )
        spender = run_experiment(
            ExperimentConfig(
                strategy="generalized", spend_rate=5, capacity=10, **shared
            )
        )
        return frugal, spender

    frugal, spender = run_pair()
    print(
        f"\nsteady push gossip lag: randomized (reacts to useful only) = "
        f"{steady_lag(frugal):.2f}, generalized (also reacts to useless) = "
        f"{steady_lag(spender):.2f}"
    )
    print(
        f"message rates: {frugal.messages_per_node_per_period:.3f} vs "
        f"{spender.messages_per_node_per_period:.3f} msgs/node/period"
    )
    # Both stay within the proactive budget; both beat proactive. The
    # comparison documents the trade-off rather than a strict ordering.
    assert frugal.messages_per_node_per_period <= 1.05
    assert spender.messages_per_node_per_period <= 1.05


def test_initial_tokens_ablation(scale):
    """§4.2: 'larger values of C have a handicap in our experiments since
    we initialize the accounts to have zero tokens.' Pre-filling the
    accounts removes the cold start."""

    def run_pair():
        shared = dict(
            app="gossip-learning",
            strategy="generalized",
            spend_rate=10,
            capacity=20,
            n=scale.n,
            periods=max(40, scale.periods // 4),  # short run: cold start visible
            seed=1,
        )
        cold = run_experiment(ExperimentConfig(initial_tokens=0, **shared))
        warm = run_experiment(ExperimentConfig(initial_tokens=20, **shared))
        return cold, warm

    cold, warm = run_pair()
    print(
        f"\ngossip learning final metric over a short run: "
        f"zero initial tokens = {cold.metric.final():.4f}, "
        f"full account = {warm.metric.final():.4f}"
    )
    assert warm.metric.final() > cold.metric.final()


def test_pull_on_rejoin_ablation(scale):
    """Without the §4.1.2 pull request, rejoining nodes sit on stale
    updates until the gossip stream happens to reach them."""

    def run_pair():
        shared = dict(
            app="push-gossip",
            strategy="randomized",
            spend_rate=5,
            capacity=10,
            n=scale.n,
            periods=scale.periods,
            scenario="trace",
            seed=1,
        )
        with_pull = run_experiment(ExperimentConfig(pull_on_rejoin=True, **shared))
        without_pull = run_experiment(ExperimentConfig(pull_on_rejoin=False, **shared))
        return with_pull, without_pull

    with_pull, without_pull = run_pair()
    print(
        f"\nsteady lag under churn: with pull = {steady_lag(with_pull):.2f}, "
        f"without pull = {steady_lag(without_pull):.2f}"
    )
    print(f"pull requests sent: {with_pull.network.by_kind.get('pull-request', 0)}")
    assert with_pull.network.by_kind.get("pull-request", 0) > 0
    # The pull mechanism must not hurt; in churny scenarios it helps the
    # rejoin transient (documented, not strictly ordered at small scale).
    assert steady_lag(with_pull) <= steady_lag(without_pull) * 1.15


def test_large_capacity_gap_warning(scale):
    """§4.2: 'it makes little sense to set C much larger than A' — an
    aggressive reactive strategy with a huge capacity bursts its tokens
    and then stays silent for a long time, hurting error correction.
    Visible in gossip learning as high variance / stalling at small N."""

    def run_pair():
        shared = dict(
            app="gossip-learning",
            strategy="generalized",
            n=scale.n,
            periods=scale.periods,
            seed=1,
        )
        balanced = run_experiment(ExperimentConfig(spend_rate=5, capacity=10, **shared))
        gappy = run_experiment(ExperimentConfig(spend_rate=1, capacity=81, **shared))
        return balanced, gappy

    balanced, gappy = run_pair()
    print(
        f"\ngossip learning final metric: A=5 C=10 (balanced) = "
        f"{balanced.metric.final():.4f}, A=1 C=81 (C >> A) = "
        f"{gappy.metric.final():.4f}"
    )
    assert balanced.metric.final() > gappy.metric.final()
