"""§3.4 — the rate limitation property, audited over full runs.

"A node cannot send more than ⌊t/Δ⌋ + C messages within a period of
time t." The bench runs every strategy with full send logging and checks
the bound over sliding windows of Δ/2, Δ, 5Δ and 20Δ, in both the
failure-free and the churn scenario, and prints the observed worst-case
bursts against the bound.
"""

from repro.core.ratelimit import burst_bound
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import Experiment


STRATEGIES = (
    ("simple", None, 10),
    ("generalized", 1, 10),
    ("generalized", 10, 20),
    ("randomized", 5, 10),
    ("randomized", 10, 20),
)


def audited_run(app, scenario, strategy, spend_rate, capacity, scale):
    config = ExperimentConfig(
        app=app,
        strategy=strategy,
        spend_rate=spend_rate,
        capacity=capacity,
        n=min(scale.n, 300),  # send logs are memory-heavy; cap the size
        periods=scale.periods,
        scenario=scenario,
        seed=1,
        audit_sends=True,
    )
    experiment = Experiment(config)
    result = experiment.run()
    return config, experiment, result


def test_burst_bound_failure_free(scale):
    def run_all():
        rows = []
        for strategy, spend_rate, capacity in STRATEGIES:
            config, experiment, result = audited_run(
                "push-gossip", "failure-free", strategy, spend_rate, capacity, scale
            )
            auditor = experiment.auditor
            worst = max(
                (
                    auditor.max_sends_in_window(node, config.period)
                    for node in auditor.send_times
                ),
                default=0,
            )
            bound = burst_bound(config.period, config.period, capacity or 0)
            rows.append((config.label(), worst, bound, result.ratelimit_violations))
        return rows

    rows = run_all()
    print("\nworst observed sends in any window of length Δ vs bound:")
    for label, worst, bound, violations in rows:
        print(f"  {label:55s} {worst:3d} <= {bound:3d}")
        assert worst <= bound
        assert violations == []


def test_burst_bound_under_churn(scale):
    def run_all():
        rows = []
        for strategy, spend_rate, capacity in STRATEGIES:
            config, experiment, result = audited_run(
                "push-gossip", "trace", strategy, spend_rate, capacity, scale
            )
            rows.append((config.label(), result.ratelimit_violations))
        return rows

    rows = run_all()
    print("\nburst-bound audit under churn (pull replies included):")
    for label, violations in rows:
        print(f"  {label:55s} violations: {len(violations)}")
        assert violations == []


def test_reactive_reference_has_no_bound(scale):
    """The flooding reference demonstrably violates any burst bound —
    this is exactly why the paper excludes it as a deployable option."""

    def run():
        config = ExperimentConfig(
            app="gossip-learning",
            strategy="reactive",
            reactive_fanout=2,
            n=min(scale.n, 300),
            # the flood saturates within the first period: the worst window
            # is 198 sends at 5 periods, 200 at 50
            periods=min(scale.periods, 5),
            seed=1,
            audit_sends=True,
        )
        experiment = Experiment(config)
        experiment.run()
        return config, experiment.auditor

    config, auditor = run()
    worst = max(
        auditor.max_sends_in_window(node, config.period)
        for node in auditor.send_times
    )
    print(
        f"\nflooding (k=2): worst sends in one Δ window = {worst} "
        "(a C=10 token account caps this at "
        f"{burst_bound(config.period, config.period, 10)})"
    )
    assert worst > burst_bound(config.period, config.period, 10)
