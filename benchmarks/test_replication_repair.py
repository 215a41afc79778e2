"""Replication repair under a correlated failure burst (§5, built out).

The paper's related work flags repair-budget control as a promising token
account application: reactive repair is fast but bursty and can starve;
proactive repair is smooth but slow after correlated failures. This bench
fails 15 % of the nodes in a narrow window and reports, per strategy:

* peak under-replication after the burst,
* rounds until <2 % of surviving objects remain under-replicated,
* the sustained message budget,
* residual damage at the end of the run.

Expected shape: the token account strategies recover at close to reactive
speed while keeping the proactive budget and — unlike the purely reactive
protocol, which stalls once its message cascades die out — they always
finish the repair (the §3.3.1 self-healing argument, in a new domain).
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment

STRATEGIES = (
    ("proactive", "proactive", None, None),
    ("simple C=10", "simple", None, 10),
    ("generalized A=5 C=10", "generalized", 5, 10),
    ("randomized A=5 C=10", "randomized", 5, 10),
    ("pure reactive (ref)", "reactive", None, None),
)


def test_repair_after_failure_burst(scale):
    def run_all():
        rows = []
        for label, strategy, a, c in STRATEGIES:
            config = ExperimentConfig(
                app="replication-repair",
                strategy=strategy,
                spend_rate=a,
                capacity=c,
                n=min(scale.n, 300),
                periods=min(scale.periods, 120),
                seed=1,
                fail_fraction=0.15,
                fail_window=(0.3, 0.32),
                sample_interval=43.2,
            )
            result = run_experiment(config)
            metric = result.metric
            burst_end = metric.times[-1] * 0.32
            after = metric.tail(burst_end)
            recovered = after.first_time_below(0.02)
            recovery_rounds = (
                (recovered - burst_end) / config.period if recovered else None
            )
            rows.append(
                (
                    label,
                    after.max(),
                    recovery_rounds,
                    result.messages_per_node_per_period,
                    metric.final(),
                )
            )
        return rows

    rows = run_all()
    print(
        "\nrepair after a 15% correlated failure burst "
        "(peak under-replication, recovery to <2%, budget, residual):"
    )
    print(
        f"{'strategy':22s} {'peak':>7s} {'recovery':>10s} "
        f"{'msgs/node/Δ':>12s} {'residual':>9s}"
    )
    by_label = {}
    for label, peak, recovery, rate, final in rows:
        recovery_text = f"{recovery:.1f} Δ" if recovery is not None else "never"
        print(f"{label:22s} {peak:7.3f} {recovery_text:>10s} {rate:12.3f} {final:9.3f}")
        by_label[label] = (peak, recovery, rate, final)

    # Token account strategies: full repair, within the proactive budget,
    # at least as fast as the proactive baseline.
    proactive_recovery = by_label["proactive"][1]
    for label in ("generalized A=5 C=10", "randomized A=5 C=10"):
        peak, recovery, rate, final = by_label[label]
        assert final == 0.0, label
        assert rate <= 1.02, label
        assert recovery is not None and recovery <= proactive_recovery, label
    # The purely reactive reference collapses its own repair traffic.
    assert by_label["pure reactive (ref)"][2] < 0.2
