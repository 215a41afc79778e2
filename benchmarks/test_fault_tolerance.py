"""Fault tolerance under message loss — the §3.3.1 claim, quantified.

"The default proactive behavior helps maintain a certain level of
communication rate naturally even under high message drop rates, which
is impossible in a purely reactive implementation."

The bench sweeps the in-transit drop rate and reports, for the purely
reactive reference, the simple token account and the proactive baseline:
the sustained message rate and the gossip learning progress metric. The
reactive reference collapses; the token account degrades gracefully
toward the proactive floor.
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment

LOSS_RATES = (0.0, 0.1, 0.3, 0.5)


def run_at_loss(strategy, loss, scale, **params):
    config = ExperimentConfig(
        app="gossip-learning",
        strategy=strategy,
        n=min(scale.n, 300),
        periods=min(scale.periods, 120),
        seed=3,
        loss_rate=loss,
        **params,
    )
    return run_experiment(config)


def test_fault_tolerance_sweep(scale):
    def sweep():
        rows = []
        for loss in LOSS_RATES:
            reactive = run_at_loss("reactive", loss, scale)
            simple = run_at_loss("simple", loss, scale, capacity=10)
            proactive = run_at_loss("proactive", loss, scale)
            rows.append((loss, reactive, simple, proactive))
        return rows

    rows = sweep()
    print("\nmessage rate (msgs/node/Δ) and gossip learning metric under loss:")
    print(
        f"{'loss':>6} | {'reactive rate':>13} {'metric':>8} | "
        f"{'simple rate':>11} {'metric':>8} | {'proactive rate':>14} {'metric':>8}"
    )
    for loss, reactive, simple, proactive in rows:
        print(
            f"{loss:6.1f} | {reactive.messages_per_node_per_period:13.3f} "
            f"{reactive.metric.final():8.3f} | "
            f"{simple.messages_per_node_per_period:11.3f} "
            f"{simple.metric.final():8.3f} | "
            f"{proactive.messages_per_node_per_period:14.3f} "
            f"{proactive.metric.final():8.3f}"
        )

    lossless = rows[0]
    heavy = rows[-1]
    # Flooding collapses: its sustained rate at 50% loss is a tiny
    # fraction of its lossless rate.
    assert (
        heavy[1].messages_per_node_per_period
        < lossless[1].messages_per_node_per_period / 10
    )
    # The simple token account keeps communicating near its budget...
    assert heavy[2].messages_per_node_per_period > 0.5
    # ...and still beats the proactive baseline on application progress.
    assert heavy[2].metric.final() > heavy[3].metric.final()
