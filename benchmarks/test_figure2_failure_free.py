"""Figure 2 — token account strategies in the failure-free scenario.

Three rows: gossip learning (metric eq. 6, higher is better), push gossip
(average update lag, lower is better, 15-min smoothed), chaotic power
iteration (angle to the dominant eigenvector, lower is better).

Paper reference shape: every token account setting beats the purely
proactive baseline significantly in gossip learning and push gossip;
most settings improve chaotic iteration; all at the same (or lower)
per-node message rate.
"""

from benchmarks.conftest import print_figure
from repro.experiments.figures import figure2
from repro.experiments.report import (
    final_value_speedups,
    format_speedups,
    steady_state_lag_ratios,
    time_to_threshold_speedups,
)


def test_figure2_gossip_learning(scale, quick):
    data = figure2("gossip-learning", scale=scale, quick=quick)
    print_figure(data)
    speedups = final_value_speedups(data.series)
    print()
    print(format_speedups(speedups, "speedup vs proactive (final metric ratio)"))

    # Shape: all token account variants beat the baseline; the paper
    # reports an order-of-magnitude for the best ones at full scale.
    baseline = data.series["proactive"].final()
    for label, series in data.series.items():
        if label != "proactive":
            assert series.final() > baseline, label
    assert max(speedups.values()) > 4.0
    # Rate limiting held: nobody exceeded the proactive message rate.
    assert all(rate <= 1.05 for rate in data.message_rates.values())


def test_figure2_push_gossip(scale, quick):
    data = figure2("push-gossip", scale=scale, quick=quick)
    print_figure(data)
    ratios = steady_state_lag_ratios(data.series)
    print()
    print(format_speedups(ratios, "lag reduction vs proactive (steady state)"))

    # Shape: all C > A settings give near-identical performance, far
    # better than proactive (the paper reports lag about 1/3).
    assert all(ratio >= 1.5 for label, ratio in ratios.items() if label != "proactive")
    assert all(rate <= 1.05 for rate in data.message_rates.values())


def test_figure2_chaotic_iteration(scale, quick):
    data = figure2("chaotic-iteration", scale=scale, quick=quick)
    print_figure(data)
    speedups = time_to_threshold_speedups(data.series)
    print()
    print(
        format_speedups(speedups, "time-to-baseline-accuracy speedup vs proactive")
    )

    finals = {label: series.final() for label, series in data.series.items()}
    if scale.name == "ci":
        # Chaotic iteration is the noisiest application: at CI scale
        # (N=400, few-seed averages) the curves sit within seed noise of
        # the baseline, so only a sanity band is asserted here. The
        # speedup itself is demonstrated deterministically at small
        # slow-mixing scale by tests/test_chaotic_iteration.py and by
        # examples/chaotic_power_iteration.py; the paper-scale shape is
        # asserted at REPRO_SCALE=medium|paper.
        print(
            "\n(ci scale: chaotic curves are seed-noise dominated; "
            "run REPRO_SCALE=medium for the paper-shape assertion)"
        )
        baseline = finals["proactive"]
        for label, value in finals.items():
            assert value <= baseline * 3, (label, finals)
    else:
        # Shape: most parameter combinations improve chaotic iteration.
        improved = [
            label
            for label, value in finals.items()
            if label != "proactive" and value < finals["proactive"]
        ]
        assert len(improved) >= (len(data.series) - 1) // 2, finals
