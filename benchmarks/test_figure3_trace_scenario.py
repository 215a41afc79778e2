"""Figure 3 — token account strategies over the smartphone trace.

Gossip learning (top) and push gossip (bottom) under realistic churn;
chaotic iteration is excluded ("in such an extremely dynamic setting ...
it is not possible to define convergence", §4.2). Metrics average over
online nodes only; nodes only receive tokens while online; rejoining
nodes issue the §4.1.2 pull request.

Paper reference shape: "apart from the apparent diurnal pattern ... the
results are rather consistent with those in the failure-free scenario.
Relative to the proactive strategy we achieve very significant
improvements ... with the same overall communication cost."
"""

from benchmarks.conftest import print_figure
from repro.experiments.figures import figure3
from repro.experiments.report import (
    final_value_speedups,
    format_speedups,
    steady_state_lag_ratios,
)


def test_figure3_gossip_learning(scale, quick):
    data = figure3("gossip-learning", scale=scale, quick=quick)
    print_figure(data)
    speedups = final_value_speedups(data.series)
    print()
    print(format_speedups(speedups, "speedup vs proactive (final metric ratio)"))

    baseline = data.series["proactive"].final()
    better = [
        label
        for label, series in data.series.items()
        if label != "proactive" and series.final() > baseline
    ]
    # Significant improvements for the token account family under churn.
    assert len(better) >= len(data.series) - 2, speedups
    assert max(speedups.values()) > 2.0


def test_figure3_push_gossip(scale, quick):
    data = figure3("push-gossip", scale=scale, quick=quick)
    print_figure(data)
    ratios = steady_state_lag_ratios(data.series)
    print()
    print(format_speedups(ratios, "lag reduction vs proactive (steady state)"))

    improved = [
        label
        for label, ratio in ratios.items()
        if label != "proactive" and ratio > 1.2
    ]
    assert len(improved) >= len(data.series) - 2, ratios
