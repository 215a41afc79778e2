"""Figure 4 — scalability: the failure-free scenario at large N.

The paper runs N = 500,000; the bench uses the scale preset's ``n_large``
(see DESIGN.md substitution 4 — a pure-Python half-million-node run is
out of CI reach; ``REPRO_SCALE=paper`` restores the published size).

Paper reference shape:

* push gossip: all settings that allow exponential spreading (C > A)
  remain near-identical; the average delay grows only logarithmically
  with N;
* gossip learning: the most aggressive reactive variants (A = 1), among
  the *worst* at small N, become among the *best* at large N — the
  finite-size stall disappears when proportionally more walks exist.
"""

from benchmarks.conftest import print_figure
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import figure2, figure4
from repro.experiments.runner import run_experiment
from repro.experiments.report import (
    final_value_speedups,
    format_speedups,
    steady_state_lag_ratios,
)


def test_figure4_gossip_learning(scale, quick):
    data = figure4("gossip-learning", scale=scale, quick=quick)
    print_figure(data)
    speedups = final_value_speedups(data.series)
    print()
    print(format_speedups(speedups, "speedup vs proactive (final metric ratio)"))

    finals = {label: series.final() for label, series in data.series.items()}
    ranked = sorted(finals, key=finals.get, reverse=True)
    if scale.name == "paper":
        # At the published N = 500,000 the A=1 variants are "among the
        # best" — require top half of the field.
        a1_positions = [
            ranked.index(label) for label in finals if label.startswith("gene. A=1 ")
        ]
        assert a1_positions and min(a1_positions) < len(ranked) / 2, ranked
    # Every token account variant still beats the proactive baseline.
    assert all(
        value > finals["proactive"]
        for label, value in finals.items()
        if label != "proactive"
    ), finals


def test_figure4_a1_crossover_trend(scale):
    """The finite-size effect behind Figure 4: 'these variants were among
    the worst in the small network but they are among the best in the
    large network'. At reduced scale the crossover is not complete, so
    the bench asserts the *trend*: the A=1 variant's performance relative
    to a robust setting improves with network size."""

    def relative_performance(n):
        shared = dict(app="gossip-learning", periods=scale.periods, seed=1, n=n)
        aggressive = run_experiment(
            ExperimentConfig(
                strategy="generalized", spend_rate=1, capacity=10, **shared
            )
        )
        robust = run_experiment(
            ExperimentConfig(
                strategy="randomized", spend_rate=10, capacity=20, **shared
            )
        )
        return aggressive.metric.final() / robust.metric.final()

    small = relative_performance(scale.n)
    large = relative_performance(scale.n_large)
    print(
        f"\ngeneralized A=1 C=10 relative to randomized A=10 C=20:\n"
        f"  N={scale.n}: {small:.3f}   N={scale.n_large}: {large:.3f}"
        f"   (paper: crossover completes at N=500,000)"
    )
    assert large > small * 1.3


def test_figure4_push_gossip(scale, quick):
    data = figure4("push-gossip", scale=scale, quick=quick)
    print_figure(data)
    ratios = steady_state_lag_ratios(data.series)
    print()
    print(format_speedups(ratios, "lag reduction vs proactive (steady state)"))

    # All C > A settings stay close to each other (within 2x) and far
    # ahead of the proactive baseline.
    spreading = {
        label: ratio
        for label, ratio in ratios.items()
        if label not in ("proactive",) and ratio > 0
    }
    best = max(spreading.values())
    near_identical = [r for r in spreading.values() if r > best / 2]
    assert len(near_identical) >= len(spreading) - 1, ratios


def test_figure4_delay_grows_logarithmically(scale, quick):
    """Compare the small-N and large-N push gossip lags for one setting:
    the growth must be mild (logarithmic diameter), nowhere near the
    linear factor of the network size increase."""

    def both_sizes():
        small = figure2("push-gossip", scale=scale, quick=True)
        large = figure4("push-gossip", scale=scale, quick=True)
        return small, large

    small, large = both_sizes()
    label = "rand. A=10 C=20"
    start_small = small.series[label].times[-1] / 2
    start_large = large.series[label].times[-1] / 2
    lag_small = small.series[label].mean(start=start_small)
    lag_large = large.series[label].mean(start=start_large)
    size_factor = scale.n_large / scale.n
    growth = lag_large / lag_small
    print(
        f"\nN x{size_factor:.0f}: steady lag {lag_small:.2f} -> {lag_large:.2f} "
        f"(x{growth:.2f}) — logarithmic, not linear"
    )
    assert growth < size_factor / 2
