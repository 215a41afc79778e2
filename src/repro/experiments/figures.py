"""Per-figure harnesses: the code that regenerates each paper figure.

Every public function here computes the data behind one figure of the
paper and returns a :class:`FigureData` with labeled series plus derived
headline numbers. The benchmark suite calls these and prints the result;
tests assert the qualitative shape (who wins, by roughly what factor).

Representative parameter selection
----------------------------------
Figure 2/3/4 show "a representative selection" of the explored parameter
space. The exact picks are taken from the settings §4.2 discusses by
name: (A=1, C=5), (A=1, C=10), (A=5, C=10), (A=10, C=10), (A=10, C=20),
and C = 20 for the simple strategy, plus the proactive baseline (simple
with C = 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.churn.stats import (
    ever_online_fraction,
    login_logout_fractions,
    online_fraction,
    trace_summary,
)
from repro.churn.stunner import StunnerTraceConfig, generate_stunner_like_trace
from repro.core.meanfield import MeanFieldModel, randomized_equilibrium
from repro.core.strategies import RandomizedTokenAccount
from repro.experiments.config import PAPER, ExperimentConfig
from repro.experiments.scale import ScalePreset, current_scale
from repro.experiments.suite import ExperimentSuite, SuiteRunner
from repro.metrics.series import TimeSeries
from repro.metrics.smoothing import window_average
from repro.registry import applications
from repro.sim.randomness import RandomStreams

#: the (strategy, A, C) selection shown in Figures 2-4, per §4.2's text
REPRESENTATIVE_SELECTION: Tuple[Tuple[str, Optional[int], Optional[int]], ...] = (
    ("proactive", None, None),
    ("simple", None, 10),
    ("simple", None, 20),
    ("generalized", 1, 10),
    ("generalized", 5, 10),
    ("generalized", 10, 20),
    ("randomized", 1, 10),
    ("randomized", 5, 10),
    ("randomized", 10, 20),
)

#: a smaller selection for quick CI runs
QUICK_SELECTION: Tuple[Tuple[str, Optional[int], Optional[int]], ...] = (
    ("proactive", None, None),
    ("simple", None, 10),
    ("generalized", 5, 10),
    ("generalized", 10, 20),
    ("randomized", 5, 10),
    ("randomized", 10, 20),
)


@dataclass
class FigureData:
    """The computed content of one paper figure."""

    name: str
    description: str
    #: labeled series — one per plotted curve
    series: Dict[str, TimeSeries]
    #: per-curve data message rate (messages / node / period)
    message_rates: Dict[str, float] = field(default_factory=dict)
    #: free-form derived numbers (speedups, predictions, summaries)
    extras: Dict[str, object] = field(default_factory=dict)
    #: the scale preset the data was computed at
    scale_label: str = ""


def _selection_label(strategy: str, a: Optional[int], c: Optional[int]) -> str:
    if strategy == "proactive":
        return "proactive"
    if strategy == "simple":
        return f"simple C={c}"
    return f"{strategy[:4]}. A={a} C={c}"


def _selection_figure(
    number: int,
    app: str,
    scale: Optional[ScalePreset],
    seed: int,
    quick: bool,
    runner: Optional[SuiteRunner],
) -> FigureData:
    """Figures 2-4: one app/scenario over the representative selection.

    The (selection x repeats) fan runs as one suite on ``runner``; the
    repetition groups are averaged exactly like the serial
    :func:`~repro.experiments.runner.run_averaged` path (same seeds, same
    pointwise merge), so results do not depend on the worker count.
    """
    applications.get(app)  # fail fast with the registered choices
    scale = scale or current_scale()
    # per figure: scenario, N, repeats, picks beyond the selection, description
    scenario, n, repeats, extra_picks, setting = {
        2: ("failure-free", scale.n, scale.repeats, (), "in the failure-free scenario"),
        3: ("trace", scale.n, scale.repeats, (), "over the smartphone trace"),
        # Figure 4 is specifically about the A=1 variants; always include them.
        4: (
            "failure-free",
            scale.n_large,
            max(1, scale.repeats // 2),
            (("generalized", 1, 5), ("generalized", 1, 10)),
            "failure-free at large scale",
        ),
    }[number]
    selection = list(QUICK_SELECTION if quick else REPRESENTATIVE_SELECTION)
    selection += [pick for pick in extra_picks if pick not in selection]
    if app == "chaotic-iteration":
        # Chaotic iteration is by far the noisiest application (single
        # runs wobble around the mean curve); always average at least
        # two seeds, like the paper's 10-run averages.
        repeats = max(2, repeats)
    suite = ExperimentSuite.from_configs(
        f"selection-{app}-{scenario}",
        [
            ExperimentConfig(
                app=app,
                strategy=strategy,
                spend_rate=a,
                capacity=c,
                n=n,
                periods=scale.periods,
                scenario=scenario,
                seed=seed,
            )
            for strategy, a, c in selection
        ],
        description=f"{app} / {scenario}: {len(selection)} curves x {repeats} seeds",
    ).repeated(repeats)
    averaged = (runner or SuiteRunner()).run(suite).averaged(repeats)
    series: Dict[str, TimeSeries] = {}
    rates: Dict[str, float] = {}
    for pick, merged in zip(selection, averaged):
        label = _selection_label(*pick)
        curve = merged.metric
        if app == "push-gossip":
            curve = window_average(curve, PAPER.smoothing_window)
        series[label] = curve
        rates[label] = merged.messages_per_node_per_period
    return FigureData(
        name=f"figure{number}-{app}",
        description=f"{app} {setting} (N={n})",
        series=series,
        message_rates=rates,
        scale_label=scale.label,
    )


# ----------------------------------------------------------------------
# Figure 1 — the churn trace
# ----------------------------------------------------------------------
def figure1(scale: Optional[ScalePreset] = None, seed: int = 1) -> FigureData:
    """Figure 1: online / ever-online proportions and login/logout bars."""
    scale = scale or current_scale()
    streams = RandomStreams(seed)
    config = StunnerTraceConfig()
    trace = generate_stunner_like_trace(
        scale.trace_users, streams.stream("figure1-trace"), config
    )
    hours = int(config.horizon // 3600)
    edges = [h * 3600.0 for h in range(hours + 1)]
    # Sample availability at hour *midpoints*: intervals are half-open,
    # so at exactly t = horizon nobody is online by construction.
    midpoints = [t + 1800.0 for t in edges[:-1]]
    online = TimeSeries(zip(midpoints, online_fraction(trace, midpoints)))
    ever = TimeSeries(zip(edges, ever_online_fraction(trace, edges)))
    logins, logouts = login_logout_fractions(trace, edges)
    login_series = TimeSeries(zip(midpoints, logins))
    logout_series = TimeSeries(zip(midpoints, [-x for x in logouts]))
    summary = trace_summary(trace)
    return FigureData(
        name="figure1",
        description=(
            "Proportion of users online / ever-online over the 2-day window "
            "with per-hour login (up) and logout (down) proportions"
        ),
        series={
            "online": online,
            "has been online": ever,
            "up": login_series,
            "down": logout_series,
        },
        extras={"summary": summary},
        scale_label=scale.label,
    )


# ----------------------------------------------------------------------
# Figures 2-4 — the representative selection: failure-free, trace, large N
# ----------------------------------------------------------------------
def figure2(
    app: str,
    scale: Optional[ScalePreset] = None,
    seed: int = 1,
    quick: bool = False,
    runner: Optional[SuiteRunner] = None,
) -> FigureData:
    """Figure 2: token account strategies, failure-free, N = 5,000.

    ``app`` picks the row: gossip learning (top), push gossip (middle),
    chaotic iteration (bottom).
    """
    return _selection_figure(2, app, scale, seed, quick, runner)


def figure3(
    app: str,
    scale: Optional[ScalePreset] = None,
    seed: int = 1,
    quick: bool = False,
    runner: Optional[SuiteRunner] = None,
) -> FigureData:
    """Figure 3: strategies over the smartphone trace (gossip learning and
    push gossip only; the paper's Figure 3 excludes chaotic iteration —
    run the trace-driven chaotic combination through ``repro run`` /
    :class:`~repro.scenarios.ScenarioSpec` instead)."""
    if app == "chaotic-iteration":
        raise ValueError("Figure 3 does not include chaotic iteration (§4.2)")
    return _selection_figure(3, app, scale, seed, quick, runner)


def figure4(
    app: str,
    scale: Optional[ScalePreset] = None,
    seed: int = 1,
    quick: bool = False,
    runner: Optional[SuiteRunner] = None,
) -> FigureData:
    """Figure 4: scalability run at the large network size.

    The interesting finite-size effect: the most aggressive reactive
    variants (A=1) are among the worst at small N but among the best at
    large N for gossip learning (§4.2).
    """
    if app == "chaotic-iteration":
        raise ValueError("Figure 4 covers gossip learning and push gossip only")
    return _selection_figure(4, app, scale, seed, quick, runner)


# ----------------------------------------------------------------------
# Figure 5 — average token balance vs the mean-field prediction
# ----------------------------------------------------------------------
def figure5(
    scale: Optional[ScalePreset] = None,
    seed: int = 1,
    settings: Sequence[Tuple[int, int]] = ((1, 2), (5, 10), (10, 20), (20, 40)),
    runner: Optional[SuiteRunner] = None,
) -> FigureData:
    """Figure 5: average token count (gossip learning, randomized strategy).

    For each (A, C) the simulated average balance should settle at the
    §4.3 prediction ``a = A·C/(C+1) ≈ A``. The extras carry both the
    closed-form equilibria and the integrated mean-field trajectories.
    """
    scale = scale or current_scale()
    repeats = scale.repeats
    suite = ExperimentSuite.from_configs(
        "figure5-token-balance",
        [
            ExperimentConfig(
                app="gossip-learning",
                strategy="randomized",
                spend_rate=spend_rate,
                capacity=capacity,
                n=scale.n,
                periods=scale.periods,
                scenario="failure-free",
                seed=seed,
                collect_tokens=True,
            )
            for spend_rate, capacity in settings
        ],
        description=f"token balance fan: {len(settings)} settings x {repeats} seeds",
    ).repeated(repeats)
    averaged = (runner or SuiteRunner()).run(suite).averaged(repeats)
    series: Dict[str, TimeSeries] = {}
    predictions: Dict[str, float] = {}
    trajectories: Dict[str, object] = {}
    for (spend_rate, capacity), result in zip(settings, averaged):
        label = f"A={spend_rate} C={capacity}"
        assert result.tokens is not None
        series[label] = result.tokens
        predictions[label] = randomized_equilibrium(spend_rate, capacity)
        model = MeanFieldModel(
            RandomizedTokenAccount(spend_rate, capacity), result.config.period
        )
        trajectories[label] = model.integrate(result.config.horizon)
    return FigureData(
        name="figure5",
        description=(
            "Average number of tokens over time (gossip learning, randomized "
            "token account) against the mean-field prediction A*C/(C+1)"
        ),
        series=series,
        extras={"predictions": predictions, "meanfield": trajectories},
        scale_label=scale.label,
    )
