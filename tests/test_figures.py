"""Tests for the per-figure harnesses (micro scale)."""

import hashlib

import pytest

from repro.experiments.figures import (
    QUICK_SELECTION,
    REPRESENTATIVE_SELECTION,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
)
from repro.experiments.scale import ScalePreset

# Periods must comfortably exceed the largest C in the selection: with
# zero initial tokens, a generalized-strategy node is silent for its
# first C rounds (the cold-start handicap the paper notes in §4.2).
MICRO = ScalePreset(
    name="micro", n=80, n_large=150, periods=60, repeats=1, trace_users=400
)


def test_selection_covers_text_mentions():
    """§4.2 discusses these settings by name; they must be in the plot."""
    assert ("proactive", None, None) in REPRESENTATIVE_SELECTION
    assert ("generalized", 5, 10) in REPRESENTATIVE_SELECTION
    assert ("randomized", 10, 20) in REPRESENTATIVE_SELECTION
    assert set(QUICK_SELECTION) <= set(REPRESENTATIVE_SELECTION)


def test_figure1_series_and_summary():
    data = figure1(scale=MICRO, seed=2)
    assert set(data.series) == {"online", "has been online", "up", "down"}
    online = data.series["online"]
    ever = data.series["has been online"]
    assert len(online) == 48  # hourly midpoints over two days
    # ever-online is monotone and ends between 0.6 and 0.75 (Figure 1).
    assert ever.values == sorted(ever.values)
    assert 0.55 <= ever.final() <= 0.80
    # logouts are rendered negative, logins positive.
    assert all(v <= 0 for v in data.series["down"].values)
    assert all(v >= 0 for v in data.series["up"].values)
    summary = data.extras["summary"]
    assert 0.25 <= summary.never_online_fraction <= 0.38


def test_figure2_gossip_learning_micro():
    data = figure2("gossip-learning", scale=MICRO, quick=True, seed=3)
    assert set(data.series) == {
        "proactive",
        "simple C=10",
        "gene. A=5 C=10",
        "gene. A=10 C=20",
        "rand. A=5 C=10",
        "rand. A=10 C=20",
    }
    assert data.message_rates["proactive"] == pytest.approx(1.0, abs=0.02)
    # Every token account variant beats the proactive baseline.
    baseline = data.series["proactive"].final()
    for label, series in data.series.items():
        if label != "proactive":
            assert series.final() > baseline


def test_figure3_trace_scenario_micro():
    data = figure3("push-gossip", scale=MICRO, quick=True, seed=3)
    assert "proactive" in data.series
    for label, series in data.series.items():
        assert not series.empty, label


def test_figure3_rejects_chaotic():
    with pytest.raises(ValueError):
        figure3("chaotic-iteration", scale=MICRO)


def test_figure4_uses_large_n_and_adds_a1_variants():
    data = figure4("gossip-learning", scale=MICRO, quick=True, seed=3)
    assert "gene. A=1 C=5" in data.series
    assert "gene. A=1 C=10" in data.series
    assert f"N={MICRO.n_large}" in data.description


def test_figure4_rejects_chaotic():
    with pytest.raises(ValueError):
        figure4("chaotic-iteration", scale=MICRO)


def test_figure5_tokens_approach_prediction():
    data = figure5(scale=MICRO, seed=3, settings=((2, 4), (5, 10)))
    predictions = data.extras["predictions"]
    assert predictions["A=2 C=4"] == pytest.approx(8 / 5)
    assert predictions["A=5 C=10"] == pytest.approx(50 / 11)
    for label, series in data.series.items():
        # Tail average within 30% of prediction even at micro scale.
        tail = series.tail(series.times[-1] * 0.6)
        assert tail.mean() == pytest.approx(predictions[label], rel=0.35)
    # The mean-field trajectories are included for plotting.
    assert set(data.extras["meanfield"]) == set(data.series)


# ----------------------------------------------------------------------
# The curves do not move: digests computed on the commit before figures
# 2-4 became rows of one ``_selection_figure`` on a ``SuiteRunner``.
# ----------------------------------------------------------------------
QUICK_LABELS = [
    "proactive",
    "simple C=10",
    "gene. A=5 C=10",
    "gene. A=10 C=20",
    "rand. A=5 C=10",
    "rand. A=10 C=20",
]

FIGURE_PINS = {
    "figure2-push-gossip": (
        lambda: figure2("push-gossip", scale=MICRO, quick=True, seed=3),
        QUICK_LABELS,
        "9c32a45bd28d3b2af600550a04e0b10d5e62d4e6dceba75276f0316c592cc403",
    ),
    # chaotic iteration takes the max(2, repeats) path
    "figure2-chaotic-iteration": (
        lambda: figure2("chaotic-iteration", scale=MICRO, quick=True, seed=3),
        QUICK_LABELS,
        "7f0a0b331b0389e77ede4f55a1094b3704731d3de2025f2deaacae1251079170",
    ),
    "figure3-gossip-learning": (
        lambda: figure3("gossip-learning", scale=MICRO, quick=True, seed=3),
        QUICK_LABELS,
        "a2fdb11d2f532fd3113190fdf4341ebaff1a82644380b30cf9f11cb3f2abbf86",
    ),
    # the appended A=1 picks and repeats // 2
    "figure4-gossip-learning": (
        lambda: figure4("gossip-learning", scale=MICRO, quick=True, seed=3),
        QUICK_LABELS + ["gene. A=1 C=5", "gene. A=1 C=10"],
        "96253479e96b5c2bd4a45bbe5f724af727ad94f9c094b9fd05f394a62fec87b6",
    ),
    "figure5": (
        lambda: figure5(scale=MICRO, seed=3),
        ["A=1 C=2", "A=5 C=10", "A=10 C=20", "A=20 C=40"],
        "5433030abc74754537ee2b9041d3ac946192865a2ee4af3b3a40b6a6bd051ff9",
    ),
}


def curve_digest(data) -> str:
    curves = [
        (label, list(series.times), list(series.values))
        for label, series in data.series.items()
    ]
    return hashlib.sha256(repr((curves, data.message_rates)).encode()).hexdigest()


@pytest.mark.parametrize("name", FIGURE_PINS)
def test_figure_curves_match_parent_commit(name):
    """Labels, every (times, values) pair and the message rates are pinned.

    The literals were printed on the parent commit (6628eb8), with this
    file copied over its ``tests/test_figures.py``, by::

        cd tests && PYTHONPATH=../src python -c "from test_figures import *; \
            [print(n, curve_digest(b())) for n, (b, _, _) in FIGURE_PINS.items()]"
    """
    build, labels, digest = FIGURE_PINS[name]
    data = build()
    assert data.name == name
    assert list(data.series) == labels
    assert curve_digest(data) == digest
