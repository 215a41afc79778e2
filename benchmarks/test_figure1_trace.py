"""Figure 1 — the smartphone availability trace.

Regenerates: proportion of users online and ever-online over the two-day
window, and per-hour login/logout proportions (the bars of Figure 1),
from the synthetic STUNner-like trace.

Paper reference points: ~30 % of users permanently offline; diurnal
availability peaking at night (GMT); ever-online reaching ~0.7.
"""

from benchmarks.conftest import print_figure
from repro.experiments.figures import figure1


def test_figure1_trace_statistics(scale):
    data = figure1(scale=scale)
    print_figure(data, rows=13)
    summary = data.extras["summary"]
    print(f"\ntrace summary: {summary}")

    # Calibration targets from the paper (§4.1 and Figure 1).
    assert 0.25 <= summary.never_online_fraction <= 0.38
    ever = data.series["has been online"]
    assert 0.55 <= ever.final() <= 0.80
    online = data.series["online"]
    assert 0.10 <= online.min() and online.max() <= 0.60
