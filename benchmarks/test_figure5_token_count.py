"""Figure 5 — average token balance vs the §4.3 mean-field prediction.

Gossip learning, randomized token account, failure-free. The simulated
average balance must settle at ``a = A·C/(C+1) ≈ A`` ("our validation
runs show a very good agreement with the predicted value").
"""

import pytest

from benchmarks.conftest import print_figure
from repro.core.discrete_balance import stationary_mean_balance
from repro.core.meanfield import (
    MeanFieldModel,
    randomized_equilibrium,
    solve_equilibrium,
)
from repro.core.strategies import RandomizedTokenAccount
from repro.experiments.figures import figure5


def test_figure5_average_tokens(scale):
    data = figure5(scale=scale)
    predictions = data.extras["predictions"]
    notes = "predicted equilibria: " + "  ".join(
        f"{label}: {value:.3f}" for label, value in predictions.items()
    )
    print_figure(data, notes=notes)

    print(
        "\nsimulated tail average vs the continuum (§4.3) and the exact "
        "discrete Markov predictions:"
    )
    for label, series in data.series.items():
        tail = series.tail(series.times[-1] * 0.6)
        simulated = tail.mean()
        predicted = predictions[label]
        spend_rate, capacity = (int(part.split("=")[1]) for part in label.split())
        markov = stationary_mean_balance(RandomizedTokenAccount(spend_rate, capacity))
        print(
            f"  {label:12s} simulated={simulated:7.3f}  "
            f"meanfield={predicted:7.3f}  markov={markov:7.3f}"
        )
        # The mean-field treats the balance as continuous; for A = 1 the
        # discreteness error is O(1) token, hence the absolute floor.
        assert abs(simulated - predicted) <= max(0.4, 0.3 * predicted), label
        # The exact chain must be at least as close as the continuum
        # wherever they disagree materially (it models the discreteness).
        if abs(markov - predicted) > 0.2:
            assert abs(simulated - markov) <= abs(simulated - predicted), label


def test_meanfield_equilibrium_consistency():
    """Numeric solver, closed form and ODE all agree (§4.3)."""

    def compute():
        rows = []
        for spend_rate, capacity in ((1, 2), (5, 10), (10, 20), (20, 40)):
            strategy = RandomizedTokenAccount(spend_rate, capacity)
            closed = randomized_equilibrium(spend_rate, capacity)
            numeric = solve_equilibrium(strategy)
            ode = (
                MeanFieldModel(strategy, period=172.8)
                .integrate(horizon=172.8 * 400)
                .final_balance()
            )
            rows.append((spend_rate, capacity, closed, numeric, ode))
        return rows

    rows = compute()
    print("\n   A    C   closed-form     numeric         ODE")
    for spend_rate, capacity, closed, numeric, ode in rows:
        print(
            f"{spend_rate:4d} {capacity:4d}  {closed:12.4f} {numeric:12.4f} {ode:12.4f}"
        )
        assert numeric == pytest.approx(closed, abs=1e-6)
        assert ode == pytest.approx(closed, rel=0.05)
