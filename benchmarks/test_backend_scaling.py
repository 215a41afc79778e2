"""Backend scaling bench: vectorized vs event engine at N = 10^4.

Runs the same push-gossip scenarios on both engines and records engine
throughput (events per wall-clock second) into
``artifacts/BENCH_backend.json`` — uploaded by CI so the backend's
performance trajectory is tracked from PR to PR, and compared against
the previous artifact by ``scripts/bench_compare.py``.

Acceptance: the vectorized backend must clear **50x** the event
engine's events/sec at N = 10^4 on the pure-proactive scenario — the
clean Δ-slot workload where the bulk-synchronous model is pure array
arithmetic — and a 10x floor on every token-account scenario, whose
reactive cascades are inherently sequential sub-rounds. A
vectorized-only N = 10^5 row demonstrates the scale target that
motivates the backend.

The bars are ratios, so a faster event engine raises them for an
unchanged vectorized backend. Against the engine with tuple heap entries
(≈ 260–290k events/s at N = 10^4 on a 2-core box, was ≈ 205–215k) 50x
asks ≈ 13M events/s of the proactive scenario (measured 16M, 62x; was
76x) and 10x asks ≈ 2.8M of the token strategies (measured 6.7–8.8M,
24–32x; was 29–49x).

Like ``test_suite_throughput.py``'s ≥ 2x, the two ratio assertions only
arm when ``REPRO_BENCH_STRICT=1`` is set: a wall-clock ratio of two
engines is a property of the box as much as of the code, and under
plain tier-1 it would turn a speed-up of the denominator into a red
test. The rows are measured and written either way, and the check that
the N = 10^5 run processed events and produced a metric is unconditional.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment

ARTIFACT = Path(os.environ.get("REPRO_BENCH_DIR", "artifacts")) / "BENCH_backend.json"

#: the N = 10^4 comparison population (fixed by the acceptance bar)
COMPARE_N = 10_000
COMPARE_PERIODS = 40

#: acceptance thresholds on the events/sec ratio
HEADLINE_TARGET = 50.0
TOKEN_FLOOR = 10.0

SCENARIOS = (
    ("proactive", dict(strategy="proactive")),
    ("simple", dict(strategy="simple", capacity=10)),
    ("generalized", dict(strategy="generalized", spend_rate=10, capacity=20)),
    ("randomized", dict(strategy="randomized", spend_rate=10, capacity=20)),
)

LARGE_N = 100_000
LARGE_PERIODS = 20


def _config(n: int, periods: int, backend: str, **strategy) -> ExperimentConfig:
    return ExperimentConfig(
        app="push-gossip", n=n, periods=periods, seed=1, backend=backend, **strategy
    )


def _row(result) -> dict:
    return {
        "elapsed_seconds": result.elapsed,
        "events_processed": result.events_processed,
        "events_per_second": (
            result.events_processed / result.elapsed if result.elapsed else 0.0
        ),
        "messages_per_node_per_period": result.messages_per_node_per_period,
    }


def test_backend_scaling_artifact(benchmark):
    scenarios = {}
    ratios = {}
    for name, strategy in SCENARIOS:
        event = run_experiment(_config(COMPARE_N, COMPARE_PERIODS, "event", **strategy))
        vectorized = run_experiment(
            _config(COMPARE_N, COMPARE_PERIODS, "vectorized", **strategy)
        )
        event_row, vector_row = _row(event), _row(vectorized)
        ratio = (
            vector_row["events_per_second"] / event_row["events_per_second"]
            if event_row["events_per_second"]
            else 0.0
        )
        ratios[name] = ratio
        scenarios[name] = {
            "event": event_row,
            "vectorized": vector_row,
            "events_per_second_ratio": ratio,
        }

    # The scale demonstration: one N = 10^5 vectorized-only run (the
    # event engine would need minutes for the same cell).
    large = benchmark.pedantic(
        lambda: run_experiment(
            _config(
                LARGE_N,
                LARGE_PERIODS,
                "vectorized",
                strategy="randomized",
                spend_rate=10,
                capacity=20,
            )
        ),
        rounds=1,
        iterations=1,
    )

    document = {
        "format": "repro-bench-backend-v1",
        "n": COMPARE_N,
        "periods": COMPARE_PERIODS,
        "headline_target_ratio": HEADLINE_TARGET,
        "scenarios": scenarios,
        "large_scale": {"n": LARGE_N, "periods": LARGE_PERIODS, **_row(large)},
    }
    ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    ARTIFACT.write_text(json.dumps(document, indent=2), encoding="utf-8")

    print(f"\nbackend scaling at N={COMPARE_N:,} ({COMPARE_PERIODS} periods):")
    for name, cell in scenarios.items():
        print(
            f"  {name:<12} event {cell['event']['events_per_second']:>12,.0f} ev/s   "
            f"vectorized {cell['vectorized']['events_per_second']:>12,.0f} ev/s   "
            f"ratio {cell['events_per_second_ratio']:6.1f}x"
        )
    large_row = document["large_scale"]
    print(
        f"  N={LARGE_N:,} vectorized: {large_row['elapsed_seconds']:.2f}s, "
        f"{large_row['events_per_second']:,.0f} ev/s  (artifact: {ARTIFACT})"
    )

    assert large.events_processed > 0 and not large.metric.empty
    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        assert ratios["proactive"] >= HEADLINE_TARGET, (
            f"vectorized backend must clear {HEADLINE_TARGET:.0f}x the event "
            f"engine on the proactive scenario at N={COMPARE_N:,}; "
            f"measured {ratios['proactive']:.1f}x"
        )
        for name, ratio in ratios.items():
            assert ratio >= TOKEN_FLOOR, (
                f"{name}: expected >= {TOKEN_FLOOR:.0f}x, measured {ratio:.1f}x"
            )
