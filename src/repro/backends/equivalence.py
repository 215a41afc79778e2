"""The backend equivalence gate.

The vectorized backend is only trustworthy at N = 10^5 if it matches
the exact event engine where both can run — small N, every axis of the
scenario matrix. :func:`compare_backends` runs one configuration on
both engines and checks the *round-level aggregates* the paper's
figures are built from:

* **send rate** — data messages per node per period (the §4 headline:
  token accounts keep the rate at the proactive level);
* **quality curve** — the application metric, compared on the mean of
  the series tail (transients differ slot-to-slot; equilibria must
  agree);
* **burst audit** — the §3.4 bound must hold *exactly* on both engines
  (``audit_sends=True`` configurations only).

Timing is bulk-synchronous on one side and event-driven on the other,
so the comparison is statistical with explicit tolerances — but tight
enough to have teeth: an off-by-one token grant in the vectorized
kernel roughly doubles the send rate and trips the rate check
(``tests/test_backend_equivalence.py`` proves this negative path).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

from repro.experiments.runner import ExperimentResult


#: default tolerances on send-rate disagreement (relative + an absolute
#: floor for near-zero rates, e.g. the dying flooding reference)
RATE_RTOL = 0.15
RATE_ATOL = 0.012
#: default tolerances on the quality-curve tail mean
QUALITY_RTOL = 0.45
QUALITY_ATOL = 0.75


def _tail_mean(result: ExperimentResult) -> Optional[float]:
    """Mean of the second half of the metric series (the equilibrium)."""
    values = list(result.metric.values)
    if not values:
        return None
    tail = values[len(values) // 2 :]
    return sum(tail) / len(tail)


@dataclass
class EquivalenceReport:
    """Outcome of one two-backend comparison."""

    label: str
    event: ExperimentResult
    vectorized: ExperimentResult
    #: human-readable description of every failed check (empty = pass)
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every aggregate check passed."""
        return not self.failures

    def summary(self) -> str:
        """One-line digest for test output."""
        verdict = "OK" if self.ok else "FAIL[" + "; ".join(self.failures) + "]"
        return (
            f"{self.label}: event rate={self.event.messages_per_node_per_period:.3f} "
            f"vectorized rate={self.vectorized.messages_per_node_per_period:.3f} "
            f"-> {verdict}"
        )


def compare_backends(
    config,
    backend=None,
    rate_rtol: float = RATE_RTOL,
    rate_atol: float = RATE_ATOL,
    quality_rtol: float = QUALITY_RTOL,
    quality_atol: float = QUALITY_ATOL,
) -> EquivalenceReport:
    """Run ``config`` on both engines and compare round-level aggregates.

    Parameters
    ----------
    config:
        A :class:`~repro.scenarios.ScenarioSpec`; its ``backend`` field
        is overridden on each side.
    backend:
        The vectorized-side :class:`~repro.backends.base.SimulationBackend`
        instance to gate. ``None`` builds the registered one; the
        negative-path test passes a deliberately perturbed kernel here.
    rate_rtol, quality_rtol, quality_atol:
        Tolerances for the statistical checks (see module docstring).
    """
    from repro.backends.event import EventBackend
    from repro.backends.vectorized import VectorizedBackend

    if backend is None:
        backend = VectorizedBackend()
    event_result = EventBackend().run(replace(config, backend="event"))
    vector_result = backend.run(replace(config, backend="vectorized"))

    failures: List[str] = []
    event_rate = event_result.messages_per_node_per_period
    vector_rate = vector_result.messages_per_node_per_period
    rate_allowed = rate_atol + rate_rtol * abs(event_rate)
    if abs(vector_rate - event_rate) > rate_allowed:
        failures.append(
            f"send rate diverges: event {event_rate:.4f} vs "
            f"vectorized {vector_rate:.4f} (allowed ±{rate_allowed:.4f})"
        )

    event_quality = _tail_mean(event_result)
    vector_quality = _tail_mean(vector_result)
    if (event_quality is None) != (vector_quality is None):
        failures.append(
            f"quality curve presence differs: event {event_quality} vs "
            f"vectorized {vector_quality}"
        )
    elif event_quality is not None and vector_quality is not None:
        allowed = quality_atol + quality_rtol * abs(event_quality)
        if abs(vector_quality - event_quality) > allowed:
            failures.append(
                f"quality tail diverges: event {event_quality:.4f} vs "
                f"vectorized {vector_quality:.4f} (allowed ±{allowed:.4f})"
            )

    if event_result.ratelimit_violations:
        failures.append(
            f"event engine violated the §3.4 bound "
            f"({len(event_result.ratelimit_violations)} windows)"
        )
    if vector_result.ratelimit_violations:
        failures.append(
            f"vectorized engine violated the §3.4 bound "
            f"({len(vector_result.ratelimit_violations)} windows)"
        )

    return EquivalenceReport(
        label=config.label(),
        event=event_result,
        vectorized=vector_result,
        failures=failures,
    )
