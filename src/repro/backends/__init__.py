"""Pluggable simulation backends (the fifth component registry).

One scenario, several execution engines. The ``backend`` axis on
:class:`~repro.scenarios.ScenarioSpec` names a registered entry here,
and :func:`repro.experiments.runner.run_experiment` dispatches to it:

* ``event`` — the exact discrete-event reference
  (:mod:`repro.backends.event`);
* ``vectorized`` — the bulk-synchronous NumPy engine for N ≥ 10^5
  populations (:mod:`repro.backends.vectorized`).

The backend name is part of the result-store cell identity, so cached
results can never leak between engines; the vectorized backend is gated
against the event engine's round-level aggregates by
:mod:`repro.backends.equivalence` before being trusted at scale.
"""

from __future__ import annotations

from repro.backends.base import BackendUnsupportedError, SimulationBackend
from repro.registry import backends

__all__ = [
    "BackendUnsupportedError",
    "SimulationBackend",
]


@backends.register(
    "event",
    summary="exact discrete-event reference: Algorithm 4 verbatim, any app",
)
def _event_backend() -> SimulationBackend:
    from repro.backends.event import EventBackend

    return EventBackend()


@backends.register(
    "vectorized",
    summary=(
        "bulk-synchronous NumPy engine: all N nodes per Δ-slot in array "
        "ops (push-gossip; N >= 1e5)"
    ),
)
def _vectorized_backend() -> SimulationBackend:
    from repro.backends.vectorized import VectorizedBackend

    return VectorizedBackend()
