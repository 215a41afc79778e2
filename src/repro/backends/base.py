"""The simulation-backend contract.

A *backend* is an execution engine for one fully specified scenario: it
takes a :class:`~repro.scenarios.ScenarioSpec` and produces an
:class:`~repro.experiments.runner.ExperimentResult` with the same shape
regardless of how the simulation was carried out. Two backends ship
built in:

* ``event`` — the exact discrete-event reference
  (:mod:`repro.backends.event`, wrapping
  :class:`repro.experiments.runner.Experiment`): Algorithm 4 verbatim,
  per-message latency, per-node phases. The ground truth every other
  backend is gated against.
* ``vectorized`` — the bulk-synchronous NumPy engine
  (:mod:`repro.backends.vectorized`): advances all N nodes one Δ-slot
  at a time with array operations, trading per-message timing fidelity
  for two to three orders of magnitude in throughput, which is what
  makes N ≥ 10^5 populations simulable.

Backends are registered in :data:`repro.registry.backends` and selected
through the ``backend`` field of the spec. The backend name is
part of the cell identity (it is hashed into the result-store key), so
results produced by different engines can never collide in a store.

Every backend must uphold the determinism contract: the same
configuration (including seed and backend name) produces a bit-identical
result on every run, at any worker count.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - types only, avoids import cycles
    from repro.experiments.runner import ExperimentResult
    from repro.scenarios import ScenarioSpec


class BackendUnsupportedError(ValueError):
    """A backend cannot execute the requested scenario.

    Raised (as a usage error, not a crash) when a scenario uses a
    feature outside the backend's supported envelope — e.g. the
    vectorized backend only implements the push-gossip application.
    The message names the unsupported feature and the backend that can
    run it, so the fix is always "switch backend or drop the knob".
    """


class SimulationBackend(ABC):
    """One simulation execution engine (see the module docstring)."""

    #: registry name (matches the registration by convention)
    name: str = "abstract"

    @abstractmethod
    def run(self, spec: "ScenarioSpec") -> "ExperimentResult":
        """Execute the scenario ``spec`` names; ``result.config`` is ``spec``."""
