"""The exact discrete-event backend (the reference engine).

A thin adapter: :class:`EventBackend` wraps the registry-driven
:class:`repro.experiments.runner.Experiment` builder behind the
:class:`~repro.backends.base.SimulationBackend` contract. It supports
every registered application, overlay, churn model and strategy — it
*is* the semantics the vectorized backend is gated against
(:mod:`repro.backends.equivalence`).
"""

from __future__ import annotations

from repro.backends.base import SimulationBackend


class EventBackend(SimulationBackend):
    """Run the scenario on the discrete-event engine (exact reference)."""

    name = "event"

    def run(self, spec):
        """Build and execute the experiment on the event engine."""
        # Imported here: the runner imports the scenario layer, which
        # validates backend names against the registry, which imports
        # this module — a cycle at import time, harmless at call time.
        from repro.experiments.runner import Experiment

        return Experiment(spec).run()
