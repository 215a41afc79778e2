"""Canonical content hashing for experiment cells.

A cell's result is a pure function of three things: the configuration
(a :class:`~repro.scenarios.ScenarioSpec`, which embeds the seed), the
per-cell task that turns the configuration into a result, and the
version of the code that computes it. :func:`cell_key` hashes exactly
those three into a hex digest used as the store address.

Canonicalisation rules:

* configurations serialize through ``dataclasses.asdict`` (or their own
  ``canonical_dict`` hook when they define one), tagged with the class
  name. There is one built-in configuration type, so a cell built by
  the flat-keyword ``ExperimentConfig(...)`` constructor and the equal
  hand-built spec share one key;
* the dict is rendered as minified JSON with sorted keys — tuples
  become arrays, floats use ``repr``-exact encoding, so equal
  configurations always produce byte-identical documents;
* the task contributes its ``module:qualname`` identity;
* :data:`RESULT_SCHEMA_VERSION` contributes the code-schema version —
  bump it whenever the shape or meaning of stored results changes, and
  every previously stored entry silently becomes a miss (``repro store
  gc`` then prunes the stale files).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Callable, Optional

#: Version of the stored-result schema. Part of every cell key: bumping
#: it invalidates all previously stored entries at once. Bump when the
#: fields of ``ExperimentResult`` / ``ScenarioSpec`` change shape or
#: meaning, or when a simulation change intentionally alters results for
#: identical configurations.
#:
#: History:
#:
#: * 2 — the ``backend`` axis joined the config surface (and
#:   ``NetworkStats`` grew ``lost_sender_offline``): every pre-backend
#:   entry was produced by what is now the ``"event"`` backend but is
#:   keyed without the axis, so it must never satisfy a post-backend
#:   lookup. ``repro store gc`` prunes the stale entries.
#: * 1 — initial store format.
RESULT_SCHEMA_VERSION = 2


def task_identity(task: Optional[Callable[..., Any]]) -> str:
    """The stable string identity of a per-cell task callable.

    ``None`` maps to the default task (the library's
    :func:`~repro.experiments.runner.run_experiment`), so callers that
    never customise the task need not import it just to name it.
    """
    if task is None:
        return "repro.experiments.runner:run_experiment"
    module = getattr(task, "__module__", "") or ""
    qualname = getattr(task, "__qualname__", None) or getattr(
        task, "__name__", repr(task)
    )
    return f"{module}:{qualname}"


def config_fingerprint(config: Any) -> dict:
    """A JSON-ready canonical dict identifying one configuration.

    Dataclass configurations (:class:`~repro.scenarios.ScenarioSpec`,
    or whatever a custom task is keyed by) are expanded recursively;
    anything else must provide a ``canonical_dict()`` method. The class
    name is embedded so distinct types with identical field values stay
    distinct.
    """
    hook = getattr(config, "canonical_dict", None)
    if callable(hook):
        return hook()
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        return {
            "kind": type(config).__name__,
            "fields": dataclasses.asdict(config),
        }
    raise TypeError(
        f"cannot fingerprint {type(config).__name__!r}: expected a dataclass "
        "config or an object with a canonical_dict() method"
    )


def canonical_json(document: Any) -> str:
    """Render a document as canonical (sorted, minified) JSON.

    The encoding is deterministic: dict keys are sorted, separators are
    minimal, tuples encode as arrays and floats keep ``repr`` precision,
    so equal documents always produce byte-identical text.
    """
    try:
        return json.dumps(document, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as error:
        raise ValueError(
            f"configuration is not canonically serializable: {error}"
        ) from error


def cell_key(
    config: Any,
    task: Optional[Callable[..., Any]] = None,
    schema_version: int = RESULT_SCHEMA_VERSION,
) -> str:
    """The content address of one experiment cell (a sha256 hex digest).

    Two cells share a key exactly when they have equal configurations
    (including the seed), the same per-cell task and the same code
    schema version — precisely the conditions under which the
    determinism contract guarantees bit-identical results.
    """
    document = {
        "schema_version": schema_version,
        "task": task_identity(task),
        "config": config_fingerprint(config),
    }
    return hashlib.sha256(canonical_json(document).encode("utf-8")).hexdigest()
