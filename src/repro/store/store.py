"""The on-disk content-addressed result store.

Layout (one directory per store, safe to rsync or throw away)::

    <root>/
        store.json              # format marker, written on first put
        entries/<key>.pkl       # one pickled entry per cell key

Each entry file is a self-describing pickled dict carrying the cell key,
the schema version, light metadata (label, seed, creation time) and the
full result object. Writes go through a temporary file plus
``os.replace``, so a killed process never leaves a torn entry behind —
the property that makes mid-suite crash/resume sound. Unreadable or
mismatched entries are treated as misses on read and as garbage by
:meth:`ResultStore.gc`.

Results round-trip through :mod:`pickle`, the same serialization the
process-pool suite runner already requires of every result, so a cache
hit reproduces the original :class:`~repro.experiments.runner.ExperimentResult`
bit-identically — including ``extras`` and any custom task payload.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.store.hashing import RESULT_SCHEMA_VERSION, cell_key, task_identity

PathLike = Union[str, Path]

#: name of the environment variable holding the default store path
STORE_ENV_VAR = "REPRO_STORE"

_STORE_FORMAT = "repro-store-v1"
_ENTRY_FORMAT = "repro-store-entry-v1"


class StoreMissError(RuntimeError):
    """Raised in offline mode when cells are missing from the store.

    ``repro report`` runs suites with ``offline=True``: every cell must
    come from the store, and this error (listing the missing cells)
    tells the user which producing command to run first.
    """

    def __init__(self, suite_name: str, missing: Sequence[Any], root: PathLike):
        labels = [
            getattr(config, "label", lambda: repr(config))() for config in missing
        ]
        preview = ", ".join(labels[:3]) + ("..." if len(labels) > 3 else "")
        super().__init__(
            f"store {root} is missing {len(missing)} cell(s) of suite "
            f"{suite_name!r} ({preview}); run the producing command with "
            f"--store first"
        )
        self.suite_name = suite_name
        self.missing = list(missing)
        self.root = Path(root)


@dataclass
class StoreEntry:
    """Metadata view of one stored cell (``repro store ls`` rows)."""

    key: str
    schema_version: int
    task: str
    label: str
    seed: int
    created_at: str
    path: Path
    #: light derived numbers for listings/diffs (final metric, sizes)
    summary: Dict[str, Any] = field(default_factory=dict)

    @property
    def stale(self) -> bool:
        """Whether this entry was written under an older schema version."""
        return self.schema_version != RESULT_SCHEMA_VERSION


class ResultStore:
    """A content-addressed store of experiment results on local disk.

    Parameters
    ----------
    root:
        Store directory; created lazily on the first :meth:`put`.
    schema_version:
        The code-schema version hashed into every key. Overriding the
        default is meant for tests (simulating a version bump) — normal
        callers must leave it at :data:`RESULT_SCHEMA_VERSION`.
    """

    def __init__(
        self, root: PathLike, schema_version: int = RESULT_SCHEMA_VERSION
    ) -> None:
        self.root = Path(root)
        self.schema_version = schema_version

    # ------------------------------------------------------------------
    @property
    def entries_dir(self) -> Path:
        """The directory holding one pickled file per cell."""
        return self.root / "entries"

    def key_for(self, config: Any, task: Optional[Callable[..., Any]] = None) -> str:
        """The content address of ``config`` under this store's schema."""
        return cell_key(config, task=task, schema_version=self.schema_version)

    def path_for_key(self, key: str) -> Path:
        """The entry file backing one cell key."""
        return self.entries_dir / f"{key}.pkl"

    # ------------------------------------------------------------------
    def get(
        self, config: Any, task: Optional[Callable[..., Any]] = None
    ) -> Optional[Any]:
        """The stored result for ``config``, or ``None`` on a miss.

        Corrupt, torn or key-mismatched entry files read as misses (the
        cell is simply recomputed and rewritten); the store never raises
        on bad cached data.
        """
        key = self.key_for(config, task=task)
        payload = self._load(self.path_for_key(key))
        if payload is None or payload.get("key") != key:
            return None
        return payload["result"]

    def contains(self, config: Any, task: Optional[Callable[..., Any]] = None) -> bool:
        """Whether a usable entry exists for ``config``."""
        return self.get(config, task=task) is not None

    def put(
        self,
        config: Any,
        result: Any,
        task: Optional[Callable[..., Any]] = None,
    ) -> str:
        """Persist one cell result; returns its key.

        The write is atomic (temp file + ``os.replace``): concurrent
        writers of the same key race benignly — both write identical
        bytes-equivalent entries — and a crash mid-write leaves either
        the old entry or none at all.
        """
        key = self.key_for(config, task=task)
        payload = {
            "format": _ENTRY_FORMAT,
            "key": key,
            "schema_version": self.schema_version,
            "task": task_identity(task),
            "label": self._label_of(config),
            "seed": getattr(config, "seed", 0),
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
            "result": result,
        }
        self._ensure_layout()
        target = self.path_for_key(key)
        temporary = target.with_suffix(f".tmp.{os.getpid()}")
        with temporary.open("wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(temporary, target)
        return key

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """The number of entry files currently on disk."""
        if not self.entries_dir.is_dir():
            return 0
        return sum(1 for _ in self.entries_dir.glob("*.pkl"))

    def keys(self) -> List[str]:
        """Every stored cell key, sorted."""
        if not self.entries_dir.is_dir():
            return []
        return sorted(path.stem for path in self.entries_dir.glob("*.pkl"))

    def entries(self) -> Iterator[StoreEntry]:
        """Iterate metadata for every readable entry, sorted by key.

        Unreadable files are skipped here (see :meth:`gc`, which removes
        them).
        """
        if not self.entries_dir.is_dir():
            return
        for path in sorted(self.entries_dir.glob("*.pkl")):
            payload = self._load(path)
            if payload is None:
                continue
            yield self._entry_of(path, payload)

    def gc(self, remove_all: bool = False) -> Tuple[int, int]:
        """Prune stale entries; returns ``(removed, kept)`` counts.

        Removes entries written under a different schema version (they
        can never hit again) plus unreadable files; ``remove_all=True``
        clears the store entirely.
        """
        removed = kept = 0
        if not self.entries_dir.is_dir():
            return (0, 0)
        # Orphaned temp files from writers killed mid-put are pure
        # garbage: os.replace never ran, so no entry references them.
        for leftover in sorted(self.entries_dir.glob("*.tmp.*")):
            leftover.unlink(missing_ok=True)
            removed += 1
        for path in sorted(self.entries_dir.glob("*.pkl")):
            payload = self._load(path)
            stale = (
                remove_all
                or payload is None
                or payload.get("schema_version") != self.schema_version
                or payload.get("key") != path.stem
            )
            if stale:
                path.unlink(missing_ok=True)
                removed += 1
            else:
                kept += 1
        return removed, kept

    # ------------------------------------------------------------------
    def _ensure_layout(self) -> None:
        self.entries_dir.mkdir(parents=True, exist_ok=True)
        marker = self.root / "store.json"
        if not marker.exists():
            marker.write_text(f'{{"format": "{_STORE_FORMAT}"}}\n', encoding="utf-8")

    @staticmethod
    def _label_of(config: Any) -> str:
        label = getattr(config, "label", None)
        if callable(label):
            return label()
        return repr(config)

    @staticmethod
    def _load(path: Path) -> Optional[dict]:
        try:
            with path.open("rb") as handle:
                payload = pickle.load(handle)
        except Exception:
            # Torn writes, foreign files, entries pickled against code
            # that no longer unpickles — all read as misses, never as
            # errors; gc() removes them.
            return None
        if not isinstance(payload, dict) or payload.get("format") != _ENTRY_FORMAT:
            return None
        return payload

    @staticmethod
    def _entry_of(path: Path, payload: dict) -> StoreEntry:
        result = payload.get("result")
        summary: Dict[str, Any] = {"digest": _result_digest(result)}
        metric = getattr(result, "metric", None)
        if metric is not None and getattr(metric, "empty", True) is False:
            summary["final_metric"] = metric.final()
        for attribute in ("data_messages", "events_processed"):
            value = getattr(result, attribute, None)
            if value is not None:
                summary[attribute] = value
        config = getattr(result, "config", None)
        for attribute in ("n", "periods"):
            value = getattr(config, attribute, None)
            if value is not None:
                summary[attribute] = value
        return StoreEntry(
            key=payload["key"],
            schema_version=payload.get("schema_version", -1),
            task=payload.get("task", ""),
            label=payload.get("label", ""),
            seed=payload.get("seed", 0),
            created_at=payload.get("created_at", ""),
            path=path,
            summary=summary,
        )


def _result_digest(result: Any) -> str:
    """Hash the deterministic content of a result (wall-clock excluded).

    Backs :func:`diff_stores`: two runs of the same configuration must
    digest equal even though their ``elapsed`` wall-clock differs, while
    any drift in the series, counters or extras must change the digest.
    Payloads without a ``metric`` (custom task results) digest their
    pickled bytes.
    """
    metric = getattr(result, "metric", None)
    if metric is None:
        try:
            blob = pickle.dumps(result, protocol=4)
        except Exception:
            blob = repr(result).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()
    tokens = getattr(result, "tokens", None)
    parts = [
        repr(list(metric.times)),
        repr(list(metric.values)),
        repr(list(tokens.times)) if tokens is not None else "None",
        repr(list(tokens.values)) if tokens is not None else "None",
        repr(getattr(result, "data_messages", None)),
        repr(getattr(result, "messages_per_node_per_period", None)),
        repr(getattr(result, "surviving_walks", None)),
        repr(sorted(getattr(result, "extras", {}).items())),
        repr(getattr(result, "events_processed", None)),
        repr(getattr(result, "network", None)),
    ]
    return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Resolution helpers (CLI / environment)
# ----------------------------------------------------------------------
def store_from_env() -> Optional[ResultStore]:
    """The store named by ``REPRO_STORE``, or ``None`` when unset."""
    raw = os.environ.get(STORE_ENV_VAR, "").strip()
    return ResultStore(raw) if raw else None


def resolve_store(path: Optional[PathLike]) -> Optional[ResultStore]:
    """Resolve an explicit ``--store`` path, falling back to ``REPRO_STORE``."""
    if path is not None:
        return ResultStore(path)
    return store_from_env()


# ----------------------------------------------------------------------
# Store comparison (``repro store diff``)
# ----------------------------------------------------------------------
def diff_stores(left: ResultStore, right: ResultStore) -> Dict[str, List[StoreEntry]]:
    """Compare two stores' grids by cell key.

    Returns four entry lists keyed ``only_left`` / ``only_right`` /
    ``differing`` / ``matching``: cells present on one side only, cells
    present on both sides whose deterministic result content disagrees
    (a determinism or code-drift red flag — wall-clock fields are
    excluded from the comparison), and cells that agree.
    """
    left_entries = {entry.key: entry for entry in left.entries()}
    right_entries = {entry.key: entry for entry in right.entries()}
    report: Dict[str, List[StoreEntry]] = {
        "only_left": [],
        "only_right": [],
        "differing": [],
        "matching": [],
    }
    for key in sorted(set(left_entries) | set(right_entries)):
        if key not in right_entries:
            report["only_left"].append(left_entries[key])
        elif key not in left_entries:
            report["only_right"].append(right_entries[key])
        elif left_entries[key].summary != right_entries[key].summary:
            report["differing"].append(left_entries[key])
        else:
            report["matching"].append(left_entries[key])
    return report
