"""An in-memory span recorder for the benchmark's own calls into each layer.

A span is ``[name, start, end, parent, batch, items]``: ``parent`` is
the index of the span that was open when this one began (-1 at the
top), ``batch`` ties together the spans of one request batch or cell,
``items`` is how many decisions / groups / events the span covered.
Nothing is written until :meth:`Recorder.dump`. Spans inside
``src/repro`` are a later issue; these wrap public functions from the
outside.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Dict, List

NAME, START, END, PARENT, BATCH, ITEMS = range(6)


class Recorder:
    """Records nested spans; ``enabled=False`` makes every span a no-op."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[list] = []
        self._open: List[int] = []

    def span(self, name: str, batch: int = 0, items: int = 1) -> "_Span":
        return _Span(self, name, batch, items)

    def self_seconds(self) -> List[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def per_item(self) -> Dict[str, List[float]]:
        """Self seconds per item, one entry per span, grouped by span name."""
        grouped: Dict[str, List[float]] = defaultdict(list)
        for span, own in zip(self.spans, self.self_seconds()):
            grouped[span[NAME]].append(own / span[ITEMS])
        return grouped

    def dump(self, path: Path) -> None:
        fields = ("name", "start", "end", "parent", "batch", "items")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps([dict(zip(fields, span)) for span in self.spans]),
            encoding="utf-8",
        )


class _Span:
    __slots__ = ("recorder", "name", "batch", "items", "index")

    def __init__(self, recorder: Recorder, name: str, batch: int, items: int):
        self.recorder = recorder
        self.name = name
        self.batch = batch
        self.items = items

    def __enter__(self) -> None:
        recorder = self.recorder
        if not recorder.enabled:
            return
        stack = recorder._open
        self.index = len(recorder.spans)
        span = [self.name, 0.0, 0.0, stack[-1] if stack else -1, self.batch, self.items]
        recorder.spans.append(span)
        stack.append(self.index)
        span[START] = perf_counter()  # last, so set-up is not in the span

    def __exit__(self, *exc) -> None:
        ended = perf_counter()  # first, so tear-down is not in the span
        recorder = self.recorder
        if recorder.enabled:
            recorder.spans[recorder._open.pop()][END] = ended
