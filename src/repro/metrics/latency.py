"""Wall-clock latency/percentile aggregation for the serving layer.

The simulation metrics sample virtual time through
:mod:`repro.metrics.collectors`; the serving layer measures *real*
request latencies. :class:`LatencyRecorder` accumulates per-request
samples and reduces them to the percentile summary the load generator
reports (p50/p95/p99 plus mean and max), with an admitted-over-time
:class:`~repro.metrics.series.TimeSeries` so flash-crowd runs show the
admission rate tracking the §3.4 bound through the burst.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

from repro.metrics.series import TimeSeries


def percentile(sorted_values: List[float], q: float) -> float:
    """The ``q``-th percentile (0-100) of pre-sorted values.

    Linear interpolation between closest ranks (the numpy default), so
    small sample counts still give stable p99s in tests.
    """
    if not sorted_values:
        raise ValueError("no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = (q / 100.0) * (len(sorted_values) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return sorted_values[low]
    weight = rank - low
    return sorted_values[low] * (1.0 - weight) + sorted_values[high] * weight


@dataclass
class LatencyRecorder:
    """Accumulates per-request outcomes and latencies.

    ``record(latency, admitted, at)`` is called once per completed
    request; ``at`` is the request's offset into the run (seconds), used
    to bucket the admitted-per-second series.
    """

    #: admitted-per-second bucketing interval
    bucket: float = 1.0
    latencies: List[float] = field(default_factory=list)
    admitted: int = 0
    rejected: int = 0
    _buckets: Dict[int, int] = field(default_factory=dict)

    def record(self, latency: float, admitted: bool, at: float = 0.0) -> None:
        self.latencies.append(latency)
        if admitted:
            self.admitted += 1
            self._buckets[int(at / self.bucket)] = (
                self._buckets.get(int(at / self.bucket), 0) + 1
            )
        else:
            self.rejected += 1

    def record_arrays(self, latencies, admitted, ats) -> None:
        """Columnar :meth:`record`: three aligned numpy arrays.

        The binary load generator parses responses with one vectorized
        pass per socket read; this keeps the recorder vectorized too.
        """
        import numpy as np

        self.latencies.extend(latencies.tolist())
        count = int(admitted.sum())
        self.admitted += count
        self.rejected += len(latencies) - count
        if count:
            indices = (ats[admitted] / self.bucket).astype(int)
            unique, counts = np.unique(indices, return_counts=True)
            buckets = self._buckets
            for index, bump in zip(unique.tolist(), counts.tolist()):
                buckets[index] = buckets.get(index, 0) + bump

    @property
    def total(self) -> int:
        return self.admitted + self.rejected

    def admitted_series(self) -> TimeSeries:
        """Admissions per bucket as a TimeSeries (times = bucket starts)."""
        series = TimeSeries()
        for index in sorted(self._buckets):
            series.append(index * self.bucket, self._buckets[index] / self.bucket)
        return series

    def summary(self) -> Dict[str, float]:
        """The JSON-ready reduction the load generator prints."""
        result: Dict[str, float] = {
            "requests": float(self.total),
            "admitted": float(self.admitted),
            "rejected": float(self.rejected),
            "admit_ratio": self.admitted / self.total if self.total else 0.0,
        }
        if self.latencies:
            ordered = sorted(self.latencies)
            result.update(
                latency_p50_ms=percentile(ordered, 50.0) * 1e3,
                latency_p95_ms=percentile(ordered, 95.0) * 1e3,
                latency_p99_ms=percentile(ordered, 99.0) * 1e3,
                latency_max_ms=ordered[-1] * 1e3,
                latency_mean_ms=sum(ordered) / len(ordered) * 1e3,
            )
        return result
