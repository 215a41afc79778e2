"""Tests for the serving layer's latency recorder."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.latency import LatencyRecorder, percentile

samples = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),  # latency
        st.booleans(),  # admitted
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),  # at
    ),
    min_size=0,
    max_size=200,
)


@settings(max_examples=100, deadline=None)
@given(samples=samples, bucket=st.sampled_from((0.25, 1.0, 3.0)), split=st.data())
def test_record_arrays_is_record_one_by_one(samples, bucket, split):
    """The columnar path leaves the recorder exactly where the scalar one
    does, however the samples are split into bursts."""
    scalar = LatencyRecorder(bucket=bucket)
    for latency, admitted, at in samples:
        scalar.record(latency, admitted, at)
    columnar = LatencyRecorder(bucket=bucket)
    cut = split.draw(st.integers(min_value=0, max_value=len(samples)))
    for burst in (samples[:cut], samples[cut:]):
        columnar.record_arrays(
            np.array([latency for latency, _, _ in burst], dtype=np.float64),
            np.array([admitted for _, admitted, _ in burst], dtype=bool),
            np.array([at for _, _, at in burst], dtype=np.float64),
        )
    assert columnar.admitted == scalar.admitted
    assert columnar.rejected == scalar.rejected
    assert columnar.total == len(samples)
    assert columnar.latencies == scalar.latencies
    assert list(columnar.admitted_series()) == list(scalar.admitted_series())
    assert columnar.summary() == scalar.summary()


def test_admitted_series_is_per_bucket_rate():
    recorder = LatencyRecorder(bucket=0.5)
    for at, admitted in ((0.1, True), (0.4, True), (0.45, False), (1.2, True)):
        recorder.record(0.001, admitted, at)
    # bucket 0 = [0, 0.5): 2 admits over 0.5 s; bucket 2 = [1.0, 1.5): 1 admit
    assert list(recorder.admitted_series()) == [(0.0, 4.0), (1.0, 2.0)]


def test_empty_summary_has_no_latency_keys():
    summary = LatencyRecorder().summary()
    assert summary == {
        "requests": 0.0,
        "admitted": 0.0,
        "rejected": 0.0,
        "admit_ratio": 0.0,
    }


def test_summary_reports_milliseconds():
    recorder = LatencyRecorder()
    for latency, admitted in ((0.001, True), (0.003, True), (0.002, False)):
        recorder.record(latency, admitted)
    summary = recorder.summary()
    assert summary["requests"] == 3.0
    assert summary["admit_ratio"] == pytest.approx(2 / 3)
    assert summary["latency_p50_ms"] == pytest.approx(2.0)
    assert summary["latency_max_ms"] == pytest.approx(3.0)
    assert summary["latency_mean_ms"] == pytest.approx(2.0)


@pytest.mark.parametrize(
    "values",
    [
        [7.0],
        [1.0, 2.0],
        [0.5, 0.5, 9.0],
        [1.0, 2.0, 4.0, 8.0, 16.0],
        [0.1 * index**2 for index in range(11)],
    ],
)
@pytest.mark.parametrize("q", [0.0, 1.0, 25.0, 50.0, 95.0, 99.0, 100.0])
def test_percentile_interpolates_like_numpy(values, q):
    assert percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_percentile_refuses_nonsense():
    with pytest.raises(ValueError, match="no samples"):
        percentile([], 50.0)
    with pytest.raises(ValueError, match="must be in"):
        percentile([1.0], 101.0)
