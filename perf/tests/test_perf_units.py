"""The harness's own arithmetic: spans, normalisation, percentiles, verdicts."""

import json
import os
import re
import statistics
import subprocess
from time import sleep

import pytest

from perf import ROOT, workloads
from perf import __main__ as cli
from perf.compare import compare_sets, verdict, worsening
from perf.layers import SPAN_METRICS
from perf.measure import (
    CALIB_REF_S,
    MIN_STEADY,
    Calibrator,
    Windows,
    iqr_share,
    percentile,
    stolen_ticks,
    top_percentile,
)
from perf.spans import END, START, Recorder

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def test_self_time_is_span_minus_direct_children():
    recorder = Recorder()
    with recorder.span("drain", batch=7, items=4):
        with recorder.span("parse", batch=7, items=4):
            with recorder.span("inner", batch=7, items=2):
                pass
        with recorder.span("encode", batch=7, items=4):
            pass
    # Replace the clock readings by exact ones: drain 0..10, parse 1..5
    # (inner 2..3), encode 6..9.
    for span, (start, end) in zip(recorder.spans, [(0, 10), (1, 5), (2, 3), (6, 9)]):
        span[START], span[END] = float(start), float(end)
    assert [span[3] for span in recorder.spans] == [-1, 0, 1, 0]  # parents
    assert recorder.self_seconds() == [10 - 4 - 3, 4 - 1, 1, 3]
    per_item = recorder.per_item()
    assert per_item["drain"] == [3 / 4]
    assert per_item["inner"] == [1 / 2]


def test_disabled_recorder_records_nothing():
    recorder = Recorder(enabled=False)
    with recorder.span("drain"):
        pass
    assert recorder.spans == []


def test_dump_writes_named_fields(tmp_path):
    recorder = Recorder()
    with recorder.span("store.put", batch=3, items=1):
        pass
    recorder.dump(tmp_path / "deep" / "trace.json")
    (span,) = json.loads((tmp_path / "deep" / "trace.json").read_text())
    assert span["name"] == "store.put" and span["parent"] == -1 and span["batch"] == 3
    assert span["end"] >= span["start"]


# ----------------------------------------------------------------------
# normalisation
# ----------------------------------------------------------------------
def test_window_figures_scale_by_the_injected_calibration():
    # The machine runs at half, then a third of reference speed: a
    # window sees the mean of the readings on either side of it.
    readings = iter([2.0, 2.0, 2.0, 4.0])
    windows = Windows(calib=lambda: next(readings))
    work = iter([(1000.0, 0.5, 8.0), (900.0, 0.5, 9.0)])
    windows.measure(0.0, lambda: next(work))  # zero seconds: one window
    assert len(windows.items) == 1
    windows.measure(0.0, lambda: next(work))
    first, second = windows.items
    assert first.raw_rate == 2000.0 and first.speed == 2.0
    assert first.rate == 4000.0 and first.latency == 4.0
    assert second.speed == pytest.approx(3.0) and second.rate == pytest.approx(1800.0 * 3.0)
    assert second.latency == pytest.approx(3.0)
    assert windows.ops == 1900.0 and windows.elapsed == 1.0


def test_neighbouring_windows_share_a_calibration():
    readings = [1.0, 3.0, 1.0]
    calls = []

    def calib():
        calls.append(1)
        return readings[len(calls) - 1]

    def window():
        if windows.items:  # the second window outlasts the phase
            sleep(0.06)
        return 10.0, 1.0, 1.0

    windows = Windows(calib=calib)
    windows.measure(0.05, window)
    assert [w.speed for w in windows.items] == [2.0, 2.0]
    assert len(calls) == 3


def test_windows_with_steal_are_set_aside_when_enough_are_left():
    # A window owns the steal from the start of the calibration before
    # it to the end of the one after it; the counter is read before the
    # first calibration, after each window and after each later calibration.
    def phase(ticks):
        counter = iter(ticks)
        windows = Windows(calib=lambda: 1.0, stolen=lambda: next(counter))
        work = iter(range((len(ticks) - 1) // 2))
        with pytest.raises(StopIteration):  # how this test ends a phase
            windows.measure(3600.0, lambda: (float(next(work)), 1.0, 1.0))
        return windows

    # steal during the calibration between windows 0 and 1 spoils both
    spoiled = phase([0, 0, 1, 1, 1])
    assert [w.stolen for w in spoiled.items] == [1, 1]

    hit = phase([0, 0, 0, 3, 3] + [3] * (2 * MIN_STEADY))  # inside window 1 only
    assert [w.stolen for w in hit.items[:3]] == [0, 3, 0]
    assert [w.ops for w in hit.steady()] == [
        float(i) for i in range(len(hit.items)) if i != 1
    ]

    # too few clean windows: the least disturbed ones make up the number
    ticks = [0]
    for taken in (4, 0, 1, 9, 2, 7, 3):  # steal inside window 0, 1, 2, ...
        ticks += [ticks[-1] + taken] * 2
    few = phase(ticks)
    assert [w.stolen for w in few.items] == [4, 0, 1, 9, 2, 7, 3]
    assert sorted(w.stolen for w in few.steady()) == [0, 1, 2, 3, 4][:MIN_STEADY]


def test_stolen_ticks_reads_the_steal_column():
    assert stolen_ticks(os.sched_getaffinity(0)) >= 0
    assert stolen_ticks(frozenset()) == 0


def test_calibrators_report_a_positive_slowness():
    for kind in CALIB_REF_S:
        with Calibrator(kind, min(os.sched_getaffinity(0))) as calib:
            assert calib() > 0.0


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "count, expected",
    [(5, 50.0), (20, 50.0), (100, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
     (10_000, 99.9), (99_999, 99.9), (100_000, 99.99), (5_000_000, 99.99)],
)  # fmt: skip
def test_top_percentile_keeps_ten_samples_beyond_it(count, expected):
    assert top_percentile(count) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50.0) == 51.0
    assert percentile(values, 99.0) == 100.0
    assert percentile([3.0], 99.99) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_iqr_share_matches_statistics_quantiles():
    values = [9.0, 10.0, 10.5, 11.0, 12.0, 10.2, 9.8, 10.1, 10.9, 9.5]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert iqr_share(values) == pytest.approx((q3 - q1) / median)


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def test_worsening_follows_the_metric_direction():
    assert worsening(100.0, 90.0, "higher") == pytest.approx(0.10)
    assert worsening(100.0, 90.0, "lower") == pytest.approx(-0.10)


def test_verdicts():
    tight = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(tight, [v * 0.97 for v in tight], "higher", 0.10) == "ok"
    assert verdict(tight, [v * 0.80 for v in tight], "higher", 0.10) == "regressed"
    assert verdict(tight, [v * 1.30 for v in tight], "lower", 0.10) == "regressed"
    noisy = [100.0, 130.0, 70.0, 115.0, 85.0]
    # spread over the bound and overlapping runs: the medians decide nothing
    assert verdict(noisy, [v * 0.95 for v in noisy], "higher", 0.10) == "unresolved"
    assert verdict(noisy, [v * 0.85 for v in noisy], "higher", 0.10) == "unresolved"
    # ... unless every run of one side beats every run of the other
    assert verdict(noisy, [v * 0.40 for v in noisy], "higher", 0.10) == "regressed"
    assert verdict(noisy, [v * 2.50 for v in noisy], "higher", 0.10) == "ok"


# ----------------------------------------------------------------------
# failed runs
# ----------------------------------------------------------------------
def test_a_workload_that_breaks_off_still_ends_with_a_failed_result(monkeypatch, capsys):
    def lost(plan):
        raise ConnectionError("server closed the connection")

    monkeypatch.setitem(workloads.RUNNERS, "sim_event", lost)
    allowed = os.sched_getaffinity(0)
    try:
        status = cli.main(["run", "--workload", "sim_event", "--quick"])
    finally:
        os.sched_setaffinity(0, allowed)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert result == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def _collected(monkeypatch, out, stdout, returncode, trace=0):
    """The runs ``run --repeat 2 --out`` saves when every child prints ``stdout``."""
    monkeypatch.setattr(
        cli.subprocess, "run",
        lambda argv, **_: subprocess.CompletedProcess(argv, returncode, stdout),
    )  # fmt: skip
    monkeypatch.setattr(cli, "environment", dict)
    argv = ["run", "--workload", "serve_hot", "--repeat", "2", "--trace", str(trace)]
    status = cli.main(argv + ["--out", str(out)])
    return status, json.loads((out / "results.json").read_text())["sets"][-1]


def test_a_child_that_dies_without_a_result_is_a_failed_run(monkeypatch, tmp_path):
    line = {"correct": True, "attempted": 9, "failed": 0, "metrics": {}}
    _, parent = _collected(monkeypatch, tmp_path, json.dumps(line), 0)
    status, change = _collected(
        monkeypatch, tmp_path, "Traceback (most recent call last):\nKilled", -9
    )
    assert status != 0
    assert [run["correct"] for run in change["runs"]] == [False, False]
    assert all(run["failed"] == run["attempted"] == 1 for run in change["runs"])
    assert compare_sets(BENCHMARK, parent, change) == 1  # more failed runs: regressed


def test_saved_traced_runs_keep_only_what_was_measured(monkeypatch, tmp_path):
    def entry(value):
        return {"value": value, "unit": "us"}

    line = {
        "correct": True, "attempted": 9, "failed": 0,
        "metrics": {"serve.table.evictions": entry(0.0), "client.late_p99_ms": entry(0.0)},
    }  # fmt: skip
    stdout = "\n".join(
        ["== serve_hot (traced)", "  serve.table.evictions   0 count"]
        + [cli.MEASURED + json.dumps({"serve.table.evictions": 0.0, "setup_s": 0.5})]
        + [json.dumps(line)]
    )
    _, saved = _collected(monkeypatch, tmp_path, stdout, 0, trace=1)
    for run in saved["runs"]:
        assert run["metrics"] == {"serve.table.evictions": entry(0.0)}  # a measured zero
        assert run["measured"] == {"serve.table.evictions": 0.0, "setup_s": 0.5}


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_file_meets_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }  # fmt: skip
    assert BENCHMARK["paths"] == ["perf"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    names = []
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 10 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert metric["better"] in ("lower", "higher")
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
        names.append(metric["name"])
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_every_probe_metric_is_declared():
    declared = {metric["name"] for metric in BENCHMARK["per_layer"]}
    assert set(SPAN_METRICS) <= declared
