"""The harness against real processes: the null server, a cluster, quick runs."""

import json
import re
import subprocess
import sys

import numpy as np
import pytest

from perf import CHILD_ENV, ROOT, client, procs, workloads
from perf.measure import Calibrator

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: a printed figure: two spaces, the metric's name, its value
VALUE_LINE = re.compile(r"  [A-Za-z0-9_.-]+ +-?[0-9]")


@pytest.fixture
def plan():
    cores = procs.Cores.split()
    with Calibrator("interp", cores.bench) as calib:
        yield workloads.Plan(
            name="serve_hot", seed=1, seconds=0.2, setup_samples=1, trace=False,
            cores=cores, calib=calib,
        )  # fmt: skip


def test_driver_counts_one_response_per_request(plan):
    spec = workloads.SERVE["serve_hot"]
    with workloads.Sut(workloads.NULL_SERVER, spec, plan) as null:
        assert null.decisions == workloads.CONNECTIONS  # the set-up's first answers
        decisions, elapsed, latency = client.closed_loop(null.connections, 128, 0.1)
        assert decisions > 128 * workloads.CONNECTIONS and elapsed >= 0.1
        assert len(latency) == decisions and (latency > 0).all()
        for connection in null.connections:
            assert connection.sent == connection.received
        assert null.decisions == workloads.CONNECTIONS + decisions

        due = np.arange(1, 2001) / 20_000.0  # 2000 requests over 0.1 s
        latency, late, elapsed = client.open_loop(null.connections, due)
        assert len(latency) == len(late) == 2000
        assert (late >= 0).all() and (latency >= late).all()
        assert null.decisions == workloads.CONNECTIONS + decisions + 2000
        # the null server refuses everything, so no key was ever admitted
        assert sum(int(c.admitted.sum()) for c in null.connections) == 0
    assert null.child.process.poll() is not None


def test_paced_calibrator_times_one_window_against_the_null_server(plan):
    spec = workloads.SERVE["serve_paced"]
    with workloads.Sut(workloads.NULL_SERVER, spec, plan) as null:
        before = null.decisions
        calib = workloads.PacedCalibrator(null, np.random.default_rng(1), spec.rate)
        assert calib() > 0.0  # slowness: null-server median latency / PACED_REF_S
        assert null.decisions - before == int(spec.rate * workloads.PACED_WINDOW_S)


def test_a_lost_response_is_an_error(plan):
    spec = workloads.SERVE["serve_hot"]
    with workloads.Sut(workloads.NULL_SERVER, spec, plan) as null:
        connection = null.connections[0]
        connection.begin_window()
        connection.send_upto(connection.sent + 3, 0.0)
        with pytest.raises(AssertionError, match="requests but"):
            connection.settle_window()  # nothing was received yet


def test_stop_kills_router_and_workers(plan):
    spec = workloads.SERVE["cluster_hot"]
    with workloads.Sut(workloads.serve_argv(spec, 1), spec, plan) as cluster:
        members = cluster.members
        assert len(members) == 1 + spec.workers
        assert all(procs._running(pid) for pid in members)
        assert all(procs.cpu_seconds(pid) >= 0 for pid in members)
        assert procs.peak_rss_mb(members[-1]) > 1.0
    assert not any(procs._running(pid) for pid in members)


def test_stop_runs_when_the_body_raises(plan):
    spec = workloads.SERVE["serve_hot"]
    with pytest.raises(KeyboardInterrupt):
        with workloads.Sut(workloads.NULL_SERVER, spec, plan) as null:
            raise KeyboardInterrupt
    assert not procs._running(null.child.pid)


# ----------------------------------------------------------------------
def _quick(workload: str, trace: int):
    """``(names printed with a value, the result line)`` of one quick run."""
    done = subprocess.run(
        [sys.executable, "-m", "perf", "run", "--workload", workload, "--seed", "3",
         "--trace", str(trace), "--quick"],
        cwd=ROOT, env=CHILD_ENV, stdout=subprocess.PIPE, text=True, timeout=120,
    )  # fmt: skip
    assert done.returncode == 0, done.stdout
    lines = done.stdout.strip().splitlines()
    assert any("not comparable" in line for line in lines)
    printed = {line.split()[0] for line in lines[1:-1] if VALUE_LINE.match(line)}
    return printed, json.loads(lines[-1])


def test_quick_runs_emit_every_declared_name():
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

    _, result = _quick("sim_event", 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == end_to_end
    assert all(v["value"] > 0 for v in result["metrics"].values())

    # Between them these four exercise every layer: each prints only the
    # figures it measured, and each result line carries every name.
    measured = set()
    for workload in ("serve_paced", "cluster_hot", "sim_event", "sim_vectorized"):
        printed, result = _quick(workload, 1)
        assert {k: v["unit"] for k, v in result["metrics"].items()} == per_layer
        measured |= printed
    assert set(per_layer) <= measured
