"""Cross-commit result pin for the exact event backend.

``GOLDEN`` was computed on commit e6fd348 — the *parent* of the PR that
moved the engine to tuple heap entries, made ``Message`` a named tuple
and flattened the tick/send chain — with ``python tests/test_sim_golden.py``
and committed unchanged. Every later engine change that claims only a
speed-up must reproduce it: same number of events, same number of data
messages and a byte-identical metric series on every path the engine
has (plain timers, lazy cancellation, the loss and jitter streams, churn
with pull-on-rejoin).

``tests/test_worker_determinism.py`` says results do not depend on the
worker count; this file says they do not depend on the commit.
"""

import hashlib
import struct

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment

SMALL = dict(app="push-gossip", n=120, periods=30, seed=7)
TOKEN = dict(strategy="randomized", spend_rate=10, capacity=20)

CELLS = {
    # the four strategies of the `sim_event` benchmark workload
    "proactive": ExperimentConfig(strategy="proactive", **SMALL),
    "simple": ExperimentConfig(strategy="simple", capacity=10, **SMALL),
    "generalized": ExperimentConfig(
        strategy="generalized", spend_rate=10, capacity=20, **SMALL
    ),
    "randomized": ExperimentConfig(**TOKEN, **SMALL),
    # churn: online/offline transitions, offline ticks, pull on rejoin
    "flash-crowd": ExperimentConfig(
        scenario="flash-crowd", pull_on_rejoin=True, **TOKEN, **SMALL
    ),
    "trace": ExperimentConfig(scenario="trace", pull_on_rejoin=True, **TOKEN, **SMALL),
    # lazy cancellation: failed nodes stop their timers mid-run
    "cancel": ExperimentConfig(
        app="replication-repair",
        strategy="simple",
        capacity=10,
        n=120,
        periods=30,
        seed=7,
        fail_fraction=0.4,
    ),
    # the transport's own random streams
    "loss": ExperimentConfig(loss_rate=0.2, **TOKEN, **SMALL),
    "jitter": ExperimentConfig(transfer_jitter=0.5, **TOKEN, **SMALL),
}

#: name -> (events_processed, data_messages, sha256 of the metric series)
GOLDEN = {
    "proactive": (
        7559,
        3600,
        "e97fbdc6b3077504017707fdeb2299244dfafb94d4d7b36ebf764d486ca7e15e",
    ),
    "simple": (
        6938,
        2977,
        "d0a1855f79bf34b7725b03f8fa22502da46b458a469a061e6dfac084d00ff86b",
    ),
    "generalized": (
        6174,
        2212,
        "73e9ac3f6c75ced7b539fc58d57f8758858c6e6f0902807ba4c9767ebb3b7691",
    ),
    "randomized": (
        6072,
        2111,
        "e2ef57b6908a8cae0479e303b58d9d388d9d840a6f55777fd50703f718c4eeea",
    ),
    "flash-crowd": (
        4835,
        639,
        "ed2a3234c076ea74a30168e8344b0e23f3f71e4d971cceeb63909cc0a0a10948",
    ),
    "trace": (
        4920,
        943,
        "5124a3fed321ad8b6e20817a3b9e9fc2c735cd05587490daac0c0f40b7be1ce9",
    ),
    "cancel": (
        4737,
        1989,
        "236fc9a3875006f2ad5429f654c03904016f6903cd6bc5cefc3182370d07525c",
    ),
    "loss": (
        5954,
        1992,
        "5fa7872fee760c9020a2691a79cf8bbf0c60e8d5cdc7f812620f112779ce92e5",
    ),
    "jitter": (
        6119,
        2158,
        "9cf042604209fa514023b37be864f50a7877350d28e3da850812dbb6f1c38767",
    ),
}


def fingerprint(config: ExperimentConfig) -> tuple:
    result = run_experiment(config)
    series = b"".join(struct.pack("<dd", time, value) for time, value in result.metric)
    return (
        result.events_processed,
        result.data_messages,
        hashlib.sha256(series).hexdigest(),
    )


@pytest.mark.parametrize("name", sorted(CELLS))
def test_event_backend_reproduces_the_parent_commit(name):
    assert fingerprint(CELLS[name]) == GOLDEN[name]


def test_every_cell_is_pinned():
    assert sorted(GOLDEN) == sorted(CELLS)


if __name__ == "__main__":  # regenerate: PYTHONPATH=src python tests/test_sim_golden.py
    from golden import regenerate

    regenerate(CELLS, fingerprint)
