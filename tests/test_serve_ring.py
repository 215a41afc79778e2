"""Stable hashing and the consistent-hash ring: the cluster's routing core.

Two claims carry the multi-process cluster's correctness:

1. :func:`repro.serve.ring.stable_hash` is a pure function of the key
   bytes — identical across interpreter restarts and ``PYTHONHASHSEED``
   values — so the router and every worker's shard table agree on key
   placement forever. The golden values below pin the function itself:
   if the hash ever changes, persisted expectations (and any rolling
   cluster upgrade) would silently reshuffle every key.
2. Removing one of ``W`` ring members remaps *only that member's keys*
   (about ``1/W`` of the space) and never moves a key between two
   survivors — the failure-remap contract the router relies on to keep
   the §3.4 burst bound local to the dead worker's key range.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.ring import HashRing, stable_hash
from repro.serve.table import ShardedTable

# ----------------------------------------------------------------------
# stable_hash: pinned golden values
# ----------------------------------------------------------------------

#: regression pins — recompute only for a deliberate, breaking format
#: change (it reshuffles every deployed cluster's key placement)
GOLDEN_HASHES = {
    "alpha": 11099342189553124947,
    "beta": 12551039221781777427,
    "gamma": 17692412228044146680,
    "key0": 2600391952077980608,
}

GOLDEN_SEEDED = {
    "alpha": 3156713447692859461,
    "key0": 848079023173332410,
}

#: shard placement of key0..key11 on an 8-shard table — pinned so a
#: table rebuilt after an interpreter restart routes identically
GOLDEN_SHARDS_8 = [0, 6, 2, 6, 5, 0, 3, 5, 3, 4, 7, 6]


def test_stable_hash_matches_golden_values():
    for key, value in GOLDEN_HASHES.items():
        assert stable_hash(key) == value
    for key, value in GOLDEN_SEEDED.items():
        assert stable_hash(key, seed=7) == value


def test_stable_hash_accepts_bytes_like_input():
    assert stable_hash(b"alpha") == stable_hash("alpha")
    assert stable_hash(memoryview(b"alpha")) == stable_hash("alpha")
    assert stable_hash("héllo") == stable_hash("héllo".encode("utf-8"))


def test_stable_hash_seed_gives_independent_functions():
    assert stable_hash("alpha", seed=1) != stable_hash("alpha")
    assert stable_hash("alpha", seed=1) != stable_hash("alpha", seed=2)
    # the seed is masked to 64 bits, not rejected
    assert stable_hash("alpha", seed=2**70 + 3) == stable_hash("alpha", seed=3)


def test_stable_hash_survives_interpreter_restarts():
    """The same keys hash identically under fresh, differently-salted
    interpreters — the property builtin ``hash()`` lacks."""
    script = (
        "from repro.serve.ring import stable_hash\n"
        "from repro.serve.table import ShardedTable\n"
        "t = ShardedTable(shards=8, max_keys=64)\n"
        "print([stable_hash(k) for k in ('alpha', 'beta', 'gamma', 'key0')])\n"
        "print([t.shard_index('key%d' % i) for i in range(12)])\n"
    )
    outputs = []
    for hash_seed in ("0", "1", "12345"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1] == outputs[2]
    hashes, shards = outputs[0].splitlines()
    assert eval(hashes) == [
        GOLDEN_HASHES[k] for k in ("alpha", "beta", "gamma", "key0")
    ]
    assert eval(shards) == GOLDEN_SHARDS_8


def test_sharded_table_pins_shard_assignment():
    table = ShardedTable(shards=8, max_keys=64)
    assert [table.shard_index(f"key{i}") for i in range(12)] == GOLDEN_SHARDS_8
    # memoized second lookup agrees, and shard_for honours the index
    for i in range(12):
        key = f"key{i}"
        assert table.shard_index(key) == GOLDEN_SHARDS_8[i]
        assert table.shard_for(key) is table.shards[GOLDEN_SHARDS_8[i]]


def test_sharded_table_single_shard_routes_everything_to_zero():
    table = ShardedTable(shards=1, max_keys=8)
    assert all(table.shard_index(f"k{i}") == 0 for i in range(20))


# ----------------------------------------------------------------------
# HashRing: basic contract
# ----------------------------------------------------------------------

def test_ring_owner_is_deterministic_and_a_member():
    ring = HashRing(["w0", "w1", "w2"], replicas=96, seed=1)
    owners = [ring.owner(f"key{i}") for i in range(8)]
    assert owners == ["w1", "w0", "w2", "w0", "w0", "w1", "w2", "w1"]
    rebuilt = HashRing(["w2", "w0", "w1"], replicas=96, seed=1)
    assert [rebuilt.owner(f"key{i}") for i in range(8)] == owners


def test_ring_edge_cases():
    with pytest.raises(LookupError):
        HashRing().owner("k")
    with pytest.raises(ValueError):
        HashRing(replicas=0)
    ring = HashRing(["w0"])
    with pytest.raises(ValueError):
        ring.add("w0")
    with pytest.raises(KeyError):
        ring.remove("w9")
    assert ring.owner("anything") == "w0"
    assert "w0" in ring and "w1" not in ring
    assert len(ring) == 1 and ring.members == ("w0",)


# ----------------------------------------------------------------------
# HashRing: the failure-remap property
# ----------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(
    workers=st.integers(min_value=2, max_value=6),
    victim=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_ring_removal_remaps_only_the_victims_keys(workers, victim, seed):
    """Removing one of W members moves exactly its keys — survivors keep
    every key they owned, and the moved share stays near ``K/W``."""
    victim %= workers
    names = [f"w{i}" for i in range(workers)]
    keys = [f"key{i}" for i in range(2000)]
    ring = HashRing(names, replicas=96, seed=seed)
    before = {key: ring.owner(key) for key in keys}
    ring.remove(names[victim])
    after = {key: ring.owner(key) for key in keys}

    moved = {key for key in keys if before[key] != after[key]}
    owned_by_victim = {key for key in keys if before[key] == names[victim]}
    # 1) exactly the victim's keys move, nothing between survivors
    assert moved == owned_by_victim
    # 2) every moved key lands on a live survivor
    assert all(after[key] != names[victim] for key in moved)
    # 3) the victim's share concentrates near K/W: ceil(K/W) + 50% slack
    #    (96 replicas keep member shares within a few percent of fair)
    assert len(moved) <= math.ceil(len(keys) / workers) * 1.5


def test_ring_add_back_restores_previous_ownership():
    """Member points are a pure function of (name, seed), so removing and
    re-adding a member restores the exact pre-failure placement."""
    ring = HashRing(["w0", "w1", "w2"], replicas=64, seed=9)
    keys = [f"key{i}" for i in range(500)]
    before = {key: ring.owner(key) for key in keys}
    ring.remove("w1")
    ring.add("w1")
    assert {key: ring.owner(key) for key in keys} == before
