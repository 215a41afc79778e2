"""Cross-commit reply pin for the limiter's batch core.

``GOLDEN`` was computed on commit a6c7a2d — the *parent* of the PR that
split ``_decide_batch`` into a table pass and an account pass (each key
decided once per batch, uniforms taken at a position's rank in its shard
group, no draw block for a deterministic kernel) — with
``python tests/test_serve_limiter_golden.py`` and committed unchanged.
Every later change to the batch core that claims only a speed-up must
reproduce it: the same ``try_acquire_frames`` bytes, the same counters
and the same per-key account state and LRU order, for every registered
strategy, on one shard and on eight.

The schedule is arithmetic, not drawn, so it does not depend on the
interpreter's ``random`` module: batches that repeat five hot keys,
batches that cycle forty keys through a 16-key table (on one shard a key
is evicted and re-created inside one batch; on eight a shard holds two
keys, so nearly every arrival evicts), one flag for a whole batch and a
flag per request — graded (float) ones included, after batches a
deterministic kernel decides without drawing — a repeated ``now``,
negative time steps and long idle gaps; each cell runs from full
accounts and from the paper's cold start.
"""

import hashlib

import pytest

from repro.registry import strategies as strategy_registry
from repro.serve import ManualClock, TokenAccountLimiter

STRATEGY_PARAMS = {
    "proactive": {},
    "simple": {"capacity": 5},
    "generalized": {"spend_rate": 3, "capacity": 6},
    "randomized": {"spend_rate": 3, "capacity": 6},
    "graded-generalized": {"spend_rate": 3, "capacity": 6},
    "graded-randomized": {"spend_rate": 3, "capacity": 6},
    "reactive": {},
}

#: (time step, batch size, distinct keys cycled, flags) per round; flags
#: is one bool for the batch, "mixed" (a bool per request), "graded" (a
#: bool per request with floats sprinkled in) or "half" (0.5 per request)
ROUNDS = (
    (0.0, 24, 5, True),
    (0.4, 70, 40, "mixed"),
    (1.0, 33, 5, False),
    (-0.75, 48, 40, True),
    (2.5, 64, 40, "graded"),
    (0.125, 9, 5, "mixed"),
    (0.0, 50, 5, True),
    (3.0, 90, 40, "graded"),
    (-1.5, 17, 5, "graded"),
    (0.625, 1, 40, True),
    (7.0, 120, 40, "mixed"),
    (0.25, 40, 5, "half"),
)

CELLS = [
    (name, shards, start)
    for name in sorted(STRATEGY_PARAMS)
    for shards in (1, 8)
    for start in ("full", "cold")
]


def batch(round_index, size, distinct, flags):
    keys = [
        f"key-{(7 * i + i * i // 5 + round_index) % distinct}" for i in range(size)
    ]
    if flags == "half":
        return keys, [0.5] * size
    if flags in ("mixed", "graded"):
        useful = [(i + round_index) % 3 != 0 for i in range(size)]
        if flags == "graded":
            for i in range(size):
                if i % 11 == 5:
                    useful[i] = 0.5
                elif i % 17 == 3:
                    useful[i] = 0.25
        return keys, useful
    return keys, flags


def fingerprint(name, shards, start):
    limiter = TokenAccountLimiter(
        name,
        period=1.0,
        clock=ManualClock(),
        seed=11,
        shards=shards,
        max_keys=16,
        initial_tokens=0 if start == "cold" else None,
        **STRATEGY_PARAMS[name],
    )
    stream = hashlib.sha256()
    now = 10.0
    for round_index, (step, size, distinct, flags) in enumerate(ROUNDS):
        now += step
        keys, useful = batch(round_index, size, distinct, flags)
        stream.update(limiter.try_acquire_frames(keys, useful, now=now))
    state = [
        [
            (
                key,
                entry.account.balance,
                entry.ticks_granted,
                entry.account.granted,
                entry.account.spent,
                entry.anchor,
                entry.last_now,
                entry.last_proactive,
            )
            for key, entry in shard.entries.items()  # LRU order
        ]
        for shard in limiter._table.shards
    ]
    stats = limiter.stats()
    return (
        stream.hexdigest(),
        (stats["admitted"], stats["rejected"], stats["evictions"]),
        hashlib.sha256(repr(state).encode()).hexdigest(),
    )


#: (strategy, shards, start) -> (sha256 of the reply stream, (admitted,
#: rejected, evictions), sha256 of the surviving keys' state in LRU order)
GOLDEN = {
    ('generalized', 1, 'full'): (
        "ef46ae6e7b04c423357b4a5896a5e5db79e3b3012296089d8e77d7ac8b5b4484",
        (484, 82, 259),
        "ee0377f917dfafda496f8a96afe0bb766fa240e591cf12fc2de21f10937af6b0",
    ),
    ('generalized', 1, 'cold'): (
        "70fa90c5cb717adc2ce8c0b52856f0a227bb4ce5d002684b31cf97edd3e8df64",
        (20, 546, 259),
        "481e4ba8c0044917ceddbebd2eaa1ed279e1dd9c2deb4b463252c91d108160aa",
    ),
    ('generalized', 8, 'full'): (
        "dad344208c41f77cc74608b8bdded5ceabe006cbef9b0c8c86b98a73b9bb1fe0",
        (533, 33, 284),
        "c2454c448871b1f82da91b1655684eae21b4b5f9d4bc94ff058f0d9138545c69",
    ),
    ('generalized', 8, 'cold'): (
        "4d2141f9971fea28d1eaf9ea691d1c2ab7cbaa036d1e523a1102f275cb828a60",
        (29, 537, 284),
        "328766bedf77060c7455e9b8335bba68c77db769aada62be15597fe27e15420b",
    ),
    ('graded-generalized', 1, 'full'): (
        "fc80f1cdc6a991f68eb81096d88ee7e7518b79046f2926f12e09165be01b9e3b",
        (480, 86, 259),
        "c2ddb31dc51d560ae8b6d2de7c478040ad2d7bdac47caaadf1d1c7d0fea8c49d",
    ),
    ('graded-generalized', 1, 'cold'): (
        "980b881b4d67f3f04bd40826d68c6652955d84484f586d72b59f251e13523e06",
        (19, 547, 259),
        "481e4ba8c0044917ceddbebd2eaa1ed279e1dd9c2deb4b463252c91d108160aa",
    ),
    ('graded-generalized', 8, 'full'): (
        "86f66a119faaeecb8c26a4dc5434b486f96b8b3102c5c9873b18da0bdc92f4d3",
        (530, 36, 284),
        "951d9ffc86d1894b26997c0b691952d563dddcd0e59184403a9b6b5fa7f13eff",
    ),
    ('graded-generalized', 8, 'cold'): (
        "ea17b034e1d41186d1e7d8510085b7211ae13e8db5a4d1ff71ec489581df2fa5",
        (28, 538, 284),
        "328766bedf77060c7455e9b8335bba68c77db769aada62be15597fe27e15420b",
    ),
    ('graded-randomized', 1, 'full'): (
        "71b43a004a003178d7448635aa012450572261035553b97901663c363afbba2b",
        (473, 93, 259),
        "08af95ed0752cbd55769c6fcc875effc7836cbafa7e88c4e0a6eb5af97670f8d",
    ),
    ('graded-randomized', 1, 'cold'): (
        "ddb3a9d734854f8d5611cfb5219c801aef3272d731f852a6ee4ff7668e520ff5",
        (16, 550, 259),
        "481e4ba8c0044917ceddbebd2eaa1ed279e1dd9c2deb4b463252c91d108160aa",
    ),
    ('graded-randomized', 8, 'full'): (
        "361332436da24ba3e40f6c9996b29dfe851121d8d13397da1e0667ce4d546071",
        (518, 48, 284),
        "07dd1473fc553a259b5315b35fcbe164aa97dd5f7bd6bae5556d955f8c6d760a",
    ),
    ('graded-randomized', 8, 'cold'): (
        "caa5767f6570f9c5d388bd61e4294f2cdc24b0a26153ad8172d6885ba15d9ad2",
        (21, 545, 284),
        "328766bedf77060c7455e9b8335bba68c77db769aada62be15597fe27e15420b",
    ),
    ('proactive', 1, 'full'): (
        "4ff58c7ec216a9690c786bd2a712890260ed2bba196a51d9bc0bf32128ecc44c",
        (292, 274, 259),
        "1ca0c6ce61303811d58a7e38cfe6d162936515049f35b3d78117218e269216e5",
    ),
    ('proactive', 1, 'cold'): (
        "4ff58c7ec216a9690c786bd2a712890260ed2bba196a51d9bc0bf32128ecc44c",
        (292, 274, 259),
        "1ca0c6ce61303811d58a7e38cfe6d162936515049f35b3d78117218e269216e5",
    ),
    ('proactive', 8, 'full'): (
        "873ed9f2b740fb64d2007ce98b10f6bb07a626d98381aae8e1dbcb7b0cb0bea5",
        (323, 243, 284),
        "04c90ff3bea466ea3594926d47bfbc6bcdcb33d43b39bb387d47a246fba57ff2",
    ),
    ('proactive', 8, 'cold'): (
        "873ed9f2b740fb64d2007ce98b10f6bb07a626d98381aae8e1dbcb7b0cb0bea5",
        (323, 243, 284),
        "04c90ff3bea466ea3594926d47bfbc6bcdcb33d43b39bb387d47a246fba57ff2",
    ),
    ('randomized', 1, 'full'): (
        "40bdb6dedc725764b3c536b3a89baf01eadaf1894b9e11f2f8166b727f1940ef",
        (476, 90, 259),
        "55c3231819ddb6f46c2c22606f3d376838c7f96d8d2c35b8d0258e9603905a02",
    ),
    ('randomized', 1, 'cold'): (
        "ddb3a9d734854f8d5611cfb5219c801aef3272d731f852a6ee4ff7668e520ff5",
        (16, 550, 259),
        "481e4ba8c0044917ceddbebd2eaa1ed279e1dd9c2deb4b463252c91d108160aa",
    ),
    ('randomized', 8, 'full'): (
        "fd712bd8dd7000ebedc1a7ffe98c2dd8924a6f55bc81e5fa29775d9f147292e2",
        (520, 46, 284),
        "a8245c50d5b503ac4500fb05f2f237b34240447f52873e116a92925d18bbee15",
    ),
    ('randomized', 8, 'cold'): (
        "ed2681df311b93856e1aefbfb93d5ea8e00efc6530be3d96afda58a6ccbf3041",
        (24, 542, 284),
        "328766bedf77060c7455e9b8335bba68c77db769aada62be15597fe27e15420b",
    ),
    ('reactive', 1, 'full'): (
        "a90e26311e0aa5f2945bb880a53e61f38391c5ea5f69c97a50d2b5460a83ff9f",
        (418, 148, 259),
        "59ce4f65ecf6096bdb8cd365df3de9b7160d9911a92ac1179bb116f7187c844f",
    ),
    ('reactive', 1, 'cold'): (
        "a90e26311e0aa5f2945bb880a53e61f38391c5ea5f69c97a50d2b5460a83ff9f",
        (418, 148, 259),
        "59ce4f65ecf6096bdb8cd365df3de9b7160d9911a92ac1179bb116f7187c844f",
    ),
    ('reactive', 8, 'full'): (
        "39661caffe1980cd3546eec84ea9f99a5bd6d3689fa3e56d0ed0294bba8bbe82",
        (418, 148, 284),
        "8a96744843ef6e678b86465d9103134c4a661fd1dab13ed8cfe96e916e55862b",
    ),
    ('reactive', 8, 'cold'): (
        "39661caffe1980cd3546eec84ea9f99a5bd6d3689fa3e56d0ed0294bba8bbe82",
        (418, 148, 284),
        "8a96744843ef6e678b86465d9103134c4a661fd1dab13ed8cfe96e916e55862b",
    ),
    ('simple', 1, 'full'): (
        "f5805839d190cbebfc1721ec83afb52322335166c3c6406f7f9834465f815c95",
        (487, 79, 259),
        "01bafdf901e5c2cf8c9c964e5c12b3ccec90a3c92c662201bfb41e33938cccc0",
    ),
    ('simple', 1, 'cold'): (
        "03af1cca7ceb56b8626cef4beb32a022a58740d25fd738c108cad4689179e516",
        (22, 544, 259),
        "4a3be7b3455b915dbb88f25b32b4104a3baba9c326f3c8a1ffeaaa55283b0fa3",
    ),
    ('simple', 8, 'full'): (
        "d72d3ca6cbc571aef7227fe3b1c18b0897f8d2f6a288f7e97ab6b2e469584d6a",
        (535, 31, 284),
        "22f99220bdeee7d5f629ee5e930f5d4556d097804e3dd16b90add08e91345976",
    ),
    ('simple', 8, 'cold'): (
        "0e53e329966081973b9a2423f51459618f39be1df605cf834774cc5cb4ef532d",
        (35, 531, 284),
        "328766bedf77060c7455e9b8335bba68c77db769aada62be15597fe27e15420b",
    ),
}


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: "-".join(map(str, cell)))
def test_batch_core_reproduces_the_parent_commit(cell):
    assert fingerprint(*cell) == GOLDEN[cell]


def test_every_cell_is_pinned_and_the_schedule_covers_what_it_says():
    assert sorted(GOLDEN) == sorted(CELLS)
    assert set(STRATEGY_PARAMS) == set(strategy_registry.names())
    # round 1 on one shard: a key leaves the 16-key table and comes back
    keys, _ = batch(1, *ROUNDS[1][1:])
    seen = [i for i, key in enumerate(keys) if key == keys[0]]
    assert len(set(keys[seen[1] + 1 : seen[2]])) > 16
    assert any(isinstance(flag, float) for flag in batch(4, *ROUNDS[4][1:])[1])


if __name__ == "__main__":  # regenerate: PYTHONPATH=src python tests/test_serve_limiter_golden.py
    from golden import regenerate

    regenerate(CELLS, fingerprint)
