"""Cross-commit result pin for the vectorized backend.

``GOLDEN`` was computed on commit df0d871 — the *parent* of the PR that
rewrote the slot loop's hot path (scalar-bound peer draws, index
selection) — with
``PYTHONPATH=src python tests/test_vectorized_golden.py`` and committed
unchanged. Every later change to ``backends/vectorized.py`` that claims
only a speed-up must reproduce it: same event, message and loss counts,
byte-identical metric and token series and byte-identical per-slot send
counts on every path the slot loop has (uniform-degree and general CSR
peer draws, rejection sampling with the exact fallback and the token
refund, carry-over tails, loss, tick credits, the slot-0 kick, a node
with no out-links). The two ``proactive-*`` cells at the end of
``CELLS`` were added later and pinned on commit 5f9cb3a, the parent of
the change that adopts a non-reacting kernel's hop with one scatter-max:
they cover that road after loss and churn, and tick credits under churn.

``tests/test_sim_golden.py`` is the same pin for the event backend.
"""

import hashlib
import struct

import numpy as np
import pytest

from repro.backends.vectorized import _PushGossipKernel
from repro.experiments.config import ExperimentConfig
from repro.overlay.graph import Overlay
from repro.overlay.kout import NUMPY_WIRING_MIN_N
from repro.registry import overlays

SINK_OVERLAY = "ring-with-sink-golden"

BASE = dict(app="push-gossip", backend="vectorized", seed=7, collect_tokens=True)
SMALL = dict(n=300, periods=25, **BASE)
#: above the NumPy wiring threshold: the straight-to-CSR k-out path, and
#: large enough (n // 512 > 0) for cascade tails to carry over a slot
LARGE = dict(n=NUMPY_WIRING_MIN_N + 104, periods=30, **BASE)
TOKEN = dict(strategy="randomized", spend_rate=10, capacity=20)
#: the four strategies of the ``sim_vectorized`` benchmark workload
STRATEGIES = {
    "proactive": dict(strategy="proactive"),
    "simple": dict(strategy="simple", capacity=10),
    "generalized": dict(strategy="generalized", spend_rate=10, capacity=20),
    "randomized": TOKEN,
}

#: name -> ``ExperimentConfig`` keyword arguments (built inside
#: :func:`fingerprint`, where the sink overlay is registered)
CELLS = {
    **{
        f"{name}-{size}": dict(**strategy, **shape)
        for name, strategy in STRATEGIES.items()
        for size, shape in (("small", SMALL), ("large", LARGE))
    },
    # overdraft, no capacity, the slot-0 bootstrap kick
    "reactive": dict(strategy="reactive", **SMALL),
    # C = 0: every tick sends, nothing is ever banked
    "capacity-0": dict(strategy="simple", capacity=0, **SMALL),
    # non-uniform out-degrees: the general CSR peer draw
    "watts-strogatz": dict(overlay="watts-strogatz", **TOKEN, **SMALL),
    # churn: rejection sampling, pull on rejoin, offline destinations
    "trace": dict(scenario="trace", pull_on_rejoin=True, **TOKEN, **SMALL),
    "trace-large": dict(scenario="trace", pull_on_rejoin=True, **TOKEN, **LARGE),
    "flash-crowd": dict(scenario="flash-crowd", pull_on_rejoin=True, **TOKEN, **SMALL),
    # carried-over tails meeting destinations that went offline meanwhile
    "flash-crowd-large": dict(
        scenario="flash-crowd", strategy="simple", capacity=10, **LARGE
    ),
    "no-pull": dict(scenario="flash-crowd", pull_on_rejoin=False, **TOKEN, **SMALL),
    # three out-links, 30 % online: senders without an online peer, the
    # exact fallback after the rejection rounds, refunds and re-banking
    "flash-crowd-sparse": dict(
        scenario="flash-crowd",
        out_degree=3,
        strategy="generalized",
        spend_rate=5,
        capacity=10,
        **SMALL,
    ),
    "trace-watts-strogatz": dict(
        scenario="trace", overlay="watts-strogatz", loss_rate=0.2, **TOKEN, **SMALL
    ),
    "loss": dict(loss_rate=0.2, **TOKEN, **SMALL),
    "period-spread": dict(period_spread=0.3, **TOKEN, **SMALL),
    "audit": dict(audit_sends=True, **TOKEN, **SMALL),
    "audit-large": dict(audit_sends=True, **TOKEN, **LARGE),
    # a trailing node without out-links, with and without churn
    "sink": dict(
        overlay=SINK_OVERLAY, strategy="simple", capacity=5, **{**SMALL, "n": 40}
    ),
    "sink-churn": dict(
        overlay=SINK_OVERLAY,
        scenario="flash-crowd",
        strategy="simple",
        capacity=5,
        **{**SMALL, "n": 40},
    ),
    # a kernel that cannot react adopts each hop whole: after the loss
    # filter, under churn (the offline filter runs) and the NumPy wiring
    "proactive-flash-crowd-loss-large": dict(
        scenario="flash-crowd", loss_rate=0.2, strategy="proactive", **LARGE
    ),
    # tick credits under churn: the proactive phase's per-round path
    "proactive-trace-period-spread": dict(
        scenario="trace", period_spread=0.3, strategy="proactive", **SMALL
    ),
}

#: name -> (events_processed, data_messages, (sent, delivered, lost_offline,
#: lost_dropped, lost_sender_offline), sha256 of the metric series, of the
#: token series, and of the per-slot send counts where audited)
GOLDEN = {
    "proactive-small": (
        15250,
        7500,
        (7500, 7500, 0, 0, 0),
        "90a63c2673a16725089790a8b3f03b7b8e0ca7417957a32e55bd908406b0fbd7",
        "379f388db66878688f0537f6cdac6e3e24d9e16e4f3d1f0438d9b85b369542b7",
        None,
    ),
    "proactive-large": (
        252300,
        126000,
        (126000, 126000, 0, 0, 0),
        "9dc7d0c31c3ea87889ba98ab2183d6aac32441c66aaa8f7c2f33fde9a8daa092",
        "489baff8b1ed78feab85924d1caaffb5e47333b5319d3fc53cb531832d35a596",
        None,
    ),
    "simple-small": (
        13787,
        6037,
        (6037, 6037, 0, 0, 0),
        "971e4f01c5f5379c77b10def899aab43b4bf9c37e52a4ba16ffc9fc2a7eb9eb3",
        "ae52e2143a41c9d336c49db0748cd621989f30b857e0025e323ab102fe8935f0",
        None,
    ),
    "simple-large": (
        231970,
        105678,
        (105678, 105670, 0, 0, 0),
        "4aeafb76dccb677cec95b7c46b6e21f73c1295372a3edde87ce3a512730f0c10",
        "d3101fd444870b9470c4840d6d89839abc73465fbb7aa150f20e87a16fd4002a",
        None,
    ),
    "generalized-small": (
        11225,
        3475,
        (3475, 3475, 0, 0, 0),
        "acc2e4242654f27f7ac47438174180c46a4ecfa073f92b448aaedd1c98ea8224",
        "e104e01c09c11044efe3195a281915f907209ce6c3d713d293225f8fb01f3666",
        None,
    ),
    "generalized-large": (
        211297,
        85002,
        (85002, 84997, 0, 0, 0),
        "2fe168736f36a5f424cbf5ffe23900727b0cb7ef78226dc0c5743f7f4475f448",
        "a688996eae506895bd6672d3540c862ea94162ea523c79ad3c0d78db9cfb6f25",
        None,
    ),
    "randomized-small": (
        11716,
        3966,
        (3966, 3966, 0, 0, 0),
        "6d2e7e188514c3ef5e01f0ef9460d1d70a34976edc3bc9dc90df37e741ad5185",
        "374acf4306916ede73f2d1212d920831f770b01062f9872bd9a6fb499b4a4ac0",
        None,
    ),
    "randomized-large": (
        204155,
        77863,
        (77863, 77855, 0, 0, 0),
        "86c116555235f6515158e81a003ffa7983d6d6750a69e5826165a2965d2be86e",
        "e09985de00cd9530598a3f0c4b994acdd7b32607f428701f4e71e58141bf1b50",
        None,
    ),
    "reactive": (
        8129,
        379,
        (379, 379, 0, 0, 0),
        "f12c67b8739994a4615c8d389010740a95d9243e4cd39100c722828ba0cf7613",
        "2be9e37494c69d518da5dedba84dff0b3d3b63961847045f42ab0e13489a51f6",
        None,
    ),
    "capacity-0": (
        15250,
        7500,
        (7500, 7500, 0, 0, 0),
        "90a63c2673a16725089790a8b3f03b7b8e0ca7417957a32e55bd908406b0fbd7",
        "379f388db66878688f0537f6cdac6e3e24d9e16e4f3d1f0438d9b85b369542b7",
        None,
    ),
    "watts-strogatz": (
        10912,
        3162,
        (3162, 3162, 0, 0, 0),
        "89abb5a63ba65a4bd02acef7d60c4d9725918ad4333a3538f0f77daa4966cc1e",
        "021e065cf93cba0ff9b020e2fcfd27c28ad5f744b1c0c2a600a245216f00f80c",
        None,
    ),
    "trace": (
        9604,
        1833,
        (1836, 1836, 0, 0, 0),
        "d151d3d2e5911545569620707ec7be495d0b4ec983bf482f52c7e54079f11c99",
        "70048ae5f6742e5b99157b8186376e2119d7bca738646d6e0f9bc2e61933c843",
        None,
    ),
    "trace-large": (
        163477,
        36674,
        (36784, 36776, 0, 0, 0),
        "a2416a058a992e0d350758626d8c9f61b93c0a5a564a666f322091ca2457de24",
        "38156b5d6c09bc263fb9b1cce23303c48de73b97086ee379e298cf1da1393db3",
        None,
    ),
    "flash-crowd": (
        9547,
        1197,
        (1397, 1397, 0, 0, 0),
        "e99f1c1b1a7a2ac65daa499b960edab286c2093704c84c00db625b85c2c78867",
        "39d1c4e8f9fb04350ebb2f268ccaa808298041a0611e69ae6882c7ce0aef9d51",
        None,
    ),
    "flash-crowd-large": (
        176631,
        41922,
        (44730, 44715, 9, 0, 0),
        "7400a8729b764d75cab638436b844bc75ddcb22f4eefde1b982fb34f7a8248ee",
        "2f19d03f1059d1464b2dca924d899c1da36e7079f3148d44129fc214467fa3df",
        None,
    ),
    "no-pull": (
        9315,
        1165,
        (1165, 1165, 0, 0, 0),
        "6522ac59104f432ede58537e4c72d3f15a0ec8856a16c0c12e0ccd11e9a58381",
        "a1ad263fae452f73163922f531050e950bbc3c1621eb309de4724ac9b921499f",
        None,
    ),
    "flash-crowd-sparse": (
        9611,
        1270,
        (1461, 1461, 0, 0, 0),
        "76889e538db468ba11bea4458d876e4d0bdcbd2e6b7a95da4faa076b80980ac4",
        "76e85c86a554c6563da3d04680a22d8370adcc818fed6bda5996510a8f33fb14",
        None,
    ),
    "trace-watts-strogatz": (
        8623,
        1089,
        (1092, 855, 0, 237, 0),
        "c3dae0d6fd04286b6207e2541f98c522bdc44f8509beca7f317b9dae82d3ce21",
        "4f48dd758eb404ff69aad2662c9dfd404bfb7dfaf849bba4be32c2585ba5615e",
        None,
    ),
    "loss": (
        10523,
        3462,
        (3462, 2773, 0, 689, 0),
        "e2ec76d984bd6974b7f4e3800547be3848d3fc58eb8a187be4f501c9573c1166",
        "cd6f1ff4acee1aafd6ce5247022d9c7e8a23c3f63048f560d86e9c7268d18c76",
        None,
    ),
    "period-spread": (
        11769,
        4019,
        (4019, 4019, 0, 0, 0),
        "da66779a549868bf0cca7395e1d4907dcb7cf313860c24db6d49d1299d5111ee",
        "0d5cc39cfce01f953f78694acc82b65a64643cf5b4b9ff6726654e4cca7b98bf",
        None,
    ),
    "audit": (
        11716,
        3966,
        (3966, 3966, 0, 0, 0),
        "6d2e7e188514c3ef5e01f0ef9460d1d70a34976edc3bc9dc90df37e741ad5185",
        "374acf4306916ede73f2d1212d920831f770b01062f9872bd9a6fb499b4a4ac0",
        "e0085f72a42b7d8a608f877cc7ac0c5bb6f9417828023b4ca53831169ae72302",
    ),
    "audit-large": (
        204155,
        77863,
        (77863, 77855, 0, 0, 0),
        "86c116555235f6515158e81a003ffa7983d6d6750a69e5826165a2965d2be86e",
        "e09985de00cd9530598a3f0c4b994acdd7b32607f428701f4e71e58141bf1b50",
        "a694c482e15c0877e43e3be80505a5b9e95196af262a4565be6db39dce115a21",
    ),
    "sink": (
        2210,
        960,
        (960, 960, 0, 0, 0),
        "1ef9a2747124f6234510df52b5088793fa3e66eb254983883d78af8816ced462",
        "990eaf06df29f8c611d8b88f0358daedb0f06c0521ad46e8f31df62fd6485a03",
        None,
    ),
    "sink-churn": (
        1649,
        328,
        (345, 345, 0, 0, 0),
        "5d08301225b28c992a95ac902b69c66328b12bdfda461a8650099cfca8ea55f0",
        "a7e7f68b88ba29101102830e258bffc6f33f44b5177f802d09e4df647ca7b488",
        None,
    ),
    "proactive-flash-crowd-loss-large": (
        181146,
        58731,
        (61539, 49230, 0, 12309, 0),
        "3c8ef522ef730c263e8dfdf990c8907b6ee692d13692a17152005801cc6becde",
        "489baff8b1ed78feab85924d1caaffb5e47333b5319d3fc53cb531832d35a596",
        None,
    ),
    "proactive-trace-period-spread": (
        11278,
        3507,
        (3510, 3510, 0, 0, 0),
        "9ebf18f04e7625f977ce4615fe4c6480f5486ade644b15606cc833115d23d204",
        "379f388db66878688f0537f6cdac6e3e24d9e16e4f3d1f0438d9b85b369542b7",
        None,
    ),
}


def _ring_with_sink(n, rng):
    return Overlay([[(i + 1) % n] for i in range(n - 1)] + [[]])


def _series_hash(series) -> str:
    packed = b"".join(struct.pack("<dd", time, value) for time, value in series)
    return hashlib.sha256(packed).hexdigest()


def fingerprint(cell: dict) -> tuple:
    overlays.register(SINK_OVERLAY, summary="test-only ring, last node a sink")(
        _ring_with_sink
    )
    try:
        sim = _PushGossipKernel(ExperimentConfig(**cell))
        sim.run()
    finally:
        # leave the catalog as tests asserting the built-in set expect it
        overlays._entries.pop(SINK_OVERLAY, None)
    stats = sim.stats
    sends = None
    if sim.slot_sends is not None:
        sends = hashlib.sha256(
            np.stack(sim.slot_sends).astype("<i8").tobytes()
        ).hexdigest()
    return (
        sim.events_processed,
        stats.by_kind.get("data", 0),
        (
            stats.sent,
            stats.delivered,
            stats.lost_offline,
            stats.lost_dropped,
            stats.lost_sender_offline,
        ),
        _series_hash(sim.metric_series),
        _series_hash(sim.token_series),
        sends,
    )


@pytest.mark.parametrize("name", sorted(CELLS))
def test_vectorized_backend_reproduces_the_parent_commit(name):
    assert fingerprint(CELLS[name]) == GOLDEN[name]


def test_every_cell_is_pinned():
    assert sorted(GOLDEN) == sorted(CELLS)


if __name__ == "__main__":  # regenerate: PYTHONPATH=src python tests/test_vectorized_golden.py
    from golden import regenerate

    regenerate(CELLS, fingerprint)
