"""The NumPy property the vectorized backend's peer draw rests on.

On a uniform-degree overlay the scalar-bound draw
``rng.integers(0, k, size=m)`` is the stream the broadcast draw
``rng.integers(0, <m copies of k>)`` yields. Every stored result was
produced by the second form; the slot loop uses the first. A NumPy
release that separates the two must fail here, loudly, instead of
silently shifting every simulated number.

The other invariant — no RNG call moves — is what
``tests/test_vectorized_golden.py`` pins across commits.
"""

import numpy as np
import pytest

from repro.backends.vectorized import _PushGossipKernel
from repro.experiments.config import ExperimentConfig


# ----------------------------------------------------------------------
# scalar-bound draw == broadcast draw
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3, 123456789])
@pytest.mark.parametrize("k", [1, 2, 3, 20, 1000])
@pytest.mark.parametrize("m", [0, 1, 7, 50_000])
def test_scalar_bound_draw_is_the_broadcast_draw(seed, k, m):
    scalar_rng = np.random.default_rng(seed)
    broadcast_rng = np.random.default_rng(seed)
    scalar = scalar_rng.integers(0, k, size=m)
    broadcast = broadcast_rng.integers(0, np.full(m, k, dtype=np.int64))
    assert scalar.dtype == broadcast.dtype == np.int64
    assert np.array_equal(scalar, broadcast)
    # both generators stand at the same point of the stream afterwards
    assert scalar_rng.random() == broadcast_rng.random()


def test_interleaved_draws_stay_aligned():
    """The slot loop alternates uniform floats and bounded integers."""
    scalar_rng = np.random.default_rng(99)
    broadcast_rng = np.random.default_rng(99)
    for m in (5, 0, 1200, 3, 40_000, 1):
        assert np.array_equal(scalar_rng.random(m), broadcast_rng.random(m))
        assert np.array_equal(
            scalar_rng.integers(0, 20, size=m),
            broadcast_rng.integers(0, np.full(m, 20)),
        )


@pytest.mark.parametrize("n", [200, 5000])  # Overlay object / direct CSR wiring
def test_kernel_uniform_draw_picks_the_peers_the_csr_draw_picks(n):
    config = ExperimentConfig(
        app="push-gossip", strategy="simple", capacity=10, n=n, periods=1,
        seed=11, backend="vectorized",
    )
    sim = _PushGossipKernel(config)
    assert sim.out_degree == 20
    senders = np.random.default_rng(3).integers(0, n, size=3 * n)
    state = sim.rng.bit_generator.state
    fast = sim._draw_neighbor(senders)
    after_fast = sim.rng.bit_generator.state
    sim.rng.bit_generator.state = state
    sim.out_degree = 0  # the general CSR path: degrees[src], indptr[src]
    assert np.array_equal(sim._draw_neighbor(senders), fast)
    assert sim.rng.bit_generator.state == after_fast
