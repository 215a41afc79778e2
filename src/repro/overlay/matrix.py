"""Weight matrices for chaotic asynchronous iteration (§2.4).

The paper computes "the dominant eigenvector of a weighted neighborhood
matrix ... calculating the eigenvector of the normalized adjacency matrix
itself". The Lubachevsky–Mitra framework requires a non-negative
irreducible matrix with spectral radius exactly one.

We use the column-normalized adjacency matrix: ``A[i, k] = 1 / outdeg(k)``
for every link ``k → i``. This matrix is column-stochastic, hence has
spectral radius 1, and it is irreducible whenever the overlay is strongly
connected — both preconditions of the convergence theorem. The ground
truth dominant eigenvector is computed offline with scipy's sparse
eigensolver and serves as the reference for the angle metric.

scipy is imported inside the functions that use it: ``repro/__init__``
reaches this module, and a ``repro serve`` process that never builds a
matrix should not pay ≈ 0.2 s of start-up for it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.overlay.graph import Overlay

if TYPE_CHECKING:
    import scipy.sparse as sp


def column_normalized_matrix(overlay: Overlay) -> sp.csr_matrix:
    """Build the column-stochastic weight matrix of an overlay.

    ``A[i, k] = 1 / outdeg(k)`` if the overlay has a link ``k -> i``, else
    0. Every node must have at least one out-link (a dangling column would
    break stochasticity, and such a node could never propagate its value).
    """
    import scipy.sparse as sp

    n = overlay.n
    rows, cols, vals = [], [], []
    for k in range(n):
        targets = overlay.out_neighbors(k)
        if not targets:
            raise ValueError(f"node {k} has no out-links; matrix would be deficient")
        weight = 1.0 / len(targets)
        for i in targets:
            rows.append(i)
            cols.append(k)
            vals.append(weight)
    matrix = sp.csr_matrix(
        (np.asarray(vals), (np.asarray(rows), np.asarray(cols))), shape=(n, n)
    )
    return matrix


def is_irreducible(overlay: Overlay) -> bool:
    """True if the overlay is strongly connected (matrix irreducible)."""
    import scipy.sparse as sp
    import scipy.sparse.csgraph as csgraph

    n = overlay.n
    rows = []
    cols = []
    for src, dst in overlay.edges():
        rows.append(src)
        cols.append(dst)
    adjacency = sp.csr_matrix(
        (np.ones(len(rows)), (np.asarray(rows), np.asarray(cols))), shape=(n, n)
    )
    count, _labels = csgraph.connected_components(
        adjacency, directed=True, connection="strong"
    )
    return count == 1


def dominant_eigenvector(matrix: sp.spmatrix, tol: float = 1e-10) -> np.ndarray:
    """Dominant eigenvector of a non-negative matrix, normalized to unit length.

    Uses scipy's implicitly restarted Arnoldi (``eigs``) and falls back to
    straightforward power iteration for matrices too small for ARPACK.
    The returned vector is real, unit-norm, and sign-fixed so that its
    largest-magnitude component is positive (eigenvectors are only defined
    up to sign; a canonical sign keeps the angle metric stable).
    """
    n = matrix.shape[0]
    if n <= 2:
        dense = np.asarray(matrix.todense(), dtype=float)
        eigenvalues, eigenvectors = np.linalg.eig(dense)
        index = int(np.argmax(np.abs(eigenvalues)))
        vector = np.real(eigenvectors[:, index])
    else:
        import scipy.sparse.linalg as spla

        try:
            # A fixed starting vector keeps ARPACK bit-deterministic (its
            # default v0 is drawn from numpy's global RNG, which would
            # wobble the reference at the tolerance level run-to-run and
            # break the bit-identical determinism contract).
            start = np.full(n, 1.0 / np.sqrt(n))
            _values, vectors = spla.eigs(
                matrix.astype(float), k=1, which="LM", tol=tol, v0=start
            )
            vector = np.real(vectors[:, 0])
        except (spla.ArpackNoConvergence, spla.ArpackError):
            vector = _power_iteration(matrix, tol)
    vector = vector / np.linalg.norm(vector)
    pivot = int(np.argmax(np.abs(vector)))
    if vector[pivot] < 0:
        vector = -vector
    return vector


def _power_iteration(
    matrix: sp.spmatrix, tol: float, max_iterations: int = 100_000
) -> np.ndarray:
    """Plain power iteration fallback (used when ARPACK stalls)."""
    n = matrix.shape[0]
    vector = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(max_iterations):
        nxt = matrix @ vector
        norm = np.linalg.norm(nxt)
        if norm == 0:
            raise ValueError("matrix annihilated the iterate; not irreducible")
        nxt = nxt / norm
        if np.linalg.norm(nxt - vector) < tol:
            return nxt
        vector = nxt
    return vector


def angle_to(vector: np.ndarray, reference: np.ndarray) -> float:
    """Angle in radians between two vectors (sign-insensitive).

    This is the paper's convergence metric for chaotic iteration: "the
    angle (or cosine distance) between the approximation of the
    eigenvector and the actual eigenvector". Zero means a perfect
    solution. The absolute value of the cosine is used because an
    eigenvector's sign is arbitrary.
    """
    norm_v = np.linalg.norm(vector)
    norm_r = np.linalg.norm(reference)
    if norm_v == 0 or norm_r == 0:
        return float(np.pi / 2)
    cosine = abs(float(np.dot(vector, reference)) / (norm_v * norm_r))
    return float(np.arccos(min(1.0, cosine)))
