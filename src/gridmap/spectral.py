"""Symmetric eigendecomposition and the trailing-eigenvector embedding.

The k eigenvectors belonging to the k smallest eigenvalues of the graph
Laplacian minimize Tr(H' L H) over orthonormal N x k frames H, so their
rows are the natural low-dimensional embedding of the meters. Eigenvector
signs are fixed deterministically: each vector is flipped, if needed, so
its largest-magnitude entry (lowest index on ties) is positive.

``embed`` solves only for the eigenpairs 0..k it reads; ``eigendecompose``
pays for all N.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InputError, NumericalError


@dataclass
class EigenDecomposition:
    eigenvalues: np.ndarray     # (N,) ascending
    eigenvectors: np.ndarray    # (N, N) columns, orthonormal, sign-fixed


@dataclass
class SpectralEmbedding:
    X: np.ndarray               # (N, k) rows are meter embeddings
    eigenvalues: np.ndarray     # (k,) the k smallest
    next_eigenvalue: float      # eigenvalue k+1, for gap diagnostics


def fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-|entry| (first on ties) is positive."""
    v = vectors.copy()
    idx = np.abs(v).argmax(axis=0)
    flip = v[idx, np.arange(v.shape[1])] < 0
    v[:, flip] *= -1.0
    return v


def _eigh(matrix, subset=None):
    """Ascending eigenvalues and sign-fixed eigenvectors of a symmetric
    matrix, for the index range ``subset = (first, last)`` or all of them.

    The full solve uses LAPACK's divide-and-conquer driver, the one
    ``numpy.linalg.eigh`` calls, so full spectra match it bit for bit; a
    subset uses the relatively robust representations driver, the only one
    that stops after the requested eigenpairs.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError("matrix must be square")
    if not np.isfinite(a).all():
        raise NumericalError("matrix has non-finite entries")
    if np.max(np.abs(a - a.T)) > 1e-10 * max(1.0, np.abs(a).max()):
        raise InputError("matrix must be symmetric")
    try:
        w, v = scipy.linalg.eigh(
            a,
            subset_by_index=subset,
            driver="evd" if subset is None else "evr",
            check_finite=False,
        )
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    if not np.all(np.isfinite(w)):
        raise NumericalError("eigendecomposition produced non-finite eigenvalues")
    return w, fix_signs(v)


def eigendecompose(matrix: np.ndarray) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix, ascending eigenvalues."""
    w, v = _eigh(matrix)
    return EigenDecomposition(eigenvalues=w, eigenvectors=v)


def embed(matrix: np.ndarray, k: int) -> SpectralEmbedding:
    """Embedding from the k smallest-eigenvalue eigenvectors (signed spectrum).

    Only eigenpairs 0..k are computed: the k vectors and the (k+1)-th value.
    """
    n = np.asarray(matrix).shape[0]
    if not 1 <= k < n:
        raise InputError(f"k must satisfy 1 <= k < N, got k={k}, N={n}")
    w, v = _eigh(matrix, subset=(0, k))
    return SpectralEmbedding(
        X=v[:, :k].copy(), eigenvalues=w[:k].copy(), next_eigenvalue=float(w[k])
    )


def trace_objective(matrix: np.ndarray, h: np.ndarray) -> float:
    """Tr(H' A H), the quantity the embedding minimizes over orthonormal H."""
    return float(np.trace(h.T @ matrix @ h))
