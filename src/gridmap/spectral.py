"""Symmetric eigendecomposition and the trailing-eigenvector embedding.

The k eigenvectors belonging to the k smallest eigenvalues of the graph
Laplacian minimize Tr(H' L H) over orthonormal N x k frames H, so their
rows are the natural low-dimensional embedding of the meters. Eigenvector
signs are fixed deterministically: each vector is flipped, if needed, so
its largest-magnitude entry (lowest index on ties) is positive.

Neither caller forms more eigenvectors than it reads: ``embed`` solves only
for the eigenpairs 0..k, and ``eigendecompose`` returns all N eigenvalues
but only the eigenvectors it is asked for.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .errors import InputError, NumericalError


@dataclass
class EigenDecomposition:
    eigenvalues: np.ndarray     # (N,) ascending
    eigenvectors: np.ndarray    # (N, k) columns, orthonormal, sign-fixed


@dataclass
class SpectralEmbedding:
    X: np.ndarray               # (N, k) rows are meter embeddings
    eigenvalues: np.ndarray     # (k,) the k smallest
    next_eigenvalue: float      # eigenvalue k+1, for gap diagnostics


def max_asymmetry(a: np.ndarray) -> float:
    """max |a_ij - a_ji| over a square matrix, NaN if any entry is NaN.

    Each block of 64 rows of the upper triangle is compared with the matching
    block of columns, so no N x N temporary is formed.
    """
    n = a.shape[0]
    worst = 0.0
    for i in range(0, n, 64):
        block = np.abs(a[i:i + 64, i:] - a[i:, i:i + 64].T).max()
        worst = np.maximum(worst, block)  # propagates NaN, which max() would drop
    return float(worst)


def fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-|entry| (first on ties) is positive."""
    v = vectors.copy()
    idx = np.abs(v).argmax(axis=0)
    flip = v[idx, np.arange(v.shape[1])] < 0
    v[:, flip] *= -1.0
    return v


def _eigh(matrix, k=None, spectrum=False):
    """Ascending eigenvalues and the sign-fixed eigenvectors of the k
    smallest of them (all of them when k is None), for a symmetric matrix.

    The bottom-k mode returns only those k eigenvalues, from the relatively
    robust representations driver, which stops after the requested
    eigenpairs. The spectrum mode returns all N eigenvalues: one Householder
    reduction to tridiagonal form, root-free QR for every eigenvalue, and
    bisection with inverse iteration for the k wanted vectors, which the
    reduction's reflectors then carry back.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError("matrix must be square")
    if not np.isfinite(a).all():
        raise NumericalError("matrix has non-finite entries")
    if max_asymmetry(a) > 1e-10 * max(1.0, np.abs(a).max()):
        raise InputError("matrix must be symmetric")
    n = a.shape[0]
    k = n if k is None else k
    if not 1 <= k <= n:
        raise InputError(f"need 1 <= k <= N eigenvectors, got k={k}, N={n}")
    try:
        if spectrum:
            w, v = _spectrum(a, k)
        else:
            w, v = scipy.linalg.eigh(
                a, subset_by_index=(0, k - 1), driver="evr", check_finite=False
            )
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    if not np.all(np.isfinite(w)):
        raise NumericalError("eigendecomposition produced non-finite eigenvalues")
    return w, fix_signs(v)


def _spectrum(a, k):
    n = a.shape[0]
    lwork, _ = lapack.dsytrd_lwork(n, lower=1)
    c, d, e, tau, _ = lapack.dsytrd(a, lower=1, lwork=int(lwork))
    w = scipy.linalg.eigvalsh_tridiagonal(d, e, lapack_driver="sterf", check_finite=False)
    _, z = scipy.linalg.eigh_tridiagonal(
        d, e, select="i", select_range=(0, k - 1), lapack_driver="stebz", check_finite=False
    )
    if n > 1:
        # scipy wraps no dormtr, but with lower=1, Q = diag(1, Q1), and Q1 is
        # the QR factor whose reflectors dsytrd left below the subdiagonal
        q1, rest = np.asfortranarray(c[1:, :-1]), z[1:]  # copied once, not per call
        lwork = lapack.dormqr("L", "N", q1, tau, rest, -1)[1][0]
        z[1:] = lapack.dormqr("L", "N", q1, tau, rest, int(lwork))[0]
    return w, z


def eigendecompose(matrix: np.ndarray, k: int | None = None) -> EigenDecomposition:
    """All N eigenvalues of a symmetric matrix, ascending, and the
    eigenvectors of the k smallest (of all of them when k is None)."""
    w, v = _eigh(matrix, k, spectrum=True)
    return EigenDecomposition(eigenvalues=w, eigenvectors=v)


def embed(matrix: np.ndarray, k: int) -> SpectralEmbedding:
    """Embedding from the k smallest-eigenvalue eigenvectors (signed spectrum).

    Only eigenpairs 0..k are computed: the k vectors and the (k+1)-th value.
    """
    n = np.asarray(matrix).shape[0]
    if not 1 <= k < n:
        raise InputError(f"k must satisfy 1 <= k < N, got k={k}, N={n}")
    w, v = _eigh(matrix, k + 1)
    return SpectralEmbedding(
        X=v[:, :k].copy(), eigenvalues=w[:k].copy(), next_eigenvalue=float(w[k])
    )

