"""Symmetric eigendecomposition and the trailing-eigenvector embedding.

The k eigenvectors belonging to the k smallest eigenvalues of the graph
Laplacian minimize Tr(H' L H) over orthonormal N x k frames H, so their
rows are the natural low-dimensional embedding of the meters. Eigenvector
signs are fixed deterministically: each vector is flipped, if needed, so
its largest-magnitude entry (lowest index on ties) is positive.

Neither caller forms more eigenvectors than it reads: ``embed`` solves only
for the eigenpairs 0..k, and ``eigendecompose`` returns all N eigenvalues
but only the eigenvectors it is asked for.

A Gaussian kernel graph whose far pairs underflow to 0.0 has a Laplacian
that is block diagonal under a permutation, one block per connected
component, and its eigenpairs are the union of the blocks' eigenpairs.
``by_component`` solves such a matrix block by block with a solver it is
handed and merges the pieces, which is exact and costs the sum of the
blocks' cubes instead of N cubed; a connected matrix is the one-block case
and goes to the solver whole, uncopied. ``embed`` hands it the bottom-k
solve, and the certificate hands it ``eigendecompose`` to get every
measured eigenvalue. ``eigendecompose`` itself always solves the matrix it
is given whole: it is the dense oracle the certificate is tested against,
and split into blocks its eigenvalues would move by a few ulp (the ideal
[4, 30, 6] Laplacian's 4.0 becomes 4 - 4 ulp).
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


def _components(a):
    """Connected components of the graph with an edge i-j wherever a_ij or
    a_ji (i != j) is nonzero.

    Returns the components of two or more nodes as ascending node arrays,
    ordered by lowest node, and the isolated nodes as one ascending array.
    When row 0 has no zero off-diagonal entry, node 0 touches every other
    node, so an N >= 2 matrix is one component, found from that row alone;
    this covers every dense kernel graph and every matrix lowered by a dense
    H H'. Otherwise ``_mask_components`` searches the nonzero mask.
    """
    n = a.shape[0]
    if n > 1 and np.all(a[0, 1:]):
        return [np.arange(n)], np.empty(0, dtype=np.intp)
    return _mask_components(a)


def _mask_components(a):
    """``_components`` by search. One pass over the matrix makes its N x N
    nonzero mask (one byte an entry), which gives the isolated nodes. A
    breadth-first search over the mask labels the rest: each step reads the
    rows and columns of a whole frontier, and the search stops as soon as
    every node is labelled.
    """
    nz = a != 0
    np.fill_diagonal(nz, False)
    seen = ~(nz.any(axis=0) | nz.any(axis=1))
    isolated = np.flatnonzero(seen)
    left = seen.size - isolated.size
    blocks = []
    while left:
        frontier = np.array([seen.argmin()])
        seen[frontier] = True
        left -= 1
        levels = [frontier]
        while frontier.size and left:
            hit = nz[frontier].any(axis=0) | nz[:, frontier].any(axis=1)
            frontier = np.flatnonzero(hit & ~seen)
            seen[frontier] = True
            left -= frontier.size
            levels.append(frontier)
        blocks.append(np.sort(np.concatenate(levels)))
    return blocks, isolated


def by_component(a, k, solve):
    """Eigenvalues and the k bottom eigenvectors of a symmetric matrix,
    solved one connected component of its off-diagonal nonzeros at a time.

    The matrix is block diagonal under a permutation, so its eigenpairs are
    the union of the blocks'. ``solve(block, m)`` returns a block's
    ascending eigenvalues, at least m of them, and the eigenvectors of the
    first m, where m = min(k, block size); the k smallest eigenvalues of the
    whole lie among those. An isolated node i contributes a_ii with the unit
    vector e_i. One stable sort by (eigenvalue, the component's lowest node)
    merges every value returned, ascending; among tied eigenvalues of one
    block the solver's order is kept, so each block's share of the bottom k
    is a prefix of its values and its vectors land in their columns. A block
    that holds every node is ``a`` itself, not a copy; its values come out
    in the solver's order and its vectors in their own columns, so a
    connected matrix gets the bits of one whole-matrix solve.
    """
    blocks, isolated = _components(a)
    n = a.shape[0]
    values, firsts, vectors = [], [], []
    for nodes in blocks:
        w, v = solve(a if nodes.size == n else a[np.ix_(nodes, nodes)], min(k, nodes.size))
        values.append(w)
        firsts.append(np.full(w.size, nodes[0]))
        vectors.append(v)
    values.append(a[isolated, isolated])
    firsts.append(isolated)
    merged = np.concatenate(values)
    order = np.lexsort((np.concatenate(firsts), merged))
    column = np.full(order.size, -1)
    column[order[:k]] = np.arange(k)
    x = np.zeros((n, k))
    start = 0
    for nodes, w, v in zip(blocks, values, vectors):
        # a block's vectors belong to its first values; the next block's
        # values start after all of this block's, not after its vectors
        cols = column[start:start + v.shape[1]]
        x[np.ix_(nodes, cols[cols >= 0])] = v[:, cols >= 0]
        start += w.size
    cols = column[start:]
    x[isolated[cols >= 0], cols[cols >= 0]] = 1.0
    return merged[order], x


def _bottom(block, m):
    """The m smallest eigenpairs of a symmetric block, from the relatively
    robust representations driver, which stops after them."""
    return scipy.linalg.eigh(block, subset_by_index=(0, m - 1), driver="evr", check_finite=False)


def _eigh(matrix, k=None, spectrum=False):
    """Ascending eigenvalues and the sign-fixed eigenvectors of the k
    smallest of them (all of them when k is None), for a symmetric matrix.

    The bottom-k mode returns only those k eigenvalues, from the relatively
    robust representations driver, which stops after the requested
    eigenpairs. It solves the matrix one connected component at a time
    (``by_component``); a connected matrix is one block, solved whole.
    Where the k-th and (k+1)-th eigenvalues tie, as when there are more than
    k components, the bottom-k eigenspace is not unique and the block merge
    order picks one basis of it, where a whole-matrix solve would pick
    another.

    The spectrum mode returns all N eigenvalues: one Householder
    reduction to tridiagonal form, root-free QR for every eigenvalue, and
    bisection with inverse iteration for the k wanted vectors, which the
    reduction's reflectors then carry back. It always solves the whole
    matrix (see the module docstring).
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError("matrix must be square")
    lo, hi = a.min(), a.max()  # NaN propagates through both
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise NumericalError("matrix has non-finite entries")
    if max_asymmetry(a) > 1e-10 * max(1.0, -lo, hi):
        raise InputError("matrix must be symmetric")
    n = a.shape[0]
    k = n if k is None else k
    if not 1 <= k <= n:
        raise InputError(f"need 1 <= k <= N eigenvectors, got k={k}, N={n}")
    try:
        if spectrum:
            w, v = _spectrum(a, k)
        else:
            w, v = by_component(a, k, _bottom)
            w = w[:k]  # the merge holds up to k values of each block
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

