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
``by_component`` finds the blocks by a breadth-first search over the
matrix's nonzero mask, solves them one by one with a solver it is handed
and merges the pieces, which is exact and costs the sum of the blocks'
cubes instead of N cubed; a connected matrix is the one-block case and
goes to the solver whole. Each block of a split matrix is asked
only for about its share of the k bottom eigenvectors, k - B + 2 of them
with B blocks and isolated nodes in all, and solved again for all it
could hold where that share might run past them. ``embed`` hands it the
bottom-k solve, and the certificate hands it ``eigendecompose`` to get
every measured eigenvalue. ``eigendecompose`` itself always solves the
matrix it is given whole: it is the dense oracle the certificate is tested
against, and split into blocks its eigenvalues would move by a few ulp
(the ideal [4, 30, 6] Laplacian's 4.0 becomes 4 - 4 ulp).

LAPACK works in a Fortran-ordered matrix, which it overwrites. ``embed``
and ``eigendecompose`` leave the matrix they are given as it is: every
solve works in a copy, a component's block or the whole matrix in
Fortran order, which is the one copy LAPACK's wrapper would make. A
caller that never reads the matrix again gives it up (``overwrite_a``),
and then a whole-matrix solve, of a connected matrix or in the spectrum
mode, works in it: an exactly symmetric C-ordered one is handed over as
its transpose, the same matrix in Fortran order, so no N x N copy is made
and the bits are those of the copy. ``by_component`` hands its solver
only buffers the solver may overwrite.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .errors import InputError, NumericalError


class EigenDecomposition(NamedTuple):  # unpacks as by_component's (w, v) solver pairs
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
    One pass over the matrix makes its N x N nonzero mask (one byte an
    entry), which gives the isolated nodes. A breadth-first search over the
    mask labels the rest: each step reads the rows and columns of a whole
    frontier, and the search stops as soon as every node is labelled, so a
    dense matrix is one component after one step.
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


def by_component(a, k, solve, overwrite_a=False):
    """Eigenvalues and the k bottom eigenvectors of a symmetric matrix,
    solved one connected component of its off-diagonal nonzeros at a time.

    The matrix is block diagonal under a permutation, so its eigenpairs are
    the union of the blocks'. ``solve(block, m)`` returns a block's
    ascending eigenvalues, at least m of them, and the eigenvectors of the
    first m. It may overwrite ``block``: a Fortran-ordered copy of the
    component, or ``a`` itself where the component holds every node and
    the caller gives ``a`` up (``overwrite_a``); ``a`` is left as it is
    otherwise. An isolated node i contributes a_ii with the unit vector e_i.
    One stable sort by (eigenvalue, the component's lowest node) merges
    every value returned, ascending; among tied eigenvalues of one block the
    solver's order is kept, so each block's share of the bottom k is a
    prefix of its values and its vectors land in their columns.

    With B blocks and isolated nodes in all, block j is asked for
    m = min(k, size, max(2, k - B + 2)) pairs. In a Laplacian every other
    block and isolated node holds a value no larger than block j's second,
    so block j's share of the bottom k is at most k - B + 1, and its m-th
    value, the one pair more, is a witness that lies outside it. Where a
    block's share reaches its m with more than m pairs left to ask for, its
    unreturned values could belong in the bottom k, as they can in any
    symmetric input: it is solved again for min(k, size) pairs and the
    values merged again. A re-solved block's added values can only push
    other blocks' values out of the bottom k, so one round settles the
    merge but for ties moved by rounding; it repeats while any block's share
    reaches its m, and ends, since no block is solved again twice.

    A block that holds every node is solved for min(k, size) pairs, once;
    its values come out in the solver's order and its vectors in their own
    columns, so a connected matrix gets the bits of one whole-matrix solve.
    """
    blocks, isolated = _components(a)
    n = a.shape[0]
    cap = max(2, k - len(blocks) - isolated.size + 2)

    def block_solve(nodes, m):
        if nodes.size == n:
            return solve(a if overwrite_a else np.array(a, order="F"), m)
        # the rows of a's transpose are its columns: one copy, read as the
        # Fortran-ordered block, which LAPACK takes without another
        return solve(a.T[np.ix_(nodes, nodes)].T, m)

    pieces = [block_solve(nodes, min(k, nodes.size, cap)) for nodes in blocks]
    # no solve for an isolated node: a kernel narrow for the noise isolates
    # every meter (all 591 in a noise-1e-4 trial of the benchmark's multiview
    # sweep), where a 1 x 1 solve each took the embedding from 0.3 to 13 ms
    lowest = np.array([nodes[0] for nodes in blocks], dtype=np.intp)
    while True:
        values = [w for w, _ in pieces] + [a[isolated, isolated]]
        counts = [w.size for w in values]
        owner = np.repeat(np.arange(len(values)), counts)
        merged = np.concatenate(values)
        order = np.lexsort((np.concatenate([np.repeat(lowest, counts[:-1]), isolated]), merged))
        shares = np.bincount(owner[order[:k]], minlength=len(values))
        short = [j for j, (nodes, (_, v)) in enumerate(zip(blocks, pieces))
                 if v.shape[1] < min(k, nodes.size) and shares[j] >= v.shape[1]]
        if not short:
            break
        for j in short:
            pieces[j] = block_solve(blocks[j], min(k, blocks[j].size))
    column = np.full(order.size, -1)
    column[order[:k]] = np.arange(k)
    x = np.zeros((n, k))
    start = 0
    for nodes, (w, v) in zip(blocks, pieces):
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
    robust representations driver, which stops after them. A
    Fortran-ordered block is overwritten; the wrapper copies any other."""
    return scipy.linalg.eigh(block, subset_by_index=(0, m - 1), driver="evr",
                             check_finite=False, overwrite_a=True)


def _eigh(matrix, k=None, spectrum=False, overwrite_a=False):
    """Ascending eigenvalues and the sign-fixed eigenvectors of the k
    smallest of them (all of them when k is None), for a symmetric matrix.

    The bottom-k mode returns only those k eigenvalues, from the relatively
    robust representations driver, which stops after the requested
    eigenpairs. It solves the matrix one connected component at a time
    (``by_component``), each block for no more pairs than its share of the
    bottom k can need; a connected matrix is one block, solved whole.
    Where the k-th and (k+1)-th eigenvalues tie, as when there are more than
    k components, the bottom-k eigenspace is not unique and the block merge
    order picks one basis of it, where a whole-matrix solve would pick
    another.

    The spectrum mode returns all N eigenvalues: one Householder
    reduction to tridiagonal form, root-free QR for every eigenvalue, and
    bisection with inverse iteration for the k wanted vectors, which the
    reduction's reflectors then carry back. It always solves the whole
    matrix (see the module docstring).

    With ``overwrite_a`` the solvers may work in the matrix (see the module
    docstring); without it they work in a copy.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError("matrix must be square")
    lo, hi = a.min(), a.max()  # NaN propagates through both
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise NumericalError("matrix has non-finite entries")
    asymmetry = max_asymmetry(a)
    if asymmetry > 1e-10 * max(1.0, -lo, hi):
        raise InputError("matrix must be symmetric")
    if overwrite_a and asymmetry == 0.0 and a.flags.c_contiguous:
        a = a.T
    n = a.shape[0]
    k = n if k is None else k
    if not 1 <= k <= n:
        raise InputError(f"need 1 <= k <= N eigenvectors, got k={k}, N={n}")
    try:
        if spectrum:
            w, v = _spectrum(a if overwrite_a else np.array(a, order="F"), k)
        else:
            w, v = by_component(a, k, _bottom, overwrite_a)
            w = w[:k]  # the merge holds up to k values of each block
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    if not np.all(np.isfinite(w)):
        raise NumericalError("eigendecomposition produced non-finite eigenvalues")
    return w, fix_signs(v)


def _spectrum(a, k):
    """All eigenvalues of a symmetric matrix and the eigenvectors of its k
    smallest: ``dsytrd``, then ``dsterf``, ``dstebz`` and ``dstein`` on the
    tridiagonal matrix, as scipy's ``eigvalsh_tridiagonal`` and
    ``eigh_tridiagonal`` run them, without their per-call checks. A
    Fortran-ordered ``a`` is overwritten; the wrapper copies any other."""
    n = a.shape[0]
    if n == 1:
        return a[0].copy(), np.ones((1, 1))
    lwork, _ = lapack.dsytrd_lwork(n, lower=1)
    c, d, e, tau, _ = lapack.dsytrd(a, lower=1, lwork=int(lwork), overwrite_a=1)
    w, sterf_info = lapack.dsterf(d, e)
    m, bisected, iblock, isplit, stebz_info = lapack.dstebz(d, e, 2, 0.0, 1.0, 1, k, 0.0, "B")
    z, stein_info = lapack.dstein(d, e, bisected[:m], iblock, isplit)
    if sterf_info or stebz_info or stein_info:
        raise np.linalg.LinAlgError("tridiagonal solve failed (LAPACK info: dsterf "
                                    f"{sterf_info}, dstebz {stebz_info}, dstein {stein_info})")
    z = z[:, np.argsort(bisected[:m])]  # dstebz orders by split block
    # scipy wraps no dormtr, but with lower=1, Q = diag(1, Q1), and Q1 is
    # the QR factor whose reflectors dsytrd left below the subdiagonal. They
    # move to the front of c's own Fortran buffer, column j from offset
    # jn + 1 to j(n - 1), so in increasing j each is read before overwritten
    flat = c.reshape(-1, order="F")
    for j in range(n - 1):
        flat[j * (n - 1):(j + 1) * (n - 1)] = flat[j * n + 1:(j + 1) * n]
    q1, rest = flat[:(n - 1) ** 2].reshape((n - 1, n - 1), order="F"), z[1:]
    lwork = lapack.dormqr("L", "N", q1, tau, rest, -1)[1][0]
    z[1:] = lapack.dormqr("L", "N", q1, tau, rest, int(lwork))[0]
    return w, z


def eigendecompose(matrix: np.ndarray, k: int | None = None,
                   overwrite_a: bool = False) -> EigenDecomposition:
    """All N eigenvalues of a symmetric matrix, ascending, and the
    eigenvectors of the k smallest (of all of them when k is None). With
    ``overwrite_a`` the caller gives the matrix up to the solve.
    """
    return EigenDecomposition(*_eigh(matrix, k, spectrum=True, overwrite_a=overwrite_a))


def embed(matrix: np.ndarray, k: int, overwrite_a: bool = False) -> SpectralEmbedding:
    """Embedding from the k smallest-eigenvalue eigenvectors (signed spectrum).

    Only eigenpairs 0..k are computed: the k vectors and the (k+1)-th value.
    With ``overwrite_a`` the caller gives the matrix up to the solve.
    """
    n = np.asarray(matrix).shape[0]
    if not 1 <= k < n:
        raise InputError(f"k must satisfy 1 <= k < N, got k={k}, N={n}")
    w, v = _eigh(matrix, k + 1, overwrite_a=overwrite_a)
    return SpectralEmbedding(
        X=v[:, :k].copy(), eigenvalues=w[:k].copy(), next_eigenvalue=float(w[k])
    )

