"""Similarity graphs over meters and their graph Laplacian.

Meters become nodes of a complete weighted graph. Edge weight between
meters i and j is a Gaussian kernel on a distance,

    m_ij = exp(-d(i, j)^2 / sigma^2),    m_ii = 1,

where d is the Euclidean distance between voltage time series (voltage
graph) or the haversine distance between coordinates (location graph). The
unnormalized Laplacian is L = D - M with D the diagonal degree matrix
d_ii = sum_j m_ij. Kernel underflow for far-apart nodes simply clamps the
weight to 0.0, which is the intended behavior rather than an error; so
does overflow of d / sigma for a subnormal width, as exp(-inf) = 0.

Both graphs write their i < j distances into one N x N matrix and run
the rest in place on it: the width, the number given or the median of
those distances for ``auto``, then the division, square, negation and
exponential, block of rows by block of rows on and right of each block's
diagonal, each block mirrored below it. So the matrix is exactly
symmetric. The voltage distances come from one matrix product of the
column-centered rows, ||x_i - x_j||^2 = ||x_i||^2 + ||x_j||^2 - 2 x_i.x_j;
BLAS threads it, and gridmap starts no thread of its own. Its error in
d^2 stays within T eps (||x_i||^2 + ||x_j||^2) of the centered norms, so
centering keeps it small next to d^2 where meters sit near one voltage.
The location distances come from ``geo.pairwise_geo``, one call per block
of rows against the rows after the block's first. A block holds O(N)
doubles, so a graph peaks at its N x N matrix (with the centered N x T
copy of the voltages) plus, for ``auto``, the N(N-1)/2 distances the
median reorders: 1.5 N^2 doubles.

``laplacian`` leaves the graph as it is and returns a new N x N matrix,
unless the caller gives the graph up (``overwrite_graph``): then the
Laplacian is formed in the graph's own matrix, with the same bits, and the
graph's matrix is no longer the graph. ``recover`` and the commands do
that with every graph they read once.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .geo import pairwise_geo
from .ingest import GroundTruth, MeterDataset
from .spectral import max_asymmetry

AUTO = "auto"

SYMMETRY_TOL = 1e-12

UNDERFLOW = -745.2      # below ln(2^-1075) = -745.1332..., where exp rounds to +0.0

BLOCK_ROWS = 64         # rows per block of distances at most, so a block holds O(N) doubles


@dataclass
class SimilarityGraph:
    matrix: np.ndarray      # (N, N) symmetric, unit diagonal, entries in [0, 1]
    sigma: float            # kernel width actually used
    kind: str               # "voltage" | "location" | "ideal"


def _median_width(pairs: np.ndarray) -> float:
    """Median of the i < j distances, the default kernel width.

    ``pairs`` is reordered. Falls back to the mean positive distance when
    the median vanishes (more than half the pairs coincide), and to 1.0 if
    every pair does; at zero distance the kernel is 1 regardless of sigma,
    so any positive width is equivalent there.
    """
    med = float(np.median(pairs, overwrite_input=True))
    if med > 0.0:
        return med
    positive = pairs[pairs > 0.0]
    return float(positive.mean()) if positive.size else 1.0


def _gaussian(d: np.ndarray, width: float) -> None:
    """exp(-(d / width)^2) in place. Far pairs underflow to 0.0 and, for
    a subnormal width, d / width overflows to inf; both are meant.

    An exponent below UNDERFLOW gives exactly +0.0, so those entries are
    set, not exponentiated: exp costs many times more per element where
    its result underflows, and at the benchmark feeders' fixed widths most
    pairs do.
    """
    with np.errstate(under="ignore", over="ignore"):
        d /= width
        np.square(d, out=d)
        np.negative(d, out=d)
        far = d < UNDERFLOW
        np.exp(d, out=d, where=~far)
        np.copyto(d, 0.0, where=far)


def _similarity(n: int, distances, sigma, kind: str) -> SimilarityGraph:
    """Gaussian kernel graph over ``n`` nodes.

    ``distances()`` returns an (n, n) matrix whose i < j entries are the
    distances; the others are scratch. It becomes the graph in place. The
    width is ``sigma``, or for ``auto`` the median of those distances,
    each row's tail right of the diagonal concatenated into one buffer.
    Then each block of rows takes the kernel right of its first column,
    its square on the diagonal made symmetric with a zero diagonal first
    (the kernel turns that to 1), and its entries right of that square are
    mirrored below it, so the matrix is exactly symmetric. ``sigma`` is
    ``auto`` or a positive, finite, non-boolean real number.
    """
    if n < 2:
        raise InputError("need at least 2 meters")
    real = isinstance(sigma, numbers.Real) and not isinstance(sigma, bool)
    if not ((real and 0.0 < sigma < np.inf) or (isinstance(sigma, str) and sigma == AUTO)):
        raise InputError(f"sigma must be {AUTO!r} or a positive, finite number, got {sigma!r}")
    m = distances()
    if sigma == AUTO:
        width = _median_width(np.concatenate([m[i, i + 1:] for i in range(n - 1)]))
    else:
        width = float(sigma)
    for a, b in _row_blocks(n):
        upper = np.triu(m[a:b, a:b], 1)
        m[a:b, a:b] = upper + upper.T
        _gaussian(m[a:b, a:], width)
        m[b:, a:b] = m[a:b, b:].T
    return SimilarityGraph(matrix=m, sigma=width, kind=kind)


def _row_blocks(n: int):
    """Ranges (a, b) of at most BLOCK_ROWS rows covering rows 0..n-1.

    A block also has at most n / 16 rows (one if that is fewer), so its
    temporaries of (b - a) x n doubles stay a small part of the N x N
    matrix.
    """
    step = max(1, min(BLOCK_ROWS, n // 16))
    return [(a, min(n, a + step)) for a in range(0, n, step)]


def _voltage_distances(volts: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of ``volts``, i < j entries
    of an (N, N) matrix (see ``_similarity``).

    A copy of the rows has its column means removed. Then one product
    g = x x^T gives each squared distance as (sq_i + sq_j) - 2 g_ij, with
    sq the squared row norms, clamped at 0 against cancellation.
    """
    x = volts - volts.mean(axis=0)
    sq = np.einsum("ij,ij->i", x, x)
    d = x @ x.T
    del x
    for a, b in _row_blocks(len(d)):
        block = d[a:b, a:]
        block *= -2.0
        block += sq[a:b, None] + sq[a:]
        np.maximum(block, 0.0, out=block)
        np.sqrt(block, out=block)
    return d


def _location_distances(points: np.ndarray) -> np.ndarray:
    """Haversine distances (km) between the rows of ``points``, i < j
    entries of an (N, N) matrix (see ``_similarity``).

    A block of rows a..b-1 is measured against the rows after a, in place
    of its entries right of column a. The pairs on and left of the
    diagonal in there are scratch, a few percent of the work.
    """
    n = len(points)
    d = np.empty((n, n))
    for a, b in _row_blocks(n):
        d[a:b, a + 1:] = pairwise_geo(points[a:b], points[a + 1:])
    return d


def voltage_similarity(data: MeterDataset, sigma=AUTO) -> SimilarityGraph:
    """Gaussian kernel on Euclidean distances between voltage rows."""
    volts = np.asarray(data.voltages, dtype=float)
    return _similarity(len(volts), lambda: _voltage_distances(volts), sigma, "voltage")


def location_similarity(data: MeterDataset, sigma=AUTO) -> SimilarityGraph:
    """Gaussian kernel on haversine distances (km) between meter coordinates."""
    if data.locations is None:
        raise InputError("dataset has no meter locations")
    points = np.asarray(data.locations, dtype=float)
    return _similarity(len(points), lambda: _location_distances(points), sigma, "location")


def ideal_graph(truth: GroundTruth) -> SimilarityGraph:
    """Binary similarity: 1 within a transformer group, 0 across groups."""
    same = truth.labels[:, None] == truth.labels[None, :]
    return SimilarityGraph(matrix=same.astype(float), sigma=0.0, kind="ideal")


def laplacian(graph, overwrite_graph: bool = False) -> np.ndarray:
    """Unnormalized Laplacian L = D - M of a similarity matrix.

    Accepts a SimilarityGraph or a raw matrix. Rejects matrices with a
    non-finite entry, that are not symmetric to 1e-12 or whose entries
    leave [0, 1]. With ``overwrite_graph`` L is formed in the graph's float
    matrix (see the module docstring).
    """
    m = np.asarray(graph.matrix if isinstance(graph, SimilarityGraph) else graph, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError("similarity matrix must be square")
    lo, hi = m.min(), m.max()  # NaN if any entry is NaN
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise InputError("similarity entries must be finite")
    if max_asymmetry(m) > SYMMETRY_TOL:
        raise InputError("similarity matrix is not symmetric")
    if lo < -SYMMETRY_TOL or hi > 1.0 + SYMMETRY_TOL:
        raise InputError("similarity entries must lie in [0, 1]")
    # 0 - m, not -m, so zero weights give +0.0 as diag(d) - m does; the
    # diagonal -m_ii + d_i equals d_i - m_ii exactly. The degrees come
    # first, so m may be the output.
    degrees = m.sum(axis=1)
    lap = np.subtract(0.0, m, out=m if overwrite_graph else None)
    lap.flat[::m.shape[0] + 1] += degrees
    return lap
