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

The kernel works on the N(N-1)/2 condensed distances of the pairs i < j,
in the row-major order of ``scipy.spatial.distance.pdist``. The division,
square, negation and exponential all act on that one vector in place, and
a single ``squareform`` writes the symmetric N x N matrix.

Both graphs are built in the same three steps. The condensed vector is
filled in contiguous parts of rows, one thread per CPU (``gridmap.parts``),
balanced by pairs; a part computes blocks of at most BLOCK_ROWS rows
against the rows after them (``cdist`` for voltages, broadcast haversine
for locations) and keeps each row's j > i tail. Then the width is taken,
the number given or the median distance for ``auto``. Then the kernel runs
over the vector in row parts again. Every distance and kernel value has the
bits one serial ``pdist``, or the haversine distance of one row to the rows
after it, gives. A part holds O(N) doubles of its own, so building a graph
still peaks at one N x N matrix plus the condensed half, 1.5 N^2 doubles.
The median for the ``auto`` width, and ``squareform``, run in one thread.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, squareform

from .errors import InputError
# pairwise_geo stays imported: perfbench/tracing.py wraps it on this module
from .geo import haversine, pairwise_geo  # noqa: F401
from .ingest import GroundTruth, MeterDataset
from .parts import in_row_parts
from .spectral import max_asymmetry

AUTO = "auto"

SYMMETRY_TOL = 1e-12

BLOCK_ROWS = 64         # rows per block of distances at most, so a block holds O(N) doubles
# element operations (see gridmap.parts) per pair, beside one per voltage sample
KERNEL_COST = 6
HAVERSINE_COST = 128


@dataclass
class SimilarityGraph:
    matrix: np.ndarray      # (N, N) symmetric, unit diagonal, entries in [0, 1]
    sigma: float            # kernel width actually used
    kind: str               # "voltage" | "location" | "ideal"


def _median_width(pairs: np.ndarray) -> float:
    """Median of the condensed i < j distances, the default kernel width.

    Falls back to the mean positive distance when the median vanishes
    (more than half the pairs coincide), and to 1.0 if every pair does;
    at zero distance the kernel is 1 regardless of sigma, so any positive
    width is equivalent there.
    """
    med = float(np.median(pairs))
    if med > 0.0:
        return med
    positive = pairs[pairs > 0.0]
    return float(positive.mean()) if positive.size else 1.0


def _gaussian(pairs: np.ndarray, width: float) -> None:
    """exp(-(d / width)^2) in place. numpy's error state is per thread, so
    each row part sets its own."""
    with np.errstate(under="ignore", over="ignore"):
        pairs /= width
        np.square(pairs, out=pairs)
        np.negative(pairs, out=pairs)
        np.exp(pairs, out=pairs)


def _similarity(n: int, dist, pair_cost: int, sigma, kind: str) -> SimilarityGraph:
    """Gaussian kernel graph over ``n`` nodes.

    ``dist(a, b)`` returns the (b - a, n - a - 1) distances from rows
    a..b-1 to rows a+1..n-1; a pair costs ``pair_cost`` element
    operations. The build runs in three steps: the condensed distances,
    filled in row parts (see ``gridmap.parts``); the width, ``sigma`` or
    the median of the distances for ``auto``; the kernel, applied in row
    parts again.
    """
    if n < 2:
        raise InputError("need at least 2 meters")
    if sigma != AUTO and not 0.0 < float(sigma) < np.inf:
        raise InputError("sigma must be positive and finite")
    i = np.arange(n)
    start = i * n - i * (i + 1) // 2    # row i's first pair; start[-1] is the count
    pairs = np.empty(start[-1])
    in_row_parts(lambda r0, r1: _row_blocks(pairs, start, r0, r1, dist), start * pair_cost)
    width = _median_width(pairs) if sigma == AUTO else float(sigma)
    in_row_parts(lambda r0, r1: _gaussian(pairs[start[r0]:start[r1]], width),
                 start * KERNEL_COST)
    m = squareform(pairs)
    np.fill_diagonal(m, 1.0)
    return SimilarityGraph(matrix=m, sigma=width, kind=kind)


def _row_blocks(pairs, start, r0, r1, dist) -> None:
    """Fill rows r0..r1-1 of the condensed vector from blocks of rows.

    Each row of a ``dist`` block keeps its j > i tail. A block holds at
    most an eighth of the range's pairs (one row if that is more), so the
    blocks of all parts, with their temporaries, stay within the size of
    the condensed vector. The pairs left of a block's diagonal are
    computed and dropped, a few percent of the work.
    """
    n = len(start)
    part = start[r1] - start[r0]
    while r0 < r1:
        r = min(r1, r0 + max(1, min(BLOCK_ROWS, part // (8 * (n - r0)))))
        block = dist(r0, r)
        for i in range(r0, r):
            pairs[start[i]:start[i + 1]] = block[i - r0, i - r0:]
        r0 = r


def voltage_similarity(data: MeterDataset, sigma=AUTO) -> SimilarityGraph:
    """Gaussian kernel on Euclidean distances between voltage rows."""
    volts = np.ascontiguousarray(data.voltages, dtype=float)
    return _similarity(len(volts), lambda a, b: cdist(volts[a:b], volts[a + 1:]),
                       volts.shape[1], sigma, "voltage")


def location_similarity(data: MeterDataset, sigma=AUTO) -> SimilarityGraph:
    """Gaussian kernel on haversine distances (km) between meter coordinates."""
    if data.locations is None:
        raise InputError("dataset has no meter locations")
    points = np.asarray(data.locations, dtype=float)
    return _similarity(len(points),
                       lambda a, b: haversine(points[a:b, None], points[None, a + 1:]),
                       HAVERSINE_COST, sigma, "location")


def ideal_graph(truth: GroundTruth) -> SimilarityGraph:
    """Binary similarity: 1 within a transformer group, 0 across groups."""
    same = truth.labels[:, None] == truth.labels[None, :]
    return SimilarityGraph(matrix=same.astype(float), sigma=0.0, kind="ideal")


def laplacian(graph) -> np.ndarray:
    """Unnormalized Laplacian L = D - M of a similarity matrix.

    Accepts a SimilarityGraph or a raw matrix. Rejects matrices with a
    non-finite entry, that are not symmetric to 1e-12 or whose entries
    leave [0, 1].
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
    # diagonal -m_ii + d_i equals d_i - m_ii exactly
    lap = np.subtract(0.0, m)
    lap.flat[::m.shape[0] + 1] += m.sum(axis=1)
    return lap
