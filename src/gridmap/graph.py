"""Similarity graphs over meters and their graph Laplacian.

Meters become nodes of a complete weighted graph. Edge weight between
meters i and j is a Gaussian kernel on a distance,

    m_ij = exp(-d(i, j)^2 / sigma^2),    m_ii = 1,

where d is the Euclidean distance between voltage time series (voltage
graph) or a geodesic distance between coordinates (location graph). The
unnormalized Laplacian is L = D - M with D the diagonal degree matrix
d_ii = sum_j m_ij. Kernel underflow for far-apart nodes simply clamps the
weight to 0.0, which is the intended behavior rather than an error; so
does overflow of d / sigma for a subnormal width, as exp(-inf) = 0.

The kernel works on the N(N-1)/2 condensed distances of the pairs i < j,
in the row-major order of ``scipy.spatial.distance.pdist``: for voltages
that is what ``pdist`` returns, and for locations the geodesic metric is
evaluated on those pairs only. The width, the division, square, negation
and exponential all act on that one vector in place, and a single
``squareform`` writes the symmetric N x N matrix. So building a graph
peaks at one N x N matrix plus the condensed half, 1.5 N^2 doubles.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .errors import InputError
# pairwise_geo stays imported: perfbench/tracing.py wraps it on this module
from .geo import GEO_METRICS, pairwise_geo  # noqa: F401
from .ingest import GroundTruth, MeterDataset
from .spectral import max_asymmetry

AUTO = "auto"

SYMMETRY_TOL = 1e-12


@dataclass
class SimilarityGraph:
    matrix: np.ndarray      # (N, N) symmetric, unit diagonal, entries in [0, 1]
    sigma: float            # kernel width actually used
    kind: str               # "voltage" | "location" | "ideal"


def median_pairwise(distances: np.ndarray) -> float:
    """Median off-diagonal distance, the default kernel width.

    Falls back to the mean positive distance when the median vanishes
    (more than half the pairs coincide), and to 1.0 if every pair does;
    at zero distance the kernel is 1 regardless of sigma, so any positive
    width is equivalent there. Raises InputError unless ``distances`` is a
    square matrix.
    """
    if distances.ndim != 2 or distances.shape[0] != distances.shape[1]:
        raise InputError(f"expected a square distance matrix, got shape {distances.shape}")
    return _median_width(distances[np.triu_indices(distances.shape[0], k=1)])


def _median_width(pairs: np.ndarray) -> float:
    """``median_pairwise`` of the condensed i < j distances."""
    med = float(np.median(pairs))
    if med > 0.0:
        return med
    positive = pairs[pairs > 0.0]
    return float(positive.mean()) if positive.size else 1.0


def _kernel(pairs: np.ndarray, sigma) -> SimilarityGraph:
    """Gaussian kernel matrix from condensed i < j distances, which it
    overwrites."""
    if sigma == AUTO:
        width = _median_width(pairs)
    else:
        width = float(sigma)
        if not 0.0 < width < np.inf:
            raise InputError("sigma must be positive and finite")
    with np.errstate(under="ignore", over="ignore"):
        pairs /= width
        np.square(pairs, out=pairs)
        np.negative(pairs, out=pairs)
        np.exp(pairs, out=pairs)
    m = squareform(pairs)
    np.fill_diagonal(m, 1.0)
    return SimilarityGraph(matrix=m, sigma=width, kind="")


def voltage_similarity(data: MeterDataset, sigma=AUTO) -> SimilarityGraph:
    """Gaussian kernel on Euclidean distances between voltage rows."""
    if data.n_meters < 2:
        raise InputError("need at least 2 meters")
    g = _kernel(pdist(data.voltages), sigma)
    g.kind = "voltage"
    return g


def _pair_geo(points: np.ndarray, metric: str) -> np.ndarray:
    """Condensed i < j geodesic distances (km), one row of pairs per call."""
    if not isinstance(metric, str) or metric not in GEO_METRICS:  # a list would not hash
        raise InputError(f"unknown geo metric: {metric!r}")
    distance = GEO_METRICS[metric]
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    pairs = np.empty(n * (n - 1) // 2)
    start = 0
    for i in range(n - 1):
        pairs[start:start + n - 1 - i] = distance(points[i], points[i + 1:])
        start += n - 1 - i
    return pairs


def location_similarity(
    data: MeterDataset, sigma=AUTO, metric: str = "haversine"
) -> SimilarityGraph:
    """Gaussian kernel on geodesic distances (km) between meter coordinates."""
    if data.locations is None:
        raise InputError("dataset has no meter locations")
    g = _kernel(_pair_geo(data.locations, metric), sigma)
    g.kind = "location"
    return g


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
    if not np.isfinite(m).all():
        raise InputError("similarity entries must be finite")
    if max_asymmetry(m) > SYMMETRY_TOL:
        raise InputError("similarity matrix is not symmetric")
    if np.min(m) < -SYMMETRY_TOL or np.max(m) > 1.0 + SYMMETRY_TOL:
        raise InputError("similarity entries must lie in [0, 1]")
    return np.diag(m.sum(axis=1)) - m
