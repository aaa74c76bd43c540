"""The loop-based k-means++ that ``gridmap.cluster`` is tested against.

Seeding takes each D^2 row by row from differences and draws with
``Generator.choice``; Lloyd's update takes each centroid as the masked
``mean`` of its members. ``gridmap.cluster`` computes the same picks,
labels and centroid bits with array operations; the tests compare the two
bit for bit. Both ``kmeans_pp`` wrappers cluster the same centered input.
"""
import numpy as np

from gridmap.cluster import MAX_ITER, TOL, KMeansResult
from gridmap.errors import InputError, NumericalError


def _seed_distances(points, centroid):
    d = points - centroid
    return np.einsum("ij,ij->i", d, d)


def _plusplus_seed(points: np.ndarray, k: int, rng) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    dist_sq = _seed_distances(points, centroids[0])
    for c in range(1, k):
        total = dist_sq.sum()
        if total > 0.0:
            idx = rng.choice(n, p=dist_sq / total)
        else:
            idx = rng.integers(n)  # all remaining points coincide with a centroid
        centroids[c] = points[idx]
        dist_sq = np.minimum(dist_sq, _seed_distances(points, centroids[c]))
    return centroids


def _lloyd(points, centroids):
    n, k = points.shape[0], centroids.shape[0]
    prev_inertia = np.inf
    labels = np.zeros(n, dtype=int)
    n_iter = 0
    for n_iter in range(1, MAX_ITER + 1):
        sq = (
            np.einsum("ij,ij->i", points, points)[:, None]
            - 2.0 * points @ centroids.T
            + np.einsum("ij,ij->i", centroids, centroids)[None, :]
        )
        labels = sq.argmin(axis=1)
        inertia = float(np.maximum(sq[np.arange(n), labels], 0.0).sum())

        reseeded = False
        for c in range(k):
            members = labels == c
            if members.any():
                centroids[c] = points[members].mean(axis=0)
            else:
                # reseed an empty cluster at the point farthest from its
                # current centroid; inertia may rise on this iteration
                far = np.maximum(sq[np.arange(n), labels], 0.0).argmax()
                centroids[c] = points[far]
                reseeded = True

        if not reseeded:
            if inertia > prev_inertia + 1e-12 * (1.0 + abs(prev_inertia)):
                raise NumericalError(
                    f"Lloyd inertia increased from {prev_inertia!r} to {inertia!r}"
                )
            if abs(prev_inertia - inertia) <= TOL * max(inertia, 1e-300):
                prev_inertia = inertia
                break
        prev_inertia = inertia
    return labels, centroids, prev_inertia, n_iter


def kmeans_pp(
    points: np.ndarray,
    k: int,
    seed: int,
    restarts: int = 10,
) -> KMeansResult:
    """Best of ``restarts`` runs of the loop-based seeding plus Lloyd, on
    the points less their column mean, which the centroids get back."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise InputError("points must be a 2-D array")
    if not 1 <= k <= points.shape[0]:
        raise InputError(f"k must satisfy 1 <= k <= N, got k={k}, N={points.shape[0]}")
    if restarts < 1:
        raise InputError("restarts must be positive")
    if len({row.tobytes() for row in points + 0.0}) < k:  # + 0.0 folds -0.0 into 0.0
        distinct, inverse = np.unique(points, axis=0, return_inverse=True)
        return KMeansResult(
            labels=inverse.reshape(-1),
            centroids=np.resize(distinct, (k, points.shape[1])),
            inertia=0.0,
            n_iter=0,
        )

    mean = points.mean(axis=0)
    centered = points - mean
    best = None
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
        centroids = _plusplus_seed(centered, k, rng)
        labels, centroids, inertia, n_iter = _lloyd(centered, centroids.copy())
        if best is None or inertia < best[0]:
            best = (inertia, labels, centroids, n_iter)

    inertia, labels, centroids, n_iter = best
    return KMeansResult(
        labels=labels, centroids=centroids + mean, inertia=inertia, n_iter=n_iter
    )
