"""k-means++ clustering, transformer assignment, and label evaluation.

Clustering runs on embedding rows (or raw voltage rows for the baseline).
Each restart draws from its own seeded substream, so results are
reproducible and adding restarts can only improve the selected inertia.
Clusters are then tied to physical transformers through their members'
mean coordinates, and label quality is scored against the reference
assignment under the best one-to-one label matching.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InputError, NumericalError
from .geo import haversine
from .ingest import GroundTruth, MeterDataset, TransformerSet


@dataclass
class KMeansResult:
    labels: np.ndarray          # (N,)
    centroids: np.ndarray       # (k, dim)
    inertia: float
    seed: int
    restarts_used: int
    n_iter: int                 # Lloyd iterations of the selected restart


@dataclass
class MappingResult:
    labels: np.ndarray
    meter_ids: list[str]
    k: int
    centroids_geo: np.ndarray | None = None        # (k, 2) radians
    assignment: dict[int, str] | None = None       # cluster -> xfmr_id
    mapping: dict[str, str] | None = None          # meter_id -> xfmr_id


@dataclass
class EvalReport:
    accuracy: float
    exact_recovery: bool
    confusion: np.ndarray       # (k_pred, k_true) counts
    n_meters: int


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


def _lloyd(points, centroids, max_iter, tol):
    n, k = points.shape[0], centroids.shape[0]
    prev_inertia = np.inf
    labels = np.zeros(n, dtype=int)
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
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
            if abs(prev_inertia - inertia) <= tol * max(inertia, 1e-300):
                prev_inertia = inertia
                break
        prev_inertia = inertia
    return labels, centroids, prev_inertia, n_iter


def kmeans_pp(
    points: np.ndarray,
    k: int,
    seed: int,
    restarts: int = 10,
    max_iter: int = 300,
    tol: float = 1e-9,
) -> KMeansResult:
    """k-means++ (D^2 seeding plus Lloyd), best of ``restarts`` runs.

    Restart r draws from substream (seed, r), independent of how many
    restarts run, and the winner is chosen by (inertia, restart index).
    With fewer distinct points than k, the exact solution is returned
    without iterating: one cluster per distinct point, the others empty.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise InputError("points must be a 2-D array")
    if not 1 <= k <= points.shape[0]:
        raise InputError(f"k must satisfy 1 <= k <= N, got k={k}, N={points.shape[0]}")
    if restarts < 1:
        raise InputError("restarts must be positive")
    if len({row.tobytes() for row in points + 0.0}) < k:  # + 0.0 folds -0.0 into 0.0
        # one cluster per distinct point is exact (inertia 0) and leaves the
        # rest empty whatever Lloyd does; it would only reseed them for max_iter
        distinct, inverse = np.unique(points, axis=0, return_inverse=True)
        return KMeansResult(
            labels=inverse.reshape(-1),
            centroids=np.resize(distinct, (k, points.shape[1])),
            inertia=0.0,
            seed=seed,
            restarts_used=restarts,
            n_iter=0,
        )

    best = None
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
        centroids = _plusplus_seed(points, k, rng)
        labels, centroids, inertia, n_iter = _lloyd(points, centroids.copy(), max_iter, tol)
        if best is None or inertia < best[0]:
            best = (inertia, r, labels, centroids, n_iter)

    inertia, r, labels, centroids, n_iter = best
    return KMeansResult(
        labels=labels,
        centroids=centroids,
        inertia=inertia,
        seed=seed,
        restarts_used=restarts,
        n_iter=n_iter,
    )


def assign_transformers(
    result: KMeansResult,
    data: MeterDataset,
    xfmrs: TransformerSet | None,
) -> MappingResult:
    """Tie clusters to transformers by geographic proximity.

    Each cluster's coordinate is the arithmetic mean of its members'
    (lat, lon) in radians. Clusters take their haversine-nearest
    transformer; if that collides and there are at least as many
    transformers as clusters, the conflict is resolved by the global
    minimum-cost one-to-one matching. Without meter locations (or without
    a transformer file) the labels are returned with no assignment.
    """
    out = MappingResult(
        labels=result.labels, meter_ids=list(data.meter_ids), k=result.centroids.shape[0]
    )
    return attach_transformers(out, data, xfmrs)


def attach_transformers(
    out: MappingResult, data: MeterDataset, xfmrs: TransformerSet | None
) -> MappingResult:
    """Fill the geographic half of a MappingResult in place (and return it)."""
    k = out.k
    if data.locations is None or xfmrs is None:
        return out

    geo = np.empty((k, 2))
    for c in range(k):
        members = out.labels == c
        if not members.any():
            filled = np.unique(out.labels).size
            raise NumericalError(
                f"cluster {c} is empty: the points fill only {filled} of {k} clusters"
            )
        geo[c] = data.locations[members].mean(axis=0)
    out.centroids_geo = geo

    cost = haversine(geo[:, None, :], xfmrs.locations[None, :, :])
    nearest = cost.argmin(axis=1)
    if len(set(nearest.tolist())) < k and k <= xfmrs.n_transformers:
        rows, cols = linear_sum_assignment(cost)
        chosen = np.empty(k, dtype=int)
        chosen[rows] = cols
    else:
        if len(set(nearest.tolist())) < k:
            warnings.warn(
                "more clusters than transformers; several clusters share a transformer"
            )
        chosen = nearest

    out.assignment = {c: xfmrs.xfmr_ids[chosen[c]] for c in range(k)}
    out.mapping = {
        m: out.assignment[int(out.labels[i])] for i, m in enumerate(data.meter_ids)
    }
    return out


def evaluate(pred: MappingResult, truth: GroundTruth) -> EvalReport:
    """Score predicted labels against the reference under the best matching.

    Accuracy is the fraction of meters kept by the maximum-agreement
    one-to-one matching between predicted clusters and true groups, so it
    is invariant to renaming clusters. exact_recovery means accuracy 1.0.
    """
    if set(pred.meter_ids) != set(truth.meter_ids):
        raise InputError("prediction and reference cover different meters")
    truth_of = {m: int(truth.labels[i]) for i, m in enumerate(truth.meter_ids)}
    t_labels = np.array([truth_of[m] for m in pred.meter_ids])

    k_pred = max(pred.k, int(pred.labels.max()) + 1)
    k_true = truth.k
    confusion = np.zeros((k_pred, k_true), dtype=int)
    np.add.at(confusion, (pred.labels, t_labels), 1)

    rows, cols = linear_sum_assignment(-confusion)
    matched = int(confusion[rows, cols].sum())
    n = len(pred.meter_ids)
    return EvalReport(
        accuracy=matched / n,
        exact_recovery=matched == n,
        confusion=confusion,
        n_meters=n,
    )
