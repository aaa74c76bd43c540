"""k-means++ clustering, transformer assignment, and label evaluation.

Clustering runs on embedding rows (or raw voltage rows for the baseline).
Each restart draws from its own seeded substream, so results are
reproducible and adding restarts can only improve the selected inertia.

``kmeans_pp`` clusters the points less their column mean and adds the
mean back to the centroids. k-means is translation-invariant, and points
far from the origin would otherwise lose their distances to the rounding
of the expanded form below.

Both inner loops are array operations that give the same bits as the
row-by-row loops kept in ``tests/reference_kmeans.py``:

- Seeding runs all RESTARTS restarts in lockstep. Each step takes the
  squared distances to every restart's latest pick as
  |x|^2 - 2 x.c + |c|^2, one matrix product. Where that cancels (at most
  1e-6 (|x|^2 + |c|^2)) the entries are recomputed from differences, so
  points on or next to a centroid keep the exact weights the loop gives
  them. Each pick is the cumulative-sum search that ``Generator.choice``
  makes from one ``rng.random()`` draw of that restart's own generator,
  so every generator's stream and every pick are unchanged.
- Lloyd's update groups the rows by label with one stable sort. Each
  centroid is the axis-0 sum of its group's slice over the count: the
  same rows in the same order as ``points[labels == c].mean(axis=0)``.

Clusters are then tied to physical transformers through their members'
mean coordinates, by the minimum-cost one-to-one matching (each to its
nearest when clusters outnumber transformers), and label quality is
scored against the reference assignment under the best one-to-one label
matching.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InputError, NumericalError
from .geo import pairwise_geo
from .ingest import GroundTruth, MeterDataset, TransformerSet

MAX_ITER = 300      # Lloyd iterations per restart
TOL = 1e-9          # relative inertia change that ends Lloyd
RESTARTS = 10       # k-means++ runs per call, seeded together; the lowest inertia wins


@dataclass
class KMeansResult:
    labels: np.ndarray          # (N,)
    centroids: np.ndarray       # (k, dim)
    inertia: float
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


def _draws(p: np.ndarray, rngs) -> np.ndarray:
    """One pick per row of ``p``: row r's is ``rngs[r].choice(n, p=p[r])``,
    the same index from the same single ``random()`` draw, without
    choice's validation of ``p``."""
    cdf = np.cumsum(p, axis=1)
    cdf /= cdf[:, -1:]
    return np.array(
        [row.searchsorted(rng.random(), side="right") for row, rng in zip(cdf, rngs)],
        dtype=np.intp,
    )


def _sq_distances(points: np.ndarray, norms: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """Squared distances from each picked row to every row of ``points``,
    one row of the (len(picks), N) result per pick.

    |x|^2 - 2 x.c + |c|^2 is one matrix product for all picks, but it
    cancels when x is near c; entries where it gives at most
    1e-6 (|x|^2 + |c|^2) are taken from differences instead, so duplicates
    of c score exactly 0.
    """
    picked = norms[picks, None]
    d = points[picks] @ points.T
    d *= 2.0
    np.subtract(norms, d, out=d)
    d += picked
    rows, cols = np.nonzero(d <= 1e-6 * (norms + picked))
    if rows.size:
        diff = points[cols] - points[picks[rows]]
        d[rows, cols] = np.einsum("ij,ij->i", diff, diff)
    return d


def _plusplus_seeds(points: np.ndarray, k: int, rngs) -> np.ndarray:
    """k-means++ seeds for each generator in ``rngs``, (len(rngs), k, dim).

    The restarts step in lockstep: each step takes every restart's
    distances to its latest pick in one product and one (R, N) minimum,
    sum and cumulative sum. Each generator is drawn from exactly as a
    lone seeding would draw from it, so its picks do not depend on the
    others.
    """
    n = points.shape[0]
    norms = np.einsum("ij,ij->i", points, points)
    centroids = np.empty((len(rngs), k, points.shape[1]))
    picks = np.array([rng.integers(n) for rng in rngs], dtype=np.intp)
    centroids[:, 0] = points[picks]
    dist_sq = _sq_distances(points, norms, picks)
    for c in range(1, k):
        totals = dist_sq.sum(axis=1)
        live = totals > 0.0
        p = dist_sq[live]
        p /= totals[live, None]
        picks[live] = _draws(p, [rngs[r] for r in np.flatnonzero(live)])
        for r in np.flatnonzero(~live):
            picks[r] = rngs[r].integers(n)  # all remaining points coincide with a centroid
        centroids[:, c] = points[picks]
        np.minimum(dist_sq, _sq_distances(points, norms, picks), out=dist_sq)
    return centroids


def _lloyd(points, centroids):
    n, k = points.shape[0], centroids.shape[0]
    norms = np.einsum("ij,ij->i", points, points)[:, None]
    twice = 2.0 * points
    rows = np.arange(n)
    prev_inertia = np.inf
    labels = np.zeros(n, dtype=int)
    n_iter = 0
    for n_iter in range(1, MAX_ITER + 1):
        # |x|^2 - 2 x.c + |c|^2, built in place in the product's buffer
        sq = twice @ centroids.T
        np.subtract(norms, sq, out=sq)
        sq += np.einsum("ij,ij->i", centroids, centroids)
        labels = sq.argmin(axis=1)
        nearest = np.maximum(sq[rows, labels], 0.0)
        inertia = float(nearest.sum())

        # a stable sort keeps each cluster's members in index order, so each
        # slice holds the rows points[labels == c] would, in the same order
        grouped = points[np.argsort(labels, kind="stable")]
        counts = np.bincount(labels, minlength=k).tolist()
        start = 0
        reseeded = False
        for c, count in enumerate(counts):
            if count:
                centroids[c] = grouped[start:start + count].sum(axis=0) / count
                start += count
            else:
                # reseed an empty cluster at the point farthest from its
                # current centroid; inertia may rise on this iteration
                centroids[c] = points[nearest.argmax()]
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


def kmeans_pp(points: np.ndarray, k: int, seed: int) -> KMeansResult:
    """k-means++ (D^2 seeding plus Lloyd), best of ``RESTARTS`` runs.

    Restart r draws from substream (seed, r), independent of how many
    restarts run, and the winner is chosen by (inertia, restart index).
    With fewer distinct points than k, the exact solution is returned
    without iterating: one cluster per distinct point, the others empty.
    Otherwise the points are clustered less their column mean.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise InputError("points must be a 2-D array")
    if not 1 <= k <= points.shape[0]:
        raise InputError(f"k must satisfy 1 <= k <= N, got k={k}, N={points.shape[0]}")
    if len({row.tobytes() for row in points + 0.0}) < k:  # + 0.0 folds -0.0 into 0.0
        # one cluster per distinct point is exact (inertia 0) and leaves the
        # rest empty whatever Lloyd does; it would only reseed them for MAX_ITER
        distinct, inverse = np.unique(points, axis=0, return_inverse=True)
        return KMeansResult(
            labels=inverse.reshape(-1),
            centroids=np.resize(distinct, (k, points.shape[1])),
            inertia=0.0,
            n_iter=0,
        )

    mean = points.mean(axis=0)
    centered = points - mean
    rngs = [
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
        for r in range(RESTARTS)
    ]
    best = None
    for centroids in _plusplus_seeds(centered, k, rngs):
        labels, centroids, inertia, n_iter = _lloyd(centered, centroids)
        if best is None or inertia < best[0]:
            best = (inertia, labels, centroids, n_iter)

    inertia, labels, centroids, n_iter = best
    return KMeansResult(
        labels=labels, centroids=centroids + mean, inertia=inertia, n_iter=n_iter
    )


def assign_transformers(
    result: KMeansResult,
    data: MeterDataset,
    xfmrs: TransformerSet | None,
) -> MappingResult:
    """Tie clusters to transformers by geographic proximity.

    Each cluster's coordinate is the arithmetic mean of its members'
    (lat, lon) in radians. With at least as many transformers as
    clusters, the clusters take the one-to-one matching that minimizes the
    total haversine distance; where every cluster's nearest transformer is
    a different one, that matching is those nearest transformers. With
    more clusters than transformers, each cluster takes its nearest
    transformer, with a warning that some share one. Without meter
    locations (or without a transformer file) the labels are returned with
    no assignment.
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

    cost = pairwise_geo(geo, xfmrs.locations)
    if k <= xfmrs.n_transformers:
        # with no more rows than columns, every row is matched, in row order
        chosen = linear_sum_assignment(cost)[1]
    else:
        warnings.warn("more clusters than transformers; several clusters share a transformer")
        chosen = cost.argmin(axis=1)

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
