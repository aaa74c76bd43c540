import itertools
import math

import numpy as np
import pytest

import scenarios
from gridmap.cluster import (
    MappingResult,
    assign_transformers,
    evaluate,
    kmeans_pp,
)
from gridmap.errors import InputError, NumericalError
from gridmap.feeder_sim import generate_profiles, simulate_voltages
from gridmap.geo import EARTH_RADIUS_KM
from gridmap.graph import laplacian, voltage_similarity
from gridmap.ingest import MeterDataset, TransformerSet
from gridmap.spectral import embed


def test_k1_puts_everything_in_one_cluster():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((40, 3))
    res = kmeans_pp(pts, 1, seed=0)
    assert np.all(res.labels == 0)
    assert np.allclose(res.centroids[0], pts.mean(axis=0))
    # inertia of a single cluster is N times the total per-point variance
    expected = pts.shape[0] * pts.var(axis=0).sum()
    assert res.inertia == pytest.approx(expected, rel=1e-12)


def test_two_blobs_recovered_in_at_least_99_of_100_seeds():
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        pts = np.vstack([
            rng.normal([0.0, 0.0], 1.0, (50, 2)),
            rng.normal([10.0, 0.0], 1.0, (50, 2)),
        ])
        res = kmeans_pp(pts, 2, seed=seed)
        lab = res.labels
        ok = (lab[:50] == lab[0]).all() and (lab[50:] == lab[50]).all() \
            and lab[0] != lab[50]
        hits += ok
    assert hits >= 99


def test_same_seed_same_answer():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((30, 4))
    a = kmeans_pp(pts, 3, seed=9)
    b = kmeans_pp(pts, 3, seed=9)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.centroids, b.centroids)
    assert a.inertia == b.inertia


def test_more_restarts_never_hurt():
    # restart r always draws from substream (seed, r), so the 10-restart
    # winner is picked from a superset of the single-restart run
    rng = np.random.default_rng(31)
    pts = np.vstack([rng.normal(c, 0.8, (15, 2)) for c in ([0, 0], [4, 0], [0, 4], [5, 5])])
    for seed in range(10):
        one = kmeans_pp(pts, 4, seed=seed, restarts=1)
        ten = kmeans_pp(pts, 4, seed=seed, restarts=10)
        assert ten.inertia <= one.inertia + 1e-12


def test_inertia_matches_labels():
    rng = np.random.default_rng(8)
    pts = rng.standard_normal((25, 3))
    res = kmeans_pp(pts, 4, seed=2)
    direct = sum(
        np.sum((pts[res.labels == c] - res.centroids[c]) ** 2)
        for c in range(4)
    )
    assert res.inertia == pytest.approx(direct, rel=1e-10)


def test_duplicate_points_do_not_crash():
    pts = np.array([[0.0, 0.0]] * 5 + [[1.0, 1.0]] * 5)
    res = kmeans_pp(pts, 3, seed=0)
    assert math.isfinite(res.inertia)
    assert res.labels.shape == (10,)


def test_kmeans_input_validation():
    pts = np.zeros((4, 2))
    with pytest.raises(InputError):
        kmeans_pp(pts, 0, seed=0)
    with pytest.raises(InputError):
        kmeans_pp(pts, 5, seed=0)
    with pytest.raises(InputError):
        kmeans_pp(np.zeros(4), 2, seed=0)
    with pytest.raises(InputError):
        kmeans_pp(pts, 2, seed=0, restarts=0)


def _dataset_at(locs_rad):
    n = len(locs_rad)
    return MeterDataset(
        meter_ids=[f"m{i}" for i in range(n)],
        voltages=np.ones((n, 4)),
        timestamps=["t0", "t1", "t2", "t3"],
        locations=np.asarray(locs_rad, dtype=float),
    )


def test_fewer_distinct_points_than_clusters_fails_numerically():
    # 4 points, 2 distinct, k = 3: the exact solution is returned without
    # Lloyd iterations, and tying it to transformers fails as numerical
    # (exit 3), not as bad input
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    km = kmeans_pp(pts, 3, seed=0)
    assert km.n_iter == 0
    assert km.inertia == 0.0
    assert np.bincount(km.labels, minlength=3).tolist() == [2, 2, 0]
    assert km.centroids.shape == (3, 2)
    lat, lon = math.radians(40.0), math.radians(-105.0)
    data = _dataset_at([[lat, lon + 0.001 * i] for i in range(4)])
    xfmrs = TransformerSet(
        xfmr_ids=["a", "b", "c"],
        locations=np.array([[lat, lon + 0.001 * j] for j in range(3)]),
    )
    with pytest.raises(NumericalError, match="only 2 of 3"):
        assign_transformers(km, data, xfmrs)


def test_cluster_at_transformer_location_takes_it():
    lat = math.radians(40.0)
    lon = math.radians(-105.0)
    off = 1.0 / (EARTH_RADIUS_KM * math.cos(lat))  # about 1 km east
    data = _dataset_at([[lat, lon], [lat, lon], [lat, lon + off], [lat, lon + off]])
    xfmrs = TransformerSet(
        xfmr_ids=["far", "here"],
        locations=np.array([[lat, lon + 30 * off], [lat, lon]]),
    )
    km = kmeans_pp(np.array([[0.0], [0.0], [5.0], [5.0]]), 2, seed=0)
    mapped = assign_transformers(km, data, xfmrs)
    cluster_of_origin = mapped.labels[0]
    assert mapped.assignment[int(cluster_of_origin)] == "here"
    assert mapped.mapping["m0"] == "here"


def test_crossed_nearest_choice_resolved_one_to_one():
    # both cluster centroids are nearest to the same transformer; the
    # one-to-one resolution must pick the bijection with the lower total
    # distance, which brute force over both bijections confirms
    lat = math.radians(40.0)
    lon = math.radians(-105.0)
    km_east = 1.0 / (EARTH_RADIUS_KM * math.cos(lat))
    meters = _dataset_at([
        [lat, lon + 0.9 * km_east],
        [lat, lon + 0.9 * km_east],
        [lat, lon + 1.1 * km_east],
        [lat, lon + 1.1 * km_east],
    ])
    xfmrs = TransformerSet(
        xfmr_ids=["x0", "x1"],
        locations=np.array([[lat, lon + km_east], [lat, lon + 3.0 * km_east]]),
    )
    km = kmeans_pp(np.array([[0.0], [0.0], [7.0], [7.0]]), 2, seed=1)
    mapped = assign_transformers(km, meters, xfmrs)

    from gridmap.geo import haversine

    geo = mapped.centroids_geo
    cost = haversine(geo[:, None, :], xfmrs.locations[None, :, :])
    # the greedy nearest choice collides on x0 here
    assert list(cost.argmin(axis=1)) == [0, 0]
    best = min(
        itertools.permutations(range(2)),
        key=lambda p: sum(cost[c, p[c]] for c in range(2)),
    )
    for c in range(2):
        assert mapped.assignment[c] == xfmrs.xfmr_ids[best[c]]
    # distinct transformers, by construction
    assert len(set(mapped.assignment.values())) == 2


def test_feeder_pipeline_mapping_matches_truth():
    spec = scenarios.two_cluster_spec(noise=0.0, seed=3)
    data, xfmrs, truth = simulate_voltages(spec, generate_profiles(spec))
    emb = embed(laplacian(voltage_similarity(data)), spec.k)
    km = kmeans_pp(emb.X, spec.k, seed=3)
    mapped = assign_transformers(km, data, xfmrs)
    assert mapped.mapping == truth.mapping


def test_without_locations_no_assignment_is_made():
    data = MeterDataset(
        meter_ids=["a", "b"],
        voltages=np.array([[1.0, 1.0], [1.01, 1.0]]),
        timestamps=["t0", "t1"],
    )
    km = kmeans_pp(data.voltages, 2, seed=0)
    mapped = assign_transformers(km, data, None)
    assert mapped.assignment is None
    assert mapped.mapping is None
    assert mapped.meter_ids == ["a", "b"]


def test_more_clusters_than_transformers_warns_and_shares():
    lat = math.radians(40.0)
    data = _dataset_at([[lat, 0.0], [lat, 1e-5], [lat, 2e-5]])
    xfmrs = TransformerSet(xfmr_ids=["only"], locations=np.array([[lat, 0.0]]))
    km = kmeans_pp(np.array([[0.0], [5.0], [10.0]]), 3, seed=0)
    with pytest.warns(UserWarning, match="share"):
        mapped = assign_transformers(km, data, xfmrs)
    assert set(mapped.assignment.values()) == {"only"}


def _pred(labels, meter_ids, k):
    labels = np.asarray(labels)
    return MappingResult(labels=labels, meter_ids=list(meter_ids), k=k)


def test_evaluate_exact_match():
    truth = scenarios.make_truth([2, 2])
    report = evaluate(_pred(truth.labels, truth.meter_ids, 2), truth)
    assert report.accuracy == 1.0
    assert report.exact_recovery
    assert report.n_meters == 4
    assert np.array_equal(report.confusion, [[2, 0], [0, 2]])


def test_evaluate_is_permutation_invariant():
    truth = scenarios.make_truth([2, 3])
    renamed = 1 - truth.labels          # swap the two cluster names
    report = evaluate(_pred(renamed, truth.meter_ids, 2), truth)
    assert report.accuracy == 1.0
    assert report.exact_recovery


def test_evaluate_counts_misassignments():
    truth = scenarios.make_truth([3, 3])
    wrong = truth.labels.copy()
    wrong[0] = 1                        # one meter on the wrong side
    report = evaluate(_pred(wrong, truth.meter_ids, 2), truth)
    assert report.accuracy == pytest.approx(5.0 / 6.0)
    assert not report.exact_recovery


def test_evaluate_handles_empty_predicted_cluster():
    truth = scenarios.make_truth([2, 2])
    # k=3 declared, only clusters 0 and 2 used
    report = evaluate(_pred([0, 0, 2, 2], truth.meter_ids, 3), truth)
    assert report.accuracy == 1.0
    assert report.confusion.shape == (3, 2)


def test_evaluate_meter_set_mismatch():
    truth = scenarios.make_truth([2, 2])
    with pytest.raises(InputError, match="different meters"):
        evaluate(_pred([0, 0, 1, 1], ["z0", "z1", "z2", "z3"], 2), truth)

