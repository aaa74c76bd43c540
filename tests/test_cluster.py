import itertools
import math
import types
import warnings

import numpy as np
import pytest

import reference_kmeans
import scenarios
from gridmap import cluster
from gridmap.cluster import (
    KMeansResult,
    MappingResult,
    _draws,
    _lloyd,
    _plusplus_seeds,
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


def test_more_restarts_never_hurt(monkeypatch):
    # restart r always draws from substream (seed, r), so the 10-restart
    # winner is picked from a superset of the single-restart run
    rng = np.random.default_rng(31)
    pts = np.vstack([rng.normal(c, 0.8, (15, 2)) for c in ([0, 0], [4, 0], [0, 4], [5, 5])])
    for seed in range(10):
        monkeypatch.setattr(cluster, "RESTARTS", 1)
        one = kmeans_pp(pts, 4, seed=seed)
        monkeypatch.setattr(cluster, "RESTARTS", 10)
        ten = kmeans_pp(pts, 4, seed=seed)
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


def test_lloyd_reseeds_an_empty_cluster():
    # the centroid at 50 draws no points on the first pass; it is reseeded
    # at the farthest point, and that pass skips the monotonicity check
    pts = np.array([[0.0], [0.1], [1.0], [1.1]])
    labels, centroids, inertia, _ = _lloyd(pts, np.array([[0.0], [1.0], [50.0]]))
    assert np.bincount(labels, minlength=3).min() >= 1
    direct = sum(np.sum((pts[labels == c] - pts[labels == c].mean(axis=0)) ** 2)
                 for c in range(3))
    assert inertia == pytest.approx(direct, rel=1e-10)


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


# --- bit-for-bit agreement with the loop-based reference -------------------

SCALES = (1e-6, 1e-3, 1.0, 1e3)
KINDS = ("spread", "duplicates", "one-ulp", "tight")


def _points(kind, rng, n, d, scale):
    if kind == "spread":
        return scale * rng.standard_normal((n, d))
    centers = scale * rng.standard_normal((int(rng.integers(1, n + 1)), d))
    pts = centers[rng.integers(len(centers), size=n)]
    if kind == "one-ulp":
        moved = rng.random((n, d)) < 0.5
        pts[moved] = np.nextafter(pts[moved], np.inf)
    elif kind == "tight":
        pts = pts + 1e-9 * scale * rng.standard_normal((n, d))
    return pts


def _outcome(run):
    """A run's labels, centroid and inertia bits and n_iter, or its error."""
    try:
        result = run()
    except NumericalError as exc:
        return str(exc)
    if isinstance(result, KMeansResult):
        result = (result.labels, result.centroids, result.inertia, result.n_iter)
    labels, centroids, inertia, n_iter = result
    return labels.tobytes(), centroids.tobytes(), float(inertia).hex(), n_iter


def _case(kind, i):
    """Input i of a kind: within each kind, every 6th has k = 1, the next
    k = N, every 5th d = 1, and every 4th takes 3 restarts instead of 1."""
    rng = np.random.default_rng([KINDS.index(kind), i])
    n = int(rng.integers(2, 16))
    d = 1 if i % 5 == 0 else int(rng.integers(2, 6))
    k = {0: 1, 1: n}.get(i % 6, int(rng.integers(1, n + 1)))
    pts = _points(kind, rng, n, d, SCALES[i % len(SCALES)])
    return pts, k, 3 if i % 4 == 1 else 1


@pytest.mark.parametrize("kind", KINDS)
def test_kmeans_matches_the_reference_bit_for_bit(kind, monkeypatch):
    # 4 x 120 inputs; the reference clusters the same centered points
    for i in range(120):
        pts, k, restarts = _case(kind, i)
        monkeypatch.setattr(cluster, "RESTARTS", restarts)
        got = _outcome(lambda: kmeans_pp(pts, k, seed=i))
        want = _outcome(lambda: reference_kmeans.kmeans_pp(pts, k, seed=i, restarts=restarts))
        assert got == want


@pytest.mark.parametrize("kind, i", [("one-ulp", 99), ("tight", 3), ("tight", 11), ("tight", 91)])
def test_near_duplicates_far_from_the_origin_do_not_fail(kind, i, monkeypatch):
    # coordinates near 2 000, spread 1e-6 or one ulp: uncentered, the
    # expanded distance's rounding outgrew the distances and Lloyd raised
    # "inertia increased" on these four inputs
    pts, k, restarts = _case(kind, i)
    monkeypatch.setattr(cluster, "RESTARTS", restarts)
    km = kmeans_pp(pts, k, seed=i)
    assert np.abs(pts).max() > 1e3
    assert km.labels.shape == (len(pts),) and 0 <= km.labels.min() <= km.labels.max() < k
    assert math.isfinite(km.inertia)
    if kind == "tight":
        assert km.n_iter <= 3
        assert np.bincount(km.labels, minlength=k).min() > 0


def test_two_near_duplicates_far_from_the_origin_split():
    # uncentered, Lloyd could not tell these apart: labels [0, 0] and an
    # empty cluster after all MAX_ITER iterations
    km = kmeans_pp(np.array([[1000.0, 2000, -500], [1000.000001, 2000, -500]]), 2, seed=0)
    assert km.labels.tolist() == [1, 0]
    assert km.n_iter == 2


def test_lloyd_reseeds_match_the_reference_bit_for_bit():
    # one starting centroid lies far outside the data and another repeats a
    # point, so the first pass leaves at least one cluster empty
    for i in range(60):
        rng = np.random.default_rng([9, i])
        n, d = int(rng.integers(4, 16)), 1 + i % 3
        scale = SCALES[i % len(SCALES)]
        pts = _points(KINDS[i % len(KINDS)], rng, n, d, scale)
        k = int(rng.integers(3, n + 1))
        start = pts[rng.choice(n, k, replace=False)]
        start[0] = 1e6 * scale
        start[1] = start[2]
        assert _outcome(lambda: _lloyd(pts, start.copy())) == _outcome(
            lambda: reference_kmeans._lloyd(pts, start.copy())
        )


def test_seeding_matches_the_reference_bit_for_bit():
    for i in range(60):
        rng = np.random.default_rng([10, i])
        n, d = int(rng.integers(2, 80)), int(rng.integers(1, 6))
        pts = _points(KINDS[i % len(KINDS)], rng, n, d, SCALES[i % len(SCALES)])
        k = int(rng.integers(1, n + 1))
        ours, theirs = np.random.default_rng(i), np.random.default_rng(i)
        got = _plusplus_seeds(pts, k, [ours])[0]
        want = reference_kmeans._plusplus_seed(pts, k, theirs)
        assert got.tobytes() == want.tobytes()
        assert ours.bit_generator.state == theirs.bit_generator.state


def _substream(seed, r):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))


def test_lockstep_seeding_matches_lone_runs():
    # restart r's picks and final generator state are those of a lone
    # seeding from the same generator, and of the loop-based reference
    for i in range(40):
        rng = np.random.default_rng([13, i])
        n, d = int(rng.integers(2, 60)), int(rng.integers(1, 5))
        pts = _points(KINDS[i % len(KINDS)], rng, n, d, SCALES[i % len(SCALES)])
        k, restarts = int(rng.integers(1, n + 1)), int(rng.integers(1, 32))
        lockstep = [_substream(i, r) for r in range(restarts)]
        got = _plusplus_seeds(pts, k, lockstep)
        assert got.shape == (restarts, k, d)
        for r in range(restarts):
            lone, loop = _substream(i, r), _substream(i, r)
            assert got[r].tobytes() == _plusplus_seeds(pts, k, [lone])[0].tobytes()
            assert got[r].tobytes() == reference_kmeans._plusplus_seed(pts, k, loop).tobytes()
            assert lockstep[r].bit_generator.state == lone.bit_generator.state
            assert lockstep[r].bit_generator.state == loop.bit_generator.state


def test_a_restarts_result_does_not_depend_on_the_restart_count(monkeypatch):
    # each Lloyd run's starting centroids and result, in call order
    runs = []

    def recorded(points, centroids):
        start = centroids.tobytes()
        labels, centroids, inertia, n_iter = _lloyd(points, centroids)
        runs.append((start, labels.tobytes(), centroids.tobytes(), inertia, n_iter))
        return labels, centroids, inertia, n_iter

    monkeypatch.setattr(cluster, "_lloyd", recorded)
    rng = np.random.default_rng(14)
    pts = np.vstack([rng.normal(c, 0.9, (12, 2)) for c in ([0, 0], [4, 0], [0, 4], [5, 5])])
    counts = (1, 3, 10, 37)
    by_count = {}
    for restarts in counts:
        runs.clear()
        monkeypatch.setattr(cluster, "RESTARTS", restarts)
        kmeans_pp(pts, 4, seed=3)
        by_count[restarts] = list(runs)
        assert len(runs) == restarts
    longest = by_count[counts[-1]]
    for restarts in counts:
        assert by_count[restarts] == longest[:restarts]
    assert len({start for start, *_ in longest}) > 1


def test_restarts_take_the_coincident_branch_independently(monkeypatch):
    # 0 and a lie closer than the square root of the smallest subnormal, as
    # do a and b, but 0 and b do not: a restart that picks a first finds
    # every squared distance 0 and picks uniformly; the others draw
    a, b = 1.5e-162, 3e-162
    assert (a - 0.0) ** 2 == (b - a) ** 2 == 0.0 < (b - 0.0) ** 2
    pts = np.array([[0.0], [a], [b]])
    restarts = 35
    monkeypatch.setattr(cluster, "RESTARTS", restarts)
    firsts = [_substream(5, r).integers(3) for r in range(restarts)]
    assert 0 < firsts.count(1) < restarts
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _plusplus_seeds(pts, 2, [_substream(5, r) for r in range(restarts)])
        result = kmeans_pp(pts, 2, seed=5)
    for r in range(restarts):
        want = reference_kmeans._plusplus_seed(pts, 2, _substream(5, r))
        assert got[r].tobytes() == want.tobytes()
    assert _outcome(lambda: result) == _outcome(
        lambda: reference_kmeans.kmeans_pp(pts, 2, seed=5, restarts=restarts)
    )


def test_the_lowest_failing_restart_raises(monkeypatch):
    # on "tight" input 63, Lloyd raises "inertia increased" in most
    # restarts (ROADMAP item 7); at seed 9 restart 0 converges and restarts
    # 1 and 2 raise different messages. Restarts run in index order, so
    # restart 1's is raised, as in the loop-based reference
    pts, k, _ = _case("tight", 63)
    centered = pts - pts.mean(axis=0)
    messages = []
    for r in range(3):
        seeds = _plusplus_seeds(centered, k, [_substream(9, r)])[0]
        messages.append(_outcome(lambda: _lloyd(centered, seeds)))
    assert not isinstance(messages[0], str)
    assert all("inertia increased" in m for m in messages[1:])
    assert messages[1] != messages[2]
    restarts = 20
    monkeypatch.setattr(cluster, "RESTARTS", restarts)
    got = _outcome(lambda: kmeans_pp(pts, k, seed=9))
    assert got == messages[1]
    assert got == _outcome(lambda: reference_kmeans.kmeans_pp(pts, k, seed=9, restarts=restarts))


def test_draw_is_generator_choice():
    for i in range(300):
        rng = np.random.default_rng([11, i])
        w = rng.random(int(rng.integers(1, 50)))
        w[rng.random(w.size) < 0.3] = 0.0
        w[rng.integers(w.size)] = rng.random() + 0.5  # at least one positive weight
        p = w / w.sum()
        ours, theirs = np.random.default_rng(i), np.random.default_rng(i)
        assert _draws(p[None, :], [ours])[0] == theirs.choice(p.size, p=p)
        assert ours.bit_generator.state == theirs.bit_generator.state
    # a draw landing exactly on a step of the cdf never takes a zero weight
    p = np.array([0.0, 0.5, 0.0, 0.5])
    assert _draws(p[None, :], [types.SimpleNamespace(random=lambda: 0.0)])[0] == 1
    assert _draws(p[None, :], [types.SimpleNamespace(random=lambda: 0.5)])[0] == 3


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


def test_distinct_nearest_transformers_are_the_matching():
    # wherever every cluster's nearest transformer is a different one, the
    # minimum-cost matching takes exactly those transformers
    from gridmap.geo import haversine

    distinct = 0
    for seed in range(300):
        rng = np.random.default_rng([17, seed])
        k = int(rng.integers(1, 13))
        n_x = k + int(rng.integers(0, 6))
        lat0, lon0 = math.radians(rng.uniform(-60, 60)), math.radians(rng.uniform(-170, 170))
        xfmr_locs = np.column_stack([lat0 + rng.uniform(0, 1e-3, n_x),
                                     lon0 + rng.uniform(0, 1e-3, n_x)])
        # each cluster near a transformer of its own, by a random spread
        near = xfmr_locs[rng.permutation(n_x)[:k]]
        meter_locs = near + rng.normal(0.0, rng.choice([1e-5, 1e-4, 3e-4]), (k, 2))
        xfmrs = TransformerSet(xfmr_ids=[f"x{j}" for j in range(n_x)], locations=xfmr_locs)
        km = KMeansResult(labels=np.arange(k), centroids=np.zeros((k, 1)), inertia=0.0, n_iter=0)
        mapped = assign_transformers(km, _dataset_at(meter_locs), xfmrs)
        nearest = haversine(meter_locs[:, None, :], xfmr_locs[None, :, :]).argmin(axis=1)
        if np.unique(nearest).size == k:
            distinct += 1
            assert mapped.assignment == {c: f"x{nearest[c]}" for c in range(k)}
        assert len(set(mapped.assignment.values())) == k
    assert 100 <= distinct < 300  # both kinds of layout are drawn


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

