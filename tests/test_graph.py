import math
import threading
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist, squareform

import scenarios
from gridmap import graph, parts
from gridmap.errors import InputError, NumericalError
from gridmap.feeder_sim import generate_profiles, simulate_voltages
from gridmap.geo import haversine
from gridmap.graph import (
    AUTO,
    SimilarityGraph,
    _median_width,
    ideal_graph,
    laplacian,
    location_similarity,
    voltage_similarity,
)
from gridmap.ingest import MeterDataset

# exp(-(pi*6371)^2 / 1000^2) to 17 significant digits, computed with
# 60-digit arithmetic; the double-precision kernel must agree closely
ANTIPODAL_KERNEL_1000KM = 1.0471861698395963e-174


def _dataset(volts, locations=None):
    volts = np.asarray(volts, dtype=float)
    n, t = volts.shape
    return MeterDataset(
        meter_ids=[f"m{i}" for i in range(n)],
        voltages=volts,
        timestamps=[f"t{j}" for j in range(t)],
        locations=locations,
    )


def test_coincident_meters_have_similarity_one():
    data = _dataset([[1.0, 1.01, 0.99], [1.0, 1.01, 0.99], [1.05, 1.0, 1.0]])
    g = voltage_similarity(data, sigma=0.1)
    assert g.matrix[0, 1] == pytest.approx(1.0)
    assert g.matrix[0, 2] < 1.0
    assert np.all(np.diag(g.matrix) == 1.0)


def test_distance_equal_to_sigma_gives_inverse_e():
    # voltage view: two rows exactly 0.3 apart in l2
    data = _dataset([[1.0, 1.0], [1.0 + 0.3, 1.0]])
    g = voltage_similarity(data, sigma=0.3)
    assert g.matrix[0, 1] == pytest.approx(math.exp(-1.0), rel=1e-12)

    # location view: two points exactly sigma_l apart on the equator
    d_km = 25.0
    locs = np.array([[0.0, 0.0], [0.0, d_km / 6371.0]])
    geo = location_similarity(_dataset([[1.0, 1.0], [1.0, 1.0]], locs), sigma=d_km)
    assert geo.matrix[0, 1] == pytest.approx(math.exp(-1.0), rel=1e-9)


def test_antipodal_kernel_matches_high_precision_value():
    locs = np.array([[0.0, 0.0], [0.0, math.pi]])
    g = location_similarity(_dataset([[1.0, 1.0], [1.0, 1.0]], locs), sigma=1000.0)
    assert g.matrix[0, 1] == pytest.approx(ANTIPODAL_KERNEL_1000KM, rel=1e-11)
    assert g.matrix[0, 1] == pytest.approx(math.exp(-400.6), rel=1e-2)


def test_location_similarity_needs_locations():
    with pytest.raises(InputError):
        location_similarity(_dataset([[1.0, 1.0], [1.0, 1.0]]))


@pytest.mark.parametrize("build", [voltage_similarity, location_similarity])
def test_one_meter_is_an_input_error(build):
    data = _dataset([[1.0, 1.0]], np.array([[0.7, -1.8]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="need at least 2 meters"):
            build(data)


def test_identity_similarity_gives_zero_laplacian():
    lap = laplacian(np.eye(4))
    assert np.array_equal(lap, np.zeros((4, 4)))


def test_block_diagonal_similarity_gives_one_zero_eigenvalue_per_block():
    sizes = [3, 4, 2]
    m = np.zeros((9, 9))
    start = 0
    for s in sizes:
        m[start:start + s, start:start + s] = 1.0
        start += s
    w = np.linalg.eigvalsh(laplacian(m))
    assert int((np.abs(w) < 1e-8).sum()) == 3


def test_median_pairwise_branches():
    # the default width is the median of the condensed pair distances
    assert _median_width(np.array([1.0, 3.0, 2.0])) == 2.0
    # median zero (many coincident points): fall back to the mean of
    # the positive distances
    assert _median_width(np.array([6.0, 0.0, 0.0, 0.0, 0.0, 0.0])) == 6.0
    # no information at all: unit width
    assert _median_width(np.zeros(3)) == 1.0


def test_auto_sigma_is_median_distance():
    rng = np.random.default_rng(3)
    volts = 1.0 + 0.01 * rng.standard_normal((8, 30))
    data = _dataset(volts)
    g = voltage_similarity(data, sigma=AUTO)
    expected = float(np.median(pdist(volts)))
    assert g.sigma == expected
    assert g.kind == "voltage"


def test_sigma_must_be_positive():
    data = _dataset([[1.0, 1.0], [1.01, 1.0]])
    with pytest.raises(InputError):
        voltage_similarity(data, sigma=0.0)
    with pytest.raises(InputError):
        voltage_similarity(data, sigma=-1.0)


def test_laplacian_row_sums_and_psd():
    rng = np.random.default_rng(9)
    for trial in range(20):
        n = rng.integers(3, 12)
        raw = rng.uniform(0.0, 1.0, (n, n))
        m = (raw + raw.T) / 2.0
        np.fill_diagonal(m, 1.0)
        lap = laplacian(m)
        assert np.allclose(lap.sum(axis=1), 0.0, atol=1e-12)
        assert np.allclose(lap, lap.T)
        w = np.linalg.eigvalsh(lap)
        assert w.min() > -1e-10


def test_laplacian_permutation_conjugation():
    rng = np.random.default_rng(21)
    raw = rng.uniform(0.0, 1.0, (7, 7))
    m = (raw + raw.T) / 2.0
    np.fill_diagonal(m, 1.0)
    perm = rng.permutation(7)
    p = np.eye(7)[perm]
    lhs = laplacian(p @ m @ p.T)
    rhs = p @ laplacian(m) @ p.T
    assert np.allclose(lhs, rhs, atol=1e-14)


def test_laplacian_input_validation():
    with pytest.raises(InputError, match="symmetric"):
        laplacian(np.array([[1.0, 0.5], [0.2, 1.0]]))
    with pytest.raises(InputError, match="\\[0, 1\\]"):
        laplacian(np.array([[1.0, 1.5], [1.5, 1.0]]))
    with pytest.raises(InputError):
        laplacian(np.ones((2, 3)))


@pytest.mark.parametrize("bad", [
    [[1.0, np.nan], [np.nan, 1.0]],
    [[np.nan, 0.5], [0.5, 1.0]],
    [[1.0, np.inf], [np.inf, 1.0]],
], ids=["nan-pair", "nan-diagonal", "inf-pair"])
def test_laplacian_rejects_non_finite(bad):
    with pytest.raises(InputError, match="finite"):
        laplacian(np.array(bad))


def test_laplacian_accepts_graph_or_matrix():
    g = SimilarityGraph(matrix=np.eye(3), sigma=1.0, kind="voltage")
    assert np.array_equal(laplacian(g), laplacian(np.eye(3)))


def test_ideal_graph_is_binary_block_structure():
    truth = scenarios.make_truth([2, 3])
    g = ideal_graph(truth)
    expected = np.zeros((5, 5))
    expected[:2, :2] = 1.0
    expected[2:, 2:] = 1.0
    assert np.array_equal(g.matrix, expected)
    assert g.kind == "ideal"


def test_subnormal_width_clamps_silently():
    # d / 1e-320 overflows to inf for every distinct pair, and exp(-inf) = 0
    locs = np.array([[0.7, -1.8], [0.7, -1.8 + 1e-5], [0.7 + 1e-5, -1.8]])
    data = _dataset([[1.0, 1.0], [1.01, 1.0], [1.0, 1.02]], locs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g_v = voltage_similarity(data, sigma=1e-320)
        g_l = location_similarity(data, sigma=1e-320)
    assert np.array_equal(g_v.matrix, np.eye(3))
    assert np.array_equal(g_l.matrix, np.eye(3))


def scenario_datasets():
    specs = {
        "three-cluster": scenarios.three_cluster_spec(noise=1e-4, seed=1),
        "two-cluster": scenarios.two_cluster_spec(noise=5e-4, seed=2),
        "many-xfmr": scenarios.many_xfmr_spec(),
        "shrunken-gap": scenarios.shrunken_gap_spec(seed=0),
    }
    for name, spec in specs.items():
        yield name, simulate_voltages(spec, generate_profiles(spec))[0]
    yield "two-site", scenarios.two_site_case(0)[0]


SCENARIO_DATASETS = list(scenario_datasets())


@pytest.mark.parametrize("sigma", [AUTO, scenarios.MANY_XFMR_SIGMA, 1e-3, 0.05])
@pytest.mark.parametrize("name, data", SCENARIO_DATASETS)
def test_voltage_kernel_is_the_dense_formula_bit_for_bit(name, data, sigma):
    pairs = pdist(data.voltages)
    d = squareform(pairs)
    width = _median_width(pairs) if sigma == AUTO else sigma
    with np.errstate(under="ignore"):
        want = np.exp(-((d / width) ** 2))
    np.fill_diagonal(want, 1.0)
    g = voltage_similarity(data, sigma=sigma)
    assert g.sigma == width
    assert g.matrix.tobytes() == want.tobytes()


def dense_location_kernel(locations, sigma, distance):
    """The kernel from the full distance matrix, averaged with its transpose."""
    d = distance(locations[:, None, :], locations[None, :, :])
    d = 0.5 * (d + d.T)
    np.fill_diagonal(d, 0.0)
    width = _median_width(d[np.triu_indices(len(d), k=1)]) if sigma == AUTO else sigma
    with np.errstate(under="ignore"):
        m = np.exp(-((d / width) ** 2))
    np.fill_diagonal(m, 1.0)
    return m, width


# the location graph always measures haversine distances
@pytest.mark.parametrize("distance", [haversine], ids=["haversine"])
@pytest.mark.parametrize("sigma", [AUTO, 0.3, 1000.0])
@pytest.mark.parametrize("name, data", SCENARIO_DATASETS + [
    ("antipodal", _dataset(np.ones((4, 2)), np.array(
        [[0.0, 0.0], [0.0, math.pi], [0.3, -2.0], [-0.3, 2.0 - math.pi]]))),
])
def test_location_kernel_matches_the_dense_route(name, data, sigma, distance):
    want, width = dense_location_kernel(data.locations, sigma, distance)
    g = location_similarity(data, sigma=sigma)
    assert g.sigma == pytest.approx(width, rel=1e-15)
    assert np.max(np.abs(g.matrix - want)) <= 1e-15
    assert g.matrix.tobytes() == g.matrix.T.tobytes()


@pytest.mark.parametrize("block_rows", [1, 5, graph.BLOCK_ROWS])
@pytest.mark.parametrize("name, data", SCENARIO_DATASETS)
def test_location_kernel_is_the_row_by_row_haversine_bit_for_bit(monkeypatch, name, data,
                                                                 block_rows):
    monkeypatch.setattr(graph, "BLOCK_ROWS", block_rows)
    pts = data.locations
    rows = np.concatenate([haversine(pts[i], pts[i + 1:]) for i in range(len(pts) - 1)])
    with np.errstate(under="ignore"):
        want = squareform(np.exp(-np.square(rows / 0.3)))
    np.fill_diagonal(want, 1.0)
    assert location_similarity(data, sigma=0.3).matrix.tobytes() == want.tobytes()


def scenario_graphs():
    for name, data in SCENARIO_DATASETS:
        yield f"{name}-voltage", voltage_similarity(data).matrix
        if data.locations is not None:
            yield f"{name}-location", location_similarity(data).matrix
    yield "ideal", ideal_graph(scenarios.make_truth([4, 5, 6])).matrix
    # exact zeros, one of them negative: every zero of L must come out +0.0
    yield "exact-zeros", np.array([[1.0, 0.0, 0.25], [0.0, 1.0, -0.0], [0.25, -0.0, 0.0]])


@pytest.mark.parametrize("m", [pytest.param(m, id=name) for name, m in scenario_graphs()])
def test_laplacian_is_the_diagonal_formula_bit_for_bit(m):
    want = np.diag(m.sum(axis=1)) - m
    lap = laplacian(m)
    assert lap.tobytes() == want.tobytes()
    assert np.array_equal(np.signbit(lap), np.signbit(want))


# --- graphs built in row parts ---------------------------------------------------


def serial_then_split(monkeypatch, build, data, sigma, workers):
    """The graph built in one thread, then in ``workers`` row parts."""
    monkeypatch.setattr(parts, "_cpu_count", lambda: 1)
    serial = build(data, sigma=sigma)
    scenarios.split_rows(monkeypatch, workers)
    return serial, build(data, sigma=sigma)


@pytest.mark.parametrize("workers", [2, 5])
@pytest.mark.parametrize("sigma", [AUTO, 0.05])
@pytest.mark.parametrize("build", [voltage_similarity, location_similarity])
@pytest.mark.parametrize("name, data", SCENARIO_DATASETS)
def test_row_parts_build_the_serial_graph_bit_for_bit(monkeypatch, name, data, build, sigma,
                                                       workers):
    serial, split = serial_then_split(monkeypatch, build, data, sigma, workers)
    assert split.sigma == serial.sigma
    assert split.matrix.tobytes() == serial.matrix.tobytes()


@pytest.mark.parametrize("workers", [2, 3, 16])
@pytest.mark.parametrize("n", [2, 3, 7, 40])
def test_row_parts_on_few_rows_and_many_workers(monkeypatch, n, workers):
    rng = np.random.default_rng(100 * n + workers)
    volts = 1.0 + 0.01 * rng.standard_normal((n, 30))
    locs = np.radians([40.0, -105.0]) + 1e-4 * rng.standard_normal((n, 2))
    data = _dataset(volts, locs)
    blocks = []

    def counted_cdist(a, b):
        blocks.append(len(a))
        return cdist(a, b)

    monkeypatch.setattr(graph, "cdist", counted_cdist)
    for build in (voltage_similarity, location_similarity):
        for sigma in (AUTO, 0.02):
            serial, split = serial_then_split(monkeypatch, build, data, sigma, workers)
            assert split.matrix.tobytes() == serial.matrix.tobytes()
    # every voltage row but the last went through exactly one cdist block per
    # build: two widths, each built serially and split
    assert sum(blocks) == 4 * (n - 1)


@pytest.mark.parametrize("n, t", [(3, 1), (9, 7), (70, 96), (33, 2880), (130, 301)])
def test_cdist_rows_are_the_condensed_pdist_rows_bit_for_bit(n, t):
    rng = np.random.default_rng(n * t)
    volts = 1.0 + 0.01 * rng.standard_normal((n, t))
    want = pdist(volts)
    start = 0
    for height in (1, 5, 64):
        got = []
        for b0 in range(0, n - 1, height):
            block = cdist(volts[b0:b0 + height], volts[b0 + 1:])
            got += [block[i, i:] for i in range(min(height, n - 1 - b0))]
        assert np.concatenate(got).tobytes() == want.tobytes()
    for r0 in range(n - 1):
        assert pdist(volts[r0:]).tobytes() == want[start:].tobytes()
        start += n - 1 - r0


def test_subnormal_width_clamps_silently_in_row_parts(monkeypatch):
    # numpy's error state does not carry into worker threads; each part sets its own
    scenarios.split_rows(monkeypatch, 3)
    locs = np.array([[0.7, -1.8], [0.7, -1.8 + 1e-5], [0.7 + 1e-5, -1.8], [0.7, -1.8 + 2e-5]])
    data = _dataset([[1.0, 1.0], [1.01, 1.0], [1.0, 1.02], [1.03, 1.0]], locs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g_v = voltage_similarity(data, sigma=1e-320)
        g_l = location_similarity(data, sigma=1e-320)
    assert np.array_equal(g_v.matrix, np.eye(4))
    assert np.array_equal(g_l.matrix, np.eye(4))


@pytest.mark.parametrize("cost", [[0, 5, 10, 15, 20], [0, 0, 0, 10], [0, 10, 10, 10], [0, 1],
                                  [0, 9, 10, 11, 12, 13]])
@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_row_parts_cover_every_row_once(monkeypatch, cost, workers):
    scenarios.split_rows(monkeypatch, workers)
    seen = []
    parts.in_row_parts(lambda r0, r1: seen.append((r0, r1)), np.array(cost))
    seen.sort()
    assert seen[0][0] == 0 and seen[-1][1] == len(cost) - 1
    assert all(r0 < r1 for r0, r1 in seen)
    assert all(a[1] == b[0] for a, b in zip(seen, seen[1:]))
    assert len(seen) <= workers


@pytest.mark.parametrize("error", [InputError, NumericalError])
def test_an_error_in_a_worker_part_surfaces_and_no_thread_outlives_it(monkeypatch, error):
    scenarios.split_rows(monkeypatch, 4)
    before = threading.active_count()

    def cdist_failing_off_the_main_thread(a, b):
        if threading.current_thread() is not threading.main_thread():
            raise error("block failed")
        return cdist(a, b)

    monkeypatch.setattr(graph, "cdist", cdist_failing_off_the_main_thread)
    with pytest.raises(error, match="block failed"):
        voltage_similarity(SCENARIO_DATASETS[0][1], sigma=0.05)
    assert threading.active_count() == before

    # of two failing parts, the earlier one's error surfaces, as in one thread
    def work(r0, r1):
        if r0 > 0:
            raise error(f"part from row {r0}")

    with pytest.raises(error, match="part from row 3$"):
        parts.in_row_parts(work, np.arange(13))
    assert threading.active_count() == before
