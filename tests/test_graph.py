import math
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

import scenarios
from gridmap.errors import InputError
from gridmap.feeder_sim import generate_profiles, simulate_voltages
from gridmap.geo import pairwise_geo
from gridmap.graph import (
    AUTO,
    SimilarityGraph,
    ideal_graph,
    laplacian,
    location_similarity,
    median_pairwise,
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
    d = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]])
    assert median_pairwise(d) == 2.0
    # median zero (many coincident points): fall back to the mean of
    # the positive distances
    d2 = np.zeros((4, 4))
    d2[0, 1] = d2[1, 0] = 6.0
    assert median_pairwise(d2) == 6.0
    # no information at all: unit width
    assert median_pairwise(np.zeros((3, 3))) == 1.0
    # an (N, T) voltage matrix is not a distance matrix, whether T < N or T >= N
    rng = np.random.default_rng(0)
    for shape in ((5, 3), (5, 8)):
        with pytest.raises(InputError, match="square"):
            median_pairwise(rng.random(shape))


def test_auto_sigma_is_median_distance():
    rng = np.random.default_rng(3)
    volts = 1.0 + 0.01 * rng.standard_normal((8, 30))
    data = _dataset(volts)
    g = voltage_similarity(data, sigma=AUTO)
    expected = median_pairwise(squareform(pdist(volts)))
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
    d = squareform(pdist(data.voltages))
    width = median_pairwise(d) if sigma == AUTO else sigma
    with np.errstate(under="ignore"):
        want = np.exp(-((d / width) ** 2))
    np.fill_diagonal(want, 1.0)
    g = voltage_similarity(data, sigma=sigma)
    assert g.sigma == width
    assert g.matrix.tobytes() == want.tobytes()


def dense_location_kernel(locations, sigma, metric):
    """The kernel from the full distance matrix, averaged with its transpose."""
    d = pairwise_geo(locations, metric=metric)
    d = 0.5 * (d + d.T)
    np.fill_diagonal(d, 0.0)
    width = median_pairwise(d) if sigma == AUTO else sigma
    with np.errstate(under="ignore"):
        m = np.exp(-((d / width) ** 2))
    np.fill_diagonal(m, 1.0)
    return m, width


@pytest.mark.parametrize("metric", ["haversine", "euclidean-angle"])
@pytest.mark.parametrize("sigma", [AUTO, 0.3, 1000.0])
@pytest.mark.parametrize("name, data", SCENARIO_DATASETS + [
    ("antipodal", _dataset(np.ones((4, 2)), np.array(
        [[0.0, 0.0], [0.0, math.pi], [0.3, -2.0], [-0.3, 2.0 - math.pi]]))),
])
def test_location_kernel_matches_the_dense_route(name, data, sigma, metric):
    want, width = dense_location_kernel(data.locations, sigma, metric)
    g = location_similarity(data, sigma=sigma, metric=metric)
    assert g.sigma == pytest.approx(width, rel=1e-15)
    assert np.max(np.abs(g.matrix - want)) <= 1e-15
    assert g.matrix.tobytes() == g.matrix.T.tobytes()
