import math
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

import scenarios
from gridmap import graph
from gridmap.errors import InputError
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


def pair_bound(volts):
    """The error allowed in each squared distance: T eps (|x_i|^2 + |x_j|^2)
    over the column-centered rows x."""
    x = volts - volts.mean(axis=0)
    sq = np.einsum("ij,ij->i", x, x)
    return volts.shape[1] * np.finfo(float).eps * (sq[:, None] + sq[None, :])


def distances_near_pdist(volts):
    """The voltage graph's distance matrix, its i < j entries checked
    against ``pdist``'s to ``pair_bound`` and mirrored below a zero
    diagonal."""
    upper = np.triu(graph._voltage_distances(volts), 1)
    want = squareform(pdist(volts))
    assert np.all(np.abs(upper ** 2 - np.triu(want, 1) ** 2) <= pair_bound(volts))
    return upper + upper.T


def test_auto_sigma_is_median_distance():
    rng = np.random.default_rng(3)
    volts = 1.0 + 0.01 * rng.standard_normal((8, 30))
    data = _dataset(volts)
    g = voltage_similarity(data, sigma=AUTO)
    pairs = pdist(volts)
    # each distance moves by at most its squared bound over the distance,
    # and the median by at most the largest of those moves
    moves = pair_bound(volts)[np.triu_indices(8, k=1)] / pairs
    assert abs(g.sigma - float(np.median(pairs))) <= moves.max()
    assert g.kind == "voltage"


def test_distances_near_a_common_voltage_keep_their_digits():
    # rows at 1 pu that differ by about 1e-7 in three groups: uncentered,
    # |x_i|^2 is about T and the product would cancel d^2 of about T 1e-14
    rng = np.random.default_rng(7)
    shapes = 1e-7 * rng.standard_normal((3, 96))
    volts = 1.0 + np.repeat(shapes, 4, axis=0) + 1e-8 * rng.standard_normal((12, 96))
    distances_near_pdist(volts)
    m = voltage_similarity(_dataset(volts)).matrix
    same = np.equal.outer(np.arange(12) // 4, np.arange(12) // 4)
    assert m[same].min() > m[~same].max()


def test_sigma_must_be_positive():
    # only "auto" or a positive, finite real number that is not a boolean
    data = _dataset([[1.0, 1.0], [1.01, 1.0]], np.array([[0.7, -1.8], [0.7, -1.8 + 1e-5]]))
    for build in (voltage_similarity, location_similarity):
        for sigma in (0.0, -1.0, math.inf, math.nan, "median", True, None, [1.0]):
            with pytest.raises(InputError, match="sigma must be") as raised:
                build(data, sigma=sigma)
            assert repr(sigma) in str(raised.value)


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


def test_gaussian_sets_underflowing_pairs_to_plain_exp_bit_for_bit():
    # exponents straddling graph.UNDERFLOW and the last subnormal result
    # (exp(-745.1332) is the smallest subnormal, exp(-745.2) is 0.0), -inf
    # as a subnormal width gives it, and 0
    cut = np.array([-746.0, -745.2, -745.1332, -744.4, -708.4])
    near = np.sqrt(-cut)[:, None] * (1.0 + np.linspace(-1e-4, 1e-4, 201))
    d = np.concatenate([np.sqrt(-cut), near.ravel(), [np.inf, 0.0]])
    with np.errstate(under="ignore", over="ignore"):
        for width in (1.0, 0.7, 1e-320):
            want = np.exp(-((d / width) ** 2))
            got = d.copy()
            graph._gaussian(got, width)
            assert got.tobytes() == want.tobytes()
            # a block of rows right of its first column, as _similarity hands it
            square = np.tile(d[:40], (40, 1))
            got = square.copy()
            graph._gaussian(got[8:16, 8:], width)
            want = square.copy()
            want[8:16, 8:] = np.exp(-((square[8:16, 8:] / width) ** 2))
            assert got.tobytes() == want.tobytes()
    assert 0.0 < np.exp(-745.1332) and np.exp(graph.UNDERFLOW) == 0.0


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


# small panels, down to two meters
FEW_ROW_DATASETS = [
    (f"{n}-rows", _dataset(1.0 + 0.01 * np.random.default_rng(100 * n).standard_normal((n, 30))))
    for n in (2, 3, 7, 40)
]


@pytest.mark.parametrize("sigma", [AUTO, scenarios.MANY_XFMR_SIGMA, 1e-3, 0.05])
@pytest.mark.parametrize("name, data", SCENARIO_DATASETS + FEW_ROW_DATASETS)
def test_voltage_kernel_is_the_formula_on_distances_near_pdist(name, data, sigma):
    d = distances_near_pdist(data.voltages)
    width = _median_width(d[np.triu_indices(len(d), k=1)]) if sigma == AUTO else sigma
    with np.errstate(under="ignore"):
        want = np.exp(-((d / width) ** 2))
    np.fill_diagonal(want, 1.0)
    g = voltage_similarity(data, sigma=sigma)
    assert g.sigma == width
    assert g.matrix.tobytes() == want.tobytes()
    assert g.matrix.tobytes() == g.matrix.T.tobytes()
    assert np.all(np.diag(g.matrix) == 1.0)


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


# --- rows in blocks ----------------------------------------------------------------


def fixed_blocks(heights):
    """A stand-in for ``graph._row_blocks`` that cuts the rows into blocks of
    the given heights, cycled, the last block cut short."""
    def blocks(n):
        out, a, i = [], 0, 0
        while a < n:
            b = min(n, a + heights[i % len(heights)])
            out.append((a, b))
            a, i = b, i + 1
        return out
    return blocks


@pytest.mark.parametrize("heights", [[1], [1, 2, 3, 5]], ids=["single-rows", "uneven"])
@pytest.mark.parametrize("sigma", [AUTO, 0.05])
@pytest.mark.parametrize("build", [voltage_similarity, location_similarity])
@pytest.mark.parametrize("name, data", SCENARIO_DATASETS)
def test_graph_bytes_do_not_depend_on_the_row_blocks(monkeypatch, name, data, build, sigma,
                                                      heights):
    # every step after the product is per entry, and each pair is measured
    # once right of the diagonal, so the blocks may not move a bit
    monkeypatch.setattr(graph, "_row_blocks", lambda n: [(0, n)])
    whole = build(data, sigma=sigma)
    monkeypatch.setattr(graph, "_row_blocks", fixed_blocks(heights))
    split = build(data, sigma=sigma)
    assert split.sigma == whole.sigma
    assert split.matrix.tobytes() == whole.matrix.tobytes()
    assert split.matrix.tobytes() == split.matrix.T.tobytes()


@pytest.mark.parametrize("block_rows", [1, 5, graph.BLOCK_ROWS])
@pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 33, 100, 1024, 1025, 4000])
def test_row_blocks_cover_every_row_once(monkeypatch, n, block_rows):
    monkeypatch.setattr(graph, "BLOCK_ROWS", block_rows)
    blocks = graph._row_blocks(n)
    assert blocks[0][0] == 0 and blocks[-1][1] == n
    assert all(a < b for a, b in blocks)
    assert all(p[1] == q[0] for p, q in zip(blocks, blocks[1:]))
    # a block holds at most BLOCK_ROWS rows, and at most n / 16 unless one
    assert max(b - a for a, b in blocks) <= min(block_rows, max(1, n // 16))


# small panels with coordinates, down to two meters
FEW_ROW_LOCATED = [
    (f"{n}-rows", np.radians([40.0, -105.0]) + 1e-4 * np.random.default_rng(100 * n + 1)
     .standard_normal((n, 2)))
    for n in (2, 3, 7, 40)
]


@pytest.mark.parametrize("block_rows", [1, graph.BLOCK_ROWS])
@pytest.mark.parametrize("sigma", [AUTO, 0.3])
@pytest.mark.parametrize("name, pts", FEW_ROW_LOCATED)
def test_location_kernel_on_few_rows_is_the_row_by_row_haversine(monkeypatch, name, pts, sigma,
                                                                  block_rows):
    monkeypatch.setattr(graph, "BLOCK_ROWS", block_rows)
    rows = np.concatenate([haversine(pts[i], pts[i + 1:]) for i in range(len(pts) - 1)])
    width = _median_width(rows.copy()) if sigma == AUTO else sigma
    with np.errstate(under="ignore"):
        want = squareform(np.exp(-np.square(rows / width)))
    np.fill_diagonal(want, 1.0)
    g = location_similarity(_dataset(np.ones((len(pts), 2)), pts), sigma=sigma)
    assert g.sigma == width
    assert g.matrix.tobytes() == want.tobytes()
    assert g.matrix.tobytes() == g.matrix.T.tobytes()


@pytest.mark.parametrize("spread", [1e-7, 1e-4, 1e-2])
@pytest.mark.parametrize("level", [0.9, 1.0, 1.1, 230.0])
def test_distances_near_any_common_voltage_keep_their_digits(level, spread):
    # three groups of rows around one level, the centered product's error
    # bounded against pdist whatever the level and the spread
    rng = np.random.default_rng(11)
    shapes = spread * rng.standard_normal((3, 96))
    volts = level + np.repeat(shapes, 4, axis=0) + 0.1 * spread * rng.standard_normal((12, 96))
    distances_near_pdist(volts)
    m = voltage_similarity(_dataset(volts)).matrix
    same = np.equal.outer(np.arange(12) // 4, np.arange(12) // 4)
    assert m[same].min() > m[~same].max()
