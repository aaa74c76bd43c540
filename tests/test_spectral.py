import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import lapack
from scipy.sparse.csgraph import connected_components

import gridmap.spectral
import scenarios
from gridmap.errors import InputError, NumericalError
from gridmap.feeder_sim import generate_profiles, simulate_voltages
from gridmap.graph import AUTO, ideal_graph, laplacian, location_similarity, voltage_similarity
from gridmap.guarantee import canonical_angles
from gridmap.multiview import combined_laplacian
from gridmap.spectral import (
    _components,
    _eigh,
    by_component,
    eigendecompose,
    embed,
    fix_signs,
    max_asymmetry,
)


def ideal_laplacian(sizes):
    return laplacian(ideal_graph(scenarios.make_truth(sizes)))


def random_orthonormal(rng, n, k):
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return q


def test_zero_matrix_has_zero_spectrum():
    dec = eigendecompose(np.zeros((2, 2)))
    assert np.array_equal(dec.eigenvalues, [0.0, 0.0])


def test_one_and_two_dimensional_matrices():
    dec = eigendecompose(np.array([[3.0]]))
    assert np.array_equal(dec.eigenvalues, [3.0])
    assert np.array_equal(dec.eigenvectors, [[1.0]])
    assert np.array_equal(eigendecompose(np.array([[3.0]]), 1).eigenvectors, [[1.0]])

    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    full = eigendecompose(a)
    assert np.allclose(full.eigenvalues, [1.0, 3.0], atol=1e-14)
    # sign-fixed: the first of two tied largest entries is positive
    assert np.allclose(full.eigenvectors, np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2))
    bottom = eigendecompose(a, 1)
    assert np.array_equal(bottom.eigenvalues, full.eigenvalues)
    assert bottom.eigenvectors.shape == (2, 1)
    assert np.allclose(bottom.eigenvectors, full.eigenvectors[:, :1], atol=1e-14)
    for k in (0, 3):
        with pytest.raises(InputError):
            eigendecompose(a, k)


def test_spectrum_mode_splits_a_tightly_clustered_bottom_spectrum():
    # 24 transformers, no noise: the bottom 24 eigenvalues are zero to
    # roundoff, the case where inverse iteration has to reorthogonalize
    spec = scenarios.many_xfmr_spec()
    data, _, _ = simulate_voltages(spec, generate_profiles(spec))
    lap = laplacian(voltage_similarity(data, sigma=scenarios.MANY_XFMR_SIGMA))
    n, k = lap.shape[0], spec.k
    dec = eigendecompose(lap, k)
    w, v = np.linalg.eigh(lap)
    scale = np.abs(w).max()
    assert np.max(np.abs(w[:k])) <= 1e-12 * scale < w[k]
    assert dec.eigenvectors.shape == (n, k)
    assert np.max(np.abs(dec.eigenvalues - np.linalg.eigvalsh(lap))) <= 1e-12 * scale
    assert np.max(np.abs(dec.eigenvectors.T @ dec.eigenvectors - np.eye(k))) <= 1e-12
    assert np.arcsin(canonical_angles(v[:, :k], dec.eigenvectors).sines.max()) <= 1e-8


def test_single_block_spectrum():
    for n in range(2, 11):
        w = eigendecompose(ideal_laplacian([n])).eigenvalues
        assert abs(w[0]) <= 1e-8
        assert np.allclose(w[1:], n, atol=1e-8)


def test_three_block_456_spectrum():
    w = eigendecompose(ideal_laplacian([4, 5, 6])).eigenvalues
    expected = scenarios.block_spectrum([4, 5, 6])
    assert list(expected) == [0, 0, 0, 4, 4, 4, 5, 5, 5, 5, 6, 6, 6, 6, 6]
    assert np.allclose(w, expected, atol=1e-8)


def test_embedding_eigenvalues_and_gap():
    emb = embed(ideal_laplacian([4, 5, 6]), 3)
    assert np.allclose(emb.eigenvalues, 0.0, atol=1e-8)
    assert emb.next_eigenvalue == pytest.approx(4.0, abs=1e-8)
    assert emb.X.shape == (15, 3)


def test_ideal_embedding_rows_are_cluster_indicators():
    truth = scenarios.make_truth([3, 5])
    emb = embed(laplacian(ideal_graph(truth)), 2)
    x = emb.X
    for c in (0, 1):
        rows = x[truth.labels == c]
        assert np.max(np.abs(rows - rows[0])) <= 1e-8
    r0 = x[truth.labels == 0][0]
    r1 = x[truth.labels == 1][0]
    assert abs(np.dot(r0, r1)) <= 1e-8


def test_trace_optimality_among_orthonormal_frames():
    rng = np.random.default_rng(0)
    raw = rng.uniform(0.0, 1.0, (6, 6))
    m = (raw + raw.T) / 2.0
    np.fill_diagonal(m, 1.0)
    lap = laplacian(m)
    emb = embed(lap, 2)
    best = np.trace(emb.X.T @ lap @ emb.X)
    for _ in range(1000):
        h = random_orthonormal(rng, 6, 2)
        assert best <= np.trace(h.T @ lap @ h) + 1e-8


def test_fix_signs_pins_largest_entry_positive():
    v = np.array([[0.1, -0.9], [-0.7, 0.2], [0.3, 0.4]])
    fixed = fix_signs(v.copy())
    assert fixed[1, 0] > 0          # column 0 flipped at its largest entry
    assert fixed[0, 1] > 0          # column 1 flipped
    assert np.array_equal(fix_signs(fixed.copy()), fixed)


def test_eigendecomposition_is_repeatable():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((9, 9))
    sym = (a + a.T) / 2.0
    d1 = eigendecompose(sym)
    d2 = eigendecompose(sym)
    assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
    assert np.array_equal(d1.eigenvectors, d2.eigenvectors)
    # vectored are orthonormal and actually diagonalize the input
    assert np.allclose(d1.eigenvectors.T @ d1.eigenvectors, np.eye(9), atol=1e-10)
    recon = d1.eigenvectors @ np.diag(d1.eigenvalues) @ d1.eigenvectors.T
    assert np.allclose(recon, sym, atol=1e-10)


def test_eigendecompose_rejects_asymmetric():
    with pytest.raises(InputError):
        eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigendecompose_rejects_a_non_square_matrix():
    with pytest.raises(InputError, match="matrix must be square"):
        eigendecompose(np.zeros((2, 3)))


@pytest.mark.parametrize("k", [None, 2])
def test_eigendecomposition_unpacks_as_values_and_vectors(k):
    # by_component's solvers return (w, v) pairs; the certificate hands it
    # eigendecompose as one
    a = ideal_laplacian([3, 4])
    dec = eigendecompose(a, k)
    w, v = dec
    assert w.tobytes() == dec.eigenvalues.tobytes()
    assert v.tobytes() == dec.eigenvectors.tobytes()


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 200])
def test_max_asymmetry_is_the_dense_check(n):
    # the checked rows come in blocks of 64; each perturbed entry sits in the
    # last (partial) block, across the first block boundary, or in a corner
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    a = a + a.T
    assert max_asymmetry(a) == np.max(np.abs(a - a.T)) == 0.0
    noisy = a + 1e-12 * rng.standard_normal((n, n))
    assert max_asymmetry(noisy) == np.max(np.abs(noisy - noisy.T))
    spots = [(n - 1, n - 2), (n - 2, n - 1), (63, 64), (64, 63), (n - 1, 0), (0, n - 1)]
    for i, j in [(i, j) for i, j in spots if i != j and 0 <= min(i, j) and max(i, j) < n]:
        b = a.copy()
        b[i, j] += 1e-9 * (1 + i)
        assert max_asymmetry(b) == np.max(np.abs(b - b.T)) > 0.0
        b[i, j] = np.nan
        assert np.isnan(max_asymmetry(b))
    b = a.copy()
    b[n - 1, n - 1] = np.nan
    assert np.isnan(max_asymmetry(b))


def test_eigendecompose_rejects_non_finite():
    bad = np.array([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises((InputError, NumericalError)):
        eigendecompose(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_are_named(bad):
    a = np.eye(4)
    a[2, 1] = bad
    for solve in (lambda: embed(a, 2), lambda: eigendecompose(a)):
        with pytest.raises(NumericalError, match="non-finite entries"):
            solve()


def test_symmetry_tolerance_scales_with_the_largest_magnitude():
    # 1e-10 max |a_ij|, where the largest magnitude is a negative entry
    a = np.diag([-1e6, 1.0, 2.0])
    a[0, 1] = a[1, 0] = 0.5
    a[0, 1] += 5e-5
    assert embed(a, 1).X.shape == (3, 1)
    a[0, 1] += 1e-4
    with pytest.raises(InputError, match="symmetric"):
        embed(a, 1)


def test_embed_k_bounds():
    lap = ideal_laplacian([3, 3])
    with pytest.raises(InputError):
        embed(lap, 0)
    with pytest.raises(InputError):
        embed(lap, 6)
    emb = embed(lap, 5)
    assert emb.X.shape == (6, 5)


def test_embedding_invariant_to_node_order():
    # permuting the nodes permutes the embedding rows (up to sign fixing,
    # the eigenvectors of a conjugated matrix are the permuted vectors)
    lap = ideal_laplacian([2, 3])
    rng = np.random.default_rng(4)
    perm = rng.permutation(5)
    p = np.eye(5)[perm]
    emb = embed(lap, 2)
    emb_p = embed(p @ lap @ p.T, 2)
    # compare cluster geometry, which is permutation-proof: pairwise row dots
    gram = emb.X @ emb.X.T
    gram_p = emb_p.X @ emb_p.X.T
    assert np.allclose(gram_p, p @ gram @ p.T, atol=1e-10)


def assert_embed_matches_full_solve(lap, k):
    # the partial solve must give the full solve's bottom spectrum and span
    emb = embed(lap, k)
    dec = eigendecompose(lap)
    scale = np.abs(dec.eigenvalues).max()
    assert np.max(np.abs(emb.eigenvalues - dec.eigenvalues[:k])) <= 1e-12 * scale
    assert abs(emb.next_eigenvalue - dec.eigenvalues[k]) <= 1e-12 * scale
    angles = canonical_angles(dec.eigenvectors[:, :k], emb.X)
    assert np.arcsin(angles.sines.max()) <= 1e-8


def test_embed_equals_full_solve_on_a_feeder():
    spec = scenarios.three_cluster_spec(noise=1e-4, seed=1)
    data, _, _ = simulate_voltages(spec, generate_profiles(spec))
    assert_embed_matches_full_solve(laplacian(voltage_similarity(data)), 3)


def test_embed_equals_full_solve_on_an_indefinite_multiview_matrix():
    data, _, _ = scenarios.two_site_case(seed=0)
    l_v = laplacian(voltage_similarity(data, sigma=scenarios.TWO_SITE_SIGMA))
    h_l = embed(laplacian(location_similarity(data)), 2).X
    combined = combined_laplacian(l_v, h_l, 0.5)
    assert eigendecompose(combined).eigenvalues[0] < 0.0
    assert_embed_matches_full_solve(combined, 2)


# --- the bottom-k solve, block by block -------------------------------------

def direct_bottom(a, k):
    """The whole-matrix route: one evr call, as connected inputs take."""
    w, v = scipy.linalg.eigh(a, subset_by_index=(0, k - 1), driver="evr", check_finite=False)
    return w, fix_signs(v)


def random_block(rng, m, kind):
    if m == 1:
        return np.array([[rng.choice([0.0, rng.uniform(-2.0, 3.0)])]])
    if kind == "indefinite":
        b = rng.standard_normal((m, m))
        return b + b.T
    if kind == "path":  # connected through a chain: the search needs m - 1 levels
        w = np.diag(rng.uniform(0.1, 1.0, m - 1), 1)
    else:
        w = np.triu(rng.uniform(0.1, 1.0, (m, m)), 1)
    w = w + w.T
    return np.diag(w.sum(axis=1)) - w  # a Laplacian, one zero eigenvalue


def permuted_block_diagonal(rng, sizes, kinds):
    blocks = [random_block(rng, m, kind) for m, kind in zip(sizes, kinds)]
    perm = rng.permutation(sum(sizes))
    return scipy.linalg.block_diag(*blocks)[np.ix_(perm, perm)]


def block_cases():
    named = {
        "singletons": ([1, 1, 4, 1, 3, 1, 1], 5),
        "all-zero": (None, 4),
        "blocks-smaller-than-k+1": ([2, 3, 2, 3], 7),
        "indefinite": ([5, 6, 4], 4),
        "more-than-k-components": ([3, 3, 2, 4, 3, 2, 3], 3),
    }
    for name, (sizes, k) in named.items():
        yield name, sizes, k
    for i in range(40):
        rng = np.random.default_rng([13, i])
        sizes = rng.choice([1, 1, 2, 3, 5, 8, 13], size=int(rng.integers(2, 9))).tolist()
        yield f"random-{i}", sizes, int(rng.integers(1, sum(sizes) + 1))


@pytest.mark.parametrize("name, sizes, k", list(block_cases()))
def test_bottom_k_by_block_matches_the_dense_route(name, sizes, k):
    rng = np.random.default_rng(sum(map(ord, name)))
    if sizes is None:
        a = np.zeros((9, 9))
    else:
        kinds = ["indefinite" if name == "indefinite" else rng.choice(
            ["laplacian", "path", "indefinite"]) for _ in sizes]
        a = permuted_block_diagonal(rng, sizes, kinds)
    blocks, isolated = _components(a)
    assert len(blocks) + isolated.size > 1
    w, v = _eigh(a, k)
    assert w.shape == (k,) and v.shape == (a.shape[0], k)
    again = _eigh(a.copy(), k)
    assert w.tobytes() == again[0].tobytes() and v.tobytes() == again[1].tobytes()
    assert np.array_equal(fix_signs(v), v)

    full = np.linalg.eigvalsh(a)
    scale = np.abs(a).max()
    assert np.max(np.abs(w - direct_bottom(a, k)[0])) <= 1e-12 * scale
    assert np.max(np.abs(v.T @ v - np.eye(k))) <= 1e-12
    assert np.linalg.norm(a @ v - v * w) <= 1e-12 * max(scale, 1.0) * a.shape[0]
    # wherever the spectrum has a gap after j values, the first j vectors
    # span the dense route's eigenspace
    _, dense = np.linalg.eigh(a)
    for j in range(1, k + 1):
        if j == a.shape[0] or full[j] - full[j - 1] > 1e-3 * scale:
            angles = canonical_angles(dense[:, :j], v[:, :j])
            assert np.arcsin(min(angles.sines.max(), 1.0)) <= 1e-8


def test_all_zero_matrix_picks_the_lowest_nodes():
    # every eigenvalue ties, so the bottom-k eigenspace is not unique; the
    # merge order takes the unit vectors of the lowest-numbered nodes
    w, v = _eigh(np.zeros((6, 6)), 3)
    assert np.array_equal(w, np.zeros(3))
    assert np.array_equal(v, np.eye(6)[:, :3])


def test_isolated_nodes_take_no_solve(monkeypatch):
    # a kernel narrow for the noise leaves every meter isolated, as in a
    # noisy sweep trial; one 1 x 1 solve per meter would cost 40 times the
    # embedding's time there, so the merge reads their diagonal entries
    solves = []
    bottom = gridmap.spectral._bottom

    def counting(block, m):
        solves.append(block.shape[0])
        return bottom(block, m)

    monkeypatch.setattr(gridmap.spectral, "_bottom", counting)
    a = np.diag(np.arange(50.0)[::-1])
    a[[3, 7], [7, 3]] = -1.0
    w, v = _eigh(a, 4)
    assert solves == [2]
    assert np.array_equal(w, [0.0, 1.0, 2.0, 3.0])
    assert np.array_equal(v[[49, 48, 47, 46]], np.eye(4))


def assert_components_match_csgraph(a):
    # an edge stored in one triangle only links its ends too
    count, label = connected_components(a != 0, directed=True, connection="weak")
    groups = [np.flatnonzero(label == c) for c in range(count)]
    groups.sort(key=lambda g: g[0])
    blocks, isolated = _components(a)
    assert [b.tolist() for b in blocks] == [g.tolist() for g in groups if g.size > 1]
    assert isolated.tolist() == [int(g[0]) for g in groups if g.size == 1]
    assert all(b.dtype == np.intp for b in blocks) and isolated.dtype == np.intp


@pytest.mark.parametrize("seed", range(20))
def test_components_match_csgraph(seed):
    rng = np.random.default_rng([14, seed])
    n = int(rng.integers(1, 40))
    a = np.where(rng.random((n, n)) < rng.choice([0.02, 0.05, 0.2]), rng.standard_normal((n, n)), 0.0)
    np.fill_diagonal(a, rng.standard_normal(n))  # the diagonal links nothing
    assert_components_match_csgraph(a)


def connected_cases():
    rng = np.random.default_rng(15)
    for n in (1, 2, 7, 40):
        b = rng.standard_normal((n, n))
        yield f"dense-{n}", b + b.T
    path = np.diag(rng.uniform(0.1, 1.0, 29), 1)
    yield "path", np.diag((path + path.T).sum(axis=1)) - path - path.T
    spec = scenarios.three_cluster_spec(noise=1e-4, seed=1)
    data, _, _ = simulate_voltages(spec, generate_profiles(spec))
    yield "feeder", laplacian(voltage_similarity(data))


@pytest.mark.parametrize("name, a", list(connected_cases()))
def test_connected_input_keeps_the_direct_solve_bits(name, a):
    blocks, isolated = _components(a)
    assert len(blocks) + isolated.size == 1
    for k in sorted({1, min(3, a.shape[0]), a.shape[0]}):
        w, v = _eigh(a, k)
        want_w, want_v = direct_bottom(a, k)
        assert w.tobytes() == want_w.tobytes() and v.tobytes() == want_v.tobytes()


def test_embed_splits_the_many_transformer_feeder():
    # part of the cross-group kernel underflows: the graph falls apart into
    # blocks, and the embedding spans what the dense route's does
    spec = scenarios.many_xfmr_spec()
    data, _, _ = simulate_voltages(spec, generate_profiles(spec))
    lap = laplacian(voltage_similarity(data, sigma=scenarios.MANY_XFMR_SIGMA))
    blocks, isolated = _components(lap)
    assert len(blocks) > 1 and isolated.size == 0
    assert_embed_matches_full_solve(lap, spec.k)


def named_component_cases():
    rng = np.random.default_rng(16)
    for n in (2, 7, 40):
        b = rng.standard_normal((n, n))
        yield f"dense-{n}", b + b.T
    for i in range(10):
        n = int(rng.integers(3, 30))
        a = np.where(rng.random((n, n)) < 0.05, rng.standard_normal((n, n)), 0.0)
        if i % 2:
            a[0, 1:] = rng.uniform(0.5, 1.0, n - 1)  # row 0 full, the rest sparse
        yield f"sparse-{i}", a
    yield "one", np.array([[3.0]])
    yield "one-zero", np.zeros((1, 1))
    for name, pair in (("both", [[1.0, 2.0], [2.0, 1.0]]), ("lower-only", [[1.0, 0.0], [2.0, 1.0]]),
                       ("neither", [[1.0, 0.0], [0.0, 1.0]])):
        yield f"two-{name}", np.array(pair)


@pytest.mark.parametrize("name, a", list(named_component_cases()))
def test_components_match_csgraph_on_named_cases(name, a):
    assert_components_match_csgraph(a)


# --- the tridiagonal route of the spectrum mode --------------------------------

def wrapped_spectrum(a, k):
    """The spectrum mode through scipy's tridiagonal wrappers, the formulation
    ``_spectrum`` calls LAPACK in place of."""
    n = a.shape[0]
    lwork, _ = lapack.dsytrd_lwork(n, lower=1)
    c, d, e, tau, _ = lapack.dsytrd(a, lower=1, lwork=int(lwork))
    w = scipy.linalg.eigvalsh_tridiagonal(d, e, lapack_driver="sterf", check_finite=False)
    _, z = scipy.linalg.eigh_tridiagonal(
        d, e, select="i", select_range=(0, k - 1), lapack_driver="stebz", check_finite=False
    )
    if n > 1:
        q1, rest = np.asfortranarray(c[1:, :-1]), z[1:]
        lwork = lapack.dormqr("L", "N", q1, tau, rest, -1)[1][0]
        z[1:] = lapack.dormqr("L", "N", q1, tau, rest, int(lwork))[0]
    return w, z


def spectrum_cases():
    specs = {
        "three-cluster": (scenarios.three_cluster_spec(noise=1e-4, seed=1), AUTO),
        "two-cluster": (scenarios.two_cluster_spec(noise=5e-4, seed=2), AUTO),
        "many-xfmr": (scenarios.many_xfmr_spec(), scenarios.MANY_XFMR_SIGMA),
        "shrunken-gap": (scenarios.shrunken_gap_spec(seed=0), AUTO),
    }
    for name, (spec, sigma) in specs.items():
        data, _, _ = simulate_voltages(spec, generate_profiles(spec))
        yield name, laplacian(voltage_similarity(data, sigma=sigma))
    data, _, _ = scenarios.two_site_case(seed=0)
    yield "two-site", laplacian(voltage_similarity(data, sigma=scenarios.TWO_SITE_SIGMA))
    yield "ideal-4-30-6", ideal_laplacian([4, 30, 6])
    yield "one", np.array([[3.0]])


@pytest.mark.parametrize("name, a", list(spectrum_cases()))
def test_spectrum_is_the_scipy_wrapper_route_bit_for_bit(name, a):
    n = a.shape[0]
    for k in sorted({1, min(4, n), n}):
        w, z = gridmap.spectral._spectrum(a, k)
        want_w, want_z = wrapped_spectrum(a, k)
        assert w.tobytes() == want_w.tobytes() and z.tobytes() == want_z.tobytes()
    if name == "ideal-4-30-6":
        assert w[3] == 4.0  # criterion 7's exact value


def test_a_failed_tridiagonal_solve_is_a_numerical_error(monkeypatch):
    # a vector inverse iteration did not converge: LAPACK info 1
    dstein = lapack.dstein
    monkeypatch.setattr(lapack, "dstein", lambda *args: (dstein(*args)[0], 1))
    with pytest.raises(NumericalError, match="dstein 1"):
        eigendecompose(ideal_laplacian([3, 4]), 2)


# --- the capped block solve --------------------------------------------------

def counted(solve, calls):
    def counting(block, m):
        calls.append(m)
        return solve(block, m)
    return counting


def uncapped(solve, k):
    # each block asked for min(k, size) pairs, as the merge did before the
    # cap; a block with that many vectors is never solved again
    return lambda block, m: solve(block, min(k, block.shape[0]))


def shifted_laplacian(rng, sizes, shift):
    """Complete-graph Laplacians with weights in [0.1, 1], block j shifted by
    j * shift, then permuted. Every block's second eigenvalue, at least 0.2,
    stays above every block's first while (blocks - 1) * shift < 0.2, so
    the cap's argument holds, and a shift splits the ties at zero that
    would leave the bottom-k eigenspace not unique."""
    blocks = []
    for j, m in enumerate(sizes):
        w = np.triu(rng.uniform(0.1, 1.0, (m, m)), 1)
        w = w + w.T
        blocks.append(np.diag(w.sum(axis=1)) - w + j * shift * np.eye(m))
    perm = rng.permutation(sum(sizes))
    return scipy.linalg.block_diag(*blocks)[np.ix_(perm, perm)]


def block_supported_indefinite(rng, sizes, columns, lam):
    """L - lam H H' with L block diagonal and each column of the orthonormal
    H inside one block, as a disconnected location graph's embedding is:
    the product keeps the blocks, and the matrix is indefinite. The block
    of ``sizes[j]`` nodes holds ``columns[j]`` of H's columns."""
    a = shifted_laplacian(rng, sizes, 0.0)
    blocks, _ = _components(a)
    h = []
    for m, c in zip(sizes, columns):
        nodes = next(b for b in blocks if b.size == m)
        h.append(np.zeros((a.shape[0], c)))
        h[-1][nodes] = random_orthonormal(rng, m, c)
    h = np.hstack(h)
    return a - lam * h @ h.T


def cap_cases():
    # (name, block sizes with 1 for an isolated node, k); B counts both
    for name, sizes, k in (
        ("B<k", [6, 9, 4, 7], 10),
        ("B<k-isolated", [6, 1, 9, 1, 5], 9),
        ("B=k", [5, 8, 3, 6, 4], 5),
        ("B=k+1", [5, 8, 3, 6, 4, 7], 5),
        ("B>k+1", [4, 6, 3, 5, 1, 7, 2, 1], 3),
    ):
        yield name, sizes, k, shifted_laplacian(np.random.default_rng(len(sizes) * k), sizes, 0.01)
    # the 9-node block holds 6 of the 7 negative eigenvalues, more than the
    # cap of 5 that a Laplacian's blocks could not reach: it is solved again
    rng = np.random.default_rng(17)
    yield "indefinite", [8, 6, 9, 5], 7, block_supported_indefinite(rng, [8, 6, 9, 5],
                                                                    [1, 0, 6, 0], 20.0)


def projector(x):
    return x @ x.T


@pytest.mark.parametrize("name, sizes, k, a", list(cap_cases()))
@pytest.mark.parametrize("mode", ["spectrum", "bottom"])
def test_capped_blocks_match_the_uncapped_solve(name, sizes, k, a, mode):
    solve = eigendecompose if mode == "spectrum" else gridmap.spectral._bottom
    blocks, isolated = _components(a)
    assert sorted([b.size for b in blocks] + [1] * isolated.size) == sorted(sizes)
    calls = []
    w, x = by_component(a, k, counted(solve, calls))
    want_w, want_x = by_component(a, k, uncapped(solve, k))
    if mode == "spectrum":
        assert w.tobytes() == want_w.tobytes()
    else:
        scale = np.abs(a).max()
        assert np.max(np.abs(w[:k] - want_w[:k])) <= 1e-12 * scale
    assert np.max(np.abs(projector(x) - projector(want_x))) <= 1e-12
    cap = max(2, k - len(sizes) + 2)
    assert calls[:len(blocks)] == [min(k, b.size, cap) for b in blocks]
    resolves = 1 if name == "indefinite" else 0  # no witness enters a Laplacian
    assert len(calls) == len(blocks) + resolves


@pytest.mark.parametrize("mode", ["spectrum", "bottom"])
def test_a_block_that_takes_every_slot_is_solved_again_once(mode):
    # the 9-node block, shifted below the rest, holds the k smallest values,
    # its witness among them: one more solve, for min(k, size) pairs
    sizes, k = [9, 4, 5, 6, 3], 6
    a = shifted_laplacian(np.random.default_rng(18), sizes, 0.01)
    blocks, _ = _components(a)
    big = next(j for j, b in enumerate(blocks) if b.size == 9)
    a[blocks[big], blocks[big]] -= 50.0  # its diagonal, below every other value
    solve = eigendecompose if mode == "spectrum" else gridmap.spectral._bottom
    calls = []
    w, x = by_component(a, k, counted(solve, calls))
    cap = max(2, k - len(blocks) + 2)
    assert calls == [min(k, b.size, cap) for b in blocks] + [k]
    want_w, want_x = by_component(a, k, uncapped(solve, k))
    assert np.max(np.abs(w[:k] - want_w[:k])) <= 1e-12 * np.abs(a).max()
    assert np.max(np.abs(projector(x) - projector(want_x))) <= 1e-12
    assert np.all(x[np.setdiff1d(np.arange(a.shape[0]), blocks[big])] == 0.0)
