import dataclasses
import math

import numpy as np
import pytest

import scenarios
from gridmap.errors import InputError
from gridmap.graph import SimilarityGraph, ideal_graph, laplacian, voltage_similarity
from gridmap.guarantee import (
    GuaranteeReport,
    canonical_angles,
    certify,
    check_assumption,
    eigengap_and_separation,
    rayleigh_residual,
    tangent_bound,
    verify_eigengap_dominance,
)
from gridmap.feeder_sim import generate_profiles, simulate_voltages
from gridmap.spectral import embed, eigendecompose

IDEAL_456 = laplacian(ideal_graph(scenarios.make_truth([4, 5, 6])))


def symmetric_noise(rng, n, norm2):
    a = rng.standard_normal((n, n))
    sym = 0.5 * (a + a.T)
    return norm2 * sym / np.linalg.norm(sym, 2)


def perturbed_subspace(l_ideal, dl, k):
    return embed(l_ideal + dl, k).X


def perturbed_ideal_graph(truth, norm2, seed):
    """The ideal similarity matrix perturbed without leaving [0, 1], scaled
    so its Laplacian moves by exactly norm2 in the 2-norm."""
    m_ideal = ideal_graph(truth).matrix
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.0, m_ideal.shape)
    u = 0.5 * (u + u.T)
    np.fill_diagonal(u, 0.0)
    signed = np.where(m_ideal > 0.5, -u, u)
    step = np.diag(signed.sum(axis=1)) - signed      # Laplacian is linear in M
    eps = norm2 / np.linalg.norm(step, 2)
    return SimilarityGraph(matrix=m_ideal + eps * signed, sigma=1.0, kind="voltage")


def test_identical_subspaces_have_zero_angles():
    x = np.eye(5)[:, :2]
    ang = canonical_angles(x, x)
    assert np.allclose(ang.cosines, 1.0, atol=1e-12)
    assert ang.tan_norm_2 == 0.0
    assert ang.tan_norm_fro == 0.0


def test_orthogonal_subspaces_have_infinite_tangent():
    x1 = np.eye(6)[:, :2]
    x2 = np.eye(6)[:, 2:4]
    ang = canonical_angles(x1, x2)
    assert np.allclose(ang.cosines, 0.0, atol=1e-12)
    assert np.allclose(ang.sines, 1.0, atol=1e-12)
    assert np.all(np.isinf(ang.tangents))
    assert math.isinf(ang.tan_norm_2)


def test_planted_rotation_single_angle():
    # rotate the first basis vector toward an orthogonal direction by 0.3 rad
    theta = 0.3
    x1 = np.eye(5)[:, :2]
    tilted = x1.copy()
    tilted[:, 0] = math.cos(theta) * np.eye(5)[:, 0] + math.sin(theta) * np.eye(5)[:, 2]
    ang = canonical_angles(x1, tilted)
    assert ang.tan_norm_2 == pytest.approx(math.tan(theta), abs=1e-10)
    # one angle is theta, the other is zero
    assert np.allclose(np.sort(ang.cosines), [math.cos(theta), 1.0], atol=1e-10)


def test_frames_must_be_orthonormal():
    bad = np.ones((5, 2))
    with pytest.raises(InputError, match="orthonormal"):
        canonical_angles(np.eye(5)[:, :2], bad)


def test_exact_subspace_has_zero_residual():
    x = embed(IDEAL_456, 3).X
    r, p = rayleigh_residual(IDEAL_456, x)
    assert np.max(np.abs(r)) <= 1e-10
    # Rayleigh quotient reproduces the invariant eigenvalues (all zero here)
    assert np.allclose(p, 0.0, atol=1e-10)


def test_galerkin_orthogonality_is_structural():
    # X~' R vanishes for any orthonormal frame, not just good ones
    rng = np.random.default_rng(4)
    for _ in range(25):
        q, _ = np.linalg.qr(rng.standard_normal((15, 3)))
        r, _ = rayleigh_residual(IDEAL_456, q)
        assert np.max(np.abs(q.T @ r)) <= 1e-10


def test_residual_bounded_by_twice_the_perturbation():
    l_ideal = laplacian(ideal_graph(scenarios.make_truth([4, 4])))
    rng = np.random.default_rng(10)
    for _ in range(100):
        dl = symmetric_noise(rng, 8, rng.uniform(0.01, 0.5))
        x_tilde = perturbed_subspace(l_ideal, dl, 2)
        r, _ = rayleigh_residual(l_ideal, x_tilde)
        norm_dl = np.linalg.norm(dl, 2)
        assert np.linalg.norm(r, 2) <= 2.0 * norm_dl + 1e-12


def test_exact_null_basis_meets_the_bound_at_zero():
    x = embed(IDEAL_456, 3).X
    report = tangent_bound(IDEAL_456, x, 3)
    assert report.separation == pytest.approx(4.0, abs=1e-8)
    assert report.tan_norm_2 == pytest.approx(0.0, abs=1e-8)
    assert report.bound_rhs_2 == pytest.approx(0.0, abs=1e-8)
    assert report.bound_holds_2
    assert report.bound_holds_fro
    assert report.galerkin_norm <= 1e-10


def test_bound_holds_for_small_perturbations():
    rng = np.random.default_rng(42)
    delta_ideal = 4.0
    for _ in range(100):
        dl = symmetric_noise(rng, 15, rng.uniform(0.0, 0.1) * delta_ideal)
        x_tilde = perturbed_subspace(IDEAL_456, dl, 3)
        report = tangent_bound(IDEAL_456, x_tilde, 3)
        assert report.separation is not None and report.separation > 0.0
        assert report.bound_holds_2
        assert report.bound_holds_fro
        assert report.galerkin_norm <= 1e-10


def test_overlapping_ritz_interval_gives_no_guarantee():
    rng = np.random.default_rng(3)
    scale = 0.5
    while scale <= 64.0:
        dl = symmetric_noise(rng, 15, scale)
        x_tilde = perturbed_subspace(IDEAL_456, dl, 3)
        report = tangent_bound(IDEAL_456, x_tilde, 3)
        if report.separation <= 0.0:
            assert report.bound_holds_2 is None
            assert report.bound_rhs_2 is None
            assert report.tan_norm_2 is None
            return
        scale *= 2.0
    pytest.fail("never drove the Ritz interval into the complementary spectrum")


def test_assumption_on_ideal_graph():
    truth = scenarios.make_truth([4, 5, 6])
    delta, holds = check_assumption(ideal_graph(truth), truth, 3)
    assert delta == pytest.approx(4.0, abs=1e-8)
    assert holds


def test_assumption_under_small_graph_perturbation():
    # the Laplacian moves by 0.01 in the 2-norm, so the measured gap can
    # shrink by at most that much
    truth = scenarios.make_truth([4, 5, 6])
    g = perturbed_ideal_graph(truth, 0.01, seed=11)
    delta, holds = check_assumption(g, truth, 3)
    assert 3.9 < delta < 4.0
    assert holds


def test_assumption_fails_when_clusters_merge():
    truth = scenarios.make_truth([2, 2])
    all_ones = SimilarityGraph(matrix=np.ones((4, 4)), sigma=1.0, kind="voltage")
    delta, holds = check_assumption(all_ones, truth, 2)
    assert delta == pytest.approx(-2.0, abs=1e-8)
    assert not holds


def test_planted_rotation_separation_ratio():
    # single cluster of two meters, k = 1: rotating the null vector by theta
    # inflates eigengap/separation to exactly 1 / cos^2(theta)
    theta = 0.3
    l_pair = laplacian(ideal_graph(scenarios.make_truth([2])))
    dec = eigendecompose(l_pair)
    x_tilde = (
        math.cos(theta) * dec.eigenvectors[:, :1]
        + math.sin(theta) * dec.eigenvectors[:, 1:2]
    )
    gap, sep = eigengap_and_separation(l_pair, x_tilde, 1)
    assert gap == pytest.approx(2.0, abs=1e-12)
    assert gap / sep == pytest.approx(1.0 / math.cos(theta) ** 2, rel=1e-6)
    assert verify_eigengap_dominance(l_pair, x_tilde, 1)


def test_exact_subspace_attains_the_separation():
    x = embed(IDEAL_456, 3).X
    gap, sep = eigengap_and_separation(IDEAL_456, x, 3)
    assert gap == pytest.approx(4.0, abs=1e-8)
    assert sep == pytest.approx(gap, abs=1e-8)


def test_dominance_across_random_perturbations():
    rng = np.random.default_rng(42)
    for _ in range(100):
        dl = symmetric_noise(rng, 15, rng.uniform(0.0, 0.2) * 4.0)
        x_tilde = perturbed_subspace(IDEAL_456, dl, 3)
        assert verify_eigengap_dominance(IDEAL_456, x_tilde, 3)


def test_dominance_requires_degenerate_bottom():
    # an ideal graph with unequal nonzero bottom eigenvalues is out of scope
    lap = laplacian(ideal_graph(scenarios.make_truth([4, 5, 6])))
    x = embed(lap, 4).X
    with pytest.raises(InputError, match="repeated"):
        eigengap_and_separation(lap, x, 4)


def test_certify_on_a_clean_feeder():
    spec = scenarios.three_cluster_spec(noise=0.0, seed=5)
    data, _, truth = simulate_voltages(spec, generate_profiles(spec))
    report = certify(voltage_similarity(data), truth, 3)
    assert report.assumption_holds
    assert report.delta == pytest.approx(4.0, abs=1e-3)
    assert report.separation > 0.0
    assert report.bound_holds_2
    assert report.bound_holds_fro
    assert report.real_eigenvalues is not None
    assert report.ideal_eigenvalues[3] == pytest.approx(4.0, abs=1e-8)


def test_certify_reports_failure_without_claiming_a_bound():
    spec = scenarios.three_cluster_spec(noise=1e-3, seed=0)
    data, _, truth = simulate_voltages(spec, generate_profiles(spec))
    report = certify(voltage_similarity(data), truth, 3)
    assert not report.assumption_holds
    assert report.delta < 0.0


def test_k_bounds_everywhere():
    truth = scenarios.make_truth([2, 2])
    g = ideal_graph(truth)
    with pytest.raises(InputError):
        check_assumption(g, truth, 0)
    with pytest.raises(InputError):
        check_assumption(g, truth, 4)
    with pytest.raises(InputError):
        tangent_bound(laplacian(g), np.eye(4)[:, :1], 0)
    with pytest.raises(InputError):
        certify(g, truth, 4)


def test_ground_truth_must_cover_the_graph():
    g = ideal_graph(scenarios.make_truth([2, 2]))
    truth = scenarios.make_truth([3, 3])
    for check in (check_assumption, certify):
        with pytest.raises(InputError, match="covers 6 meters, the graph 4"):
            check(g, truth, 2)


def dense_certify(g, truth, k):
    """certify through the decomposed ideal Laplacian, the reference."""
    dec = eigendecompose(laplacian(g))
    ref = tangent_bound(laplacian(ideal_graph(truth)), dec.eigenvectors[:, :k], k)
    ref.real_eigenvalues = dec.eigenvalues
    ref.delta = float(ref.ideal_eigenvalues[k] - dec.eigenvalues[k - 1])
    ref.assumption_holds = ref.delta > 0.0
    return ref


def assert_reports_equal(got, ref):
    for field in dataclasses.fields(GuaranteeReport):
        a, b = getattr(got, field.name), getattr(ref, field.name)
        if b is None or isinstance(b, (bool, int)):
            assert a == b, field.name
        else:
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-10, err_msg=field.name)


def feeder_case():
    spec = scenarios.three_cluster_spec(noise=0.0, seed=5)
    data, _, truth = simulate_voltages(spec, generate_profiles(spec))
    return voltage_similarity(data), truth


def perturbed_456_case():
    truth = scenarios.make_truth([4, 5, 6])
    return perturbed_ideal_graph(truth, 0.01, seed=11), truth


@pytest.mark.parametrize("case, k, bounded", [
    (feeder_case, 3, True),            # k = truth.k
    (perturbed_456_case, 3, True),
    (perturbed_456_case, 6, True),     # k > truth.k, ideal 4 < 5: group 0 whole
    (perturbed_456_case, 4, False),    # k > truth.k, ideal 4 = 4: no separation
    (perturbed_456_case, 2, False),    # k < truth.k, ideal 0 = 0: no separation
])
def test_closed_form_certificate_equals_the_decomposed_one(case, k, bounded):
    g, truth = case()
    report = certify(g, truth, k)
    assert_reports_equal(report, dense_certify(g, truth, k))
    assert (report.separation > 0.0) == bounded
    assert (report.bound_holds_2 is not None) == bounded
    delta, holds = check_assumption(g, truth, k)
    assert delta == pytest.approx(report.delta, rel=1e-10, abs=1e-10)
    assert holds == report.assumption_holds
