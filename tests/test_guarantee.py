import dataclasses
import math

import numpy as np
import pytest

import gridmap.guarantee
import scenarios
from dense_certificate import IDEAL_456, eigengap_and_separation, symmetric_noise, tangent_bound
from gridmap.errors import InputError
from gridmap.graph import SimilarityGraph, ideal_graph, laplacian, voltage_similarity
from gridmap.guarantee import GuaranteeReport, canonical_angles, certify
from gridmap.feeder_sim import generate_profiles, simulate_voltages
from gridmap.spectral import _components, embed, eigendecompose


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


def test_frames_must_be_tall_and_alike():
    with pytest.raises(InputError, match="x1 must be a tall N x k matrix"):
        canonical_angles(np.eye(5)[:2], np.eye(5)[:, :2])
    with pytest.raises(InputError, match="subspaces must have the same shape"):
        canonical_angles(np.eye(5)[:, :2], np.eye(5)[:, :3])


def test_exact_subspace_has_zero_residual():
    report = tangent_bound(IDEAL_456, embed(IDEAL_456, 3).X, 3)
    assert report.residual_norm_2 <= 1e-10
    # Rayleigh quotient reproduces the invariant eigenvalues (all zero here)
    assert np.allclose(report.ritz_interval, 0.0, atol=1e-10)


def test_galerkin_orthogonality_is_structural():
    # X~' R vanishes for any orthonormal frame, not just good ones
    rng = np.random.default_rng(4)
    for _ in range(25):
        q, _ = np.linalg.qr(rng.standard_normal((15, 3)))
        assert tangent_bound(IDEAL_456, q, 3).galerkin_norm <= 1e-10


def test_residual_bounded_by_twice_the_perturbation():
    l_ideal = laplacian(ideal_graph(scenarios.make_truth([4, 4])))
    rng = np.random.default_rng(10)
    for _ in range(100):
        dl = symmetric_noise(rng, 8, rng.uniform(0.01, 0.5))
        x_tilde = embed(l_ideal + dl, 2).X
        norm_dl = np.linalg.norm(dl, 2)
        assert tangent_bound(l_ideal, x_tilde, 2).residual_norm_2 <= 2.0 * norm_dl + 1e-12


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
        x_tilde = embed(IDEAL_456 + dl, 3).X
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
        x_tilde = embed(IDEAL_456 + dl, 3).X
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
    report = certify(ideal_graph(truth), truth.labels)
    assert report.delta == pytest.approx(4.0, abs=1e-8)
    assert report.assumption_holds


def test_assumption_under_small_graph_perturbation():
    # the Laplacian moves by 0.01 in the 2-norm, so the measured gap can
    # shrink by at most that much
    truth = scenarios.make_truth([4, 5, 6])
    g = perturbed_ideal_graph(truth, 0.01, seed=11)
    report = certify(g, truth.labels)
    assert 3.9 < report.delta < 4.0
    assert report.assumption_holds


def test_assumption_fails_when_clusters_merge():
    truth = scenarios.make_truth([2, 2])
    all_ones = SimilarityGraph(matrix=np.ones((4, 4)), sigma=1.0, kind="voltage")
    report = certify(all_ones, truth.labels)
    assert report.delta == pytest.approx(-2.0, abs=1e-8)
    assert not report.assumption_holds


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
    assert gap >= sep - 1e-8


def test_exact_subspace_attains_the_separation():
    x = embed(IDEAL_456, 3).X
    gap, sep = eigengap_and_separation(IDEAL_456, x, 3)
    assert gap == pytest.approx(4.0, abs=1e-8)
    assert sep == pytest.approx(gap, abs=1e-8)


def test_dominance_across_random_perturbations():
    rng = np.random.default_rng(42)
    for _ in range(100):
        dl = symmetric_noise(rng, 15, rng.uniform(0.0, 0.2) * 4.0)
        x_tilde = embed(IDEAL_456 + dl, 3).X
        gap, sep = eigengap_and_separation(IDEAL_456, x_tilde, 3)
        assert gap >= sep - 1e-8


def test_dominance_requires_degenerate_bottom():
    # an ideal graph with unequal nonzero bottom eigenvalues is out of scope
    lap = laplacian(ideal_graph(scenarios.make_truth([4, 5, 6])))
    x = embed(lap, 4).X
    with pytest.raises(InputError, match="repeated"):
        eigengap_and_separation(lap, x, 4)


def test_certify_on_a_clean_feeder():
    spec = scenarios.three_cluster_spec(noise=0.0, seed=5)
    data, _, truth = simulate_voltages(spec, generate_profiles(spec))
    report = certify(voltage_similarity(data), truth.labels)
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
    report = certify(voltage_similarity(data), truth.labels)
    assert not report.assumption_holds
    assert report.delta < 0.0


def test_k_bounds_everywhere():
    truth = scenarios.make_truth([2, 2])
    g = ideal_graph(truth)
    with pytest.raises(InputError):
        tangent_bound(laplacian(g), np.eye(4)[:, :1], 0)


def test_ground_truth_must_cover_the_graph():
    g = ideal_graph(scenarios.make_truth([2, 2]))
    truth = scenarios.make_truth([3, 3])
    with pytest.raises(InputError, match="covers 6 meters, the graph 4"):
        certify(g, truth.labels)


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


def noisy_feeder_case():
    # the Ritz interval reaches the ideal 4: no separation at k = truth.k
    spec = scenarios.three_cluster_spec(noise=1e-3, seed=0)
    data, _, truth = simulate_voltages(spec, generate_profiles(spec))
    return voltage_similarity(data), truth


def connected_feeder_case():
    # the noise links every meter: one component
    spec = scenarios.three_cluster_spec(noise=1e-4, seed=1)
    data, _, truth = simulate_voltages(spec, generate_profiles(spec))
    return voltage_similarity(data), truth


def perturbed_456_case():
    truth = scenarios.make_truth([4, 5, 6])
    return perturbed_ideal_graph(truth, 0.01, seed=11), truth


def many_xfmr_case():
    # two components, of 115 and 5 meters, at k = 24
    spec = scenarios.many_xfmr_spec()
    data, _, truth = simulate_voltages(spec, generate_profiles(spec))
    return voltage_similarity(data, sigma=scenarios.MANY_XFMR_SIGMA), truth


def split_graph(sizes, linked, seed):
    """The ideal graph of groups of the given sizes, with its in-group
    similarities lowered at random and the groups in ``linked`` joined by
    weak edges. Every other group is a component of its own, a group of
    one meter an isolated meter. The meters are shuffled, so the components
    interleave."""
    truth = scenarios.make_truth(sizes)
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 0.3, (truth.labels.size,) * 2)
    u = 0.5 * (u + u.T)
    same = truth.labels[:, None] == truth.labels[None, :]
    joined = np.isin(truth.labels, linked)
    weak = joined[:, None] & joined[None, :] & ~same
    m = np.where(same, 1.0 - u, np.where(weak, 0.05 * u, 0.0))
    np.fill_diagonal(m, 1.0)
    perm = rng.permutation(truth.labels.size)
    labels = truth.labels[perm]
    truth = dataclasses.replace(truth, labels=labels, mapping={
        meter: truth.xfmr_ids[j] for meter, j in zip(truth.meter_ids, labels)})
    return SimilarityGraph(matrix=m[np.ix_(perm, perm)], sigma=1.0, kind="voltage"), truth


def isolated_meters_case():
    # two isolated meters; groups 1 and 3 form one component, group 4 another
    return split_graph([1, 4, 1, 5, 6], linked=[1, 3], seed=21)


def small_components_case():
    # at k = 5, three of the four components have fewer than k + 1 meters
    return split_graph([2, 3, 8, 9, 2], linked=[2, 3], seed=22)


@pytest.mark.parametrize("case, k, bounded", [
    (feeder_case, 3, True),            # k = truth.k
    (perturbed_456_case, 3, True),
    (noisy_feeder_case, 3, False),
    # feeder_case's graph has 2 components; these add more components,
    # isolated meters and components smaller than k + 1
    (many_xfmr_case, 24, True),
    (isolated_meters_case, 5, True),
    (small_components_case, 5, True),
])
def test_closed_form_certificate_equals_the_decomposed_one(case, k, bounded):
    g, truth = case()
    report = certify(g, truth.labels)
    assert_reports_equal(report, dense_certify(g, truth, k))
    assert (report.separation > 0.0) == bounded
    assert (report.bound_holds_2 is not None) == bounded


@pytest.mark.parametrize("case", [feeder_case, isolated_meters_case])
def test_certify_takes_any_partition_labels(case):
    # only the partition matters: relabeled groups give the same bits
    g, truth = case()
    ref = certify(g, truth.labels)
    names = np.array([truth.mapping[m] for m in truth.meter_ids])
    for labels in (truth.labels * 7 + 3, names):
        got = certify(g, labels)
        for field in dataclasses.fields(GuaranteeReport):
            a, b = getattr(got, field.name), getattr(ref, field.name)
            if isinstance(b, np.ndarray):
                assert a.tobytes() == b.tobytes(), field.name
            else:
                assert a == b, field.name
    n = truth.labels.size
    with pytest.raises(InputError, match=f"covers {n - 1} meters, the graph {n}"):
        certify(g, truth.labels[1:])
    with pytest.raises(InputError, match="group of its own"):
        certify(g, np.arange(n))


def test_connected_certificate_keeps_the_whole_matrix_bits():
    g, truth = connected_feeder_case()
    lap = laplacian(g)
    blocks, isolated = _components(lap)
    assert len(blocks) == 1 and isolated.size == 0
    report = certify(g, truth.labels)
    whole = eigendecompose(lap).eigenvalues
    assert report.real_eigenvalues.tobytes() == whole.tobytes()
    assert report.delta == float(report.ideal_eigenvalues[3] - whole[2])


@pytest.mark.parametrize("case, solves", [(many_xfmr_case, 2), (connected_feeder_case, 1)])
def test_certify_decomposes_each_component_through_the_module_name(monkeypatch, case, solves):
    # the benchmark's tracer wraps gridmap.guarantee.eigendecompose to time
    # the certificate's solves, so each one has to go through that name
    g, truth = case()
    sizes = []

    def counting(matrix, k=None):
        sizes.append(matrix.shape[0])
        return eigendecompose(matrix, k)

    monkeypatch.setattr(gridmap.guarantee, "eigendecompose", counting)
    certify(g, truth.labels)
    assert len(sizes) == solves
    assert sum(sizes) == g.matrix.shape[0]  # no isolated meters in either
