import warnings

import numpy as np
import pytest

import reference_multiview
import scenarios
from gridmap.cluster import assign_transformers, evaluate, kmeans_pp
from gridmap.errors import InputError
from gridmap.feeder_sim import generate_profiles, simulate_voltages
from gridmap.graph import SimilarityGraph, ideal_graph, laplacian, location_similarity, voltage_similarity
import gridmap.multiview
from gridmap.multiview import (
    combined_laplacian,
    disagreement,
    solve_multiview,
)
from gridmap.spectral import embed


def same_partition(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    pairs = {(x, y) for x, y in zip(a, b)}
    return len({x for x, _ in pairs}) == len(pairs) == len({y for _, y in pairs})


def test_disagreement_of_orthogonal_subspaces_is_zero():
    h_a = np.eye(6)[:, :2]
    h_b = np.eye(6)[:, 2:4]
    assert disagreement(h_a, h_b) == 0.0


def test_disagreement_of_identical_subspaces_is_minus_k():
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
    assert disagreement(q, q) == pytest.approx(-3.0, abs=1e-12)
    # any rotation of the same column space scores the same
    rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    assert disagreement(q, q @ rot) == pytest.approx(-3.0, abs=1e-12)


def test_combined_laplacian_is_symmetric():
    rng = np.random.default_rng(2)
    raw = rng.uniform(0.0, 1.0, (7, 7))
    m = (raw + raw.T) / 2.0
    np.fill_diagonal(m, 1.0)
    lap = laplacian(m)
    h, _ = np.linalg.qr(rng.standard_normal((7, 2)))
    c = combined_laplacian(lap, h, 0.8)
    assert np.max(np.abs(c - c.T)) <= 1e-12


def test_combined_laplacian_ignores_basis_rotation():
    rng = np.random.default_rng(3)
    lap = laplacian(ideal_graph(scenarios.make_truth([3, 3])))
    h, _ = np.linalg.qr(rng.standard_normal((6, 2)))
    rot, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    a = combined_laplacian(lap, h, 0.5)
    b = combined_laplacian(lap, h @ rot, 0.5)
    assert np.allclose(a, b, atol=1e-12)


def test_combined_laplacian_writes_the_formula_into_out():
    rng = np.random.default_rng(4)
    spec = scenarios.three_cluster_spec(noise=1e-4, seed=1)
    lap = laplacian(voltage_similarity(simulate_voltages(spec, generate_profiles(spec))[0]))
    h, _ = np.linalg.qr(rng.standard_normal((lap.shape[0], 3)))
    want = lap - 0.5 * (h @ h.T)
    out = np.full_like(lap, np.nan)
    assert combined_laplacian(lap, h, 0.5, out=out) is out
    assert out.tobytes() == want.tobytes()
    assert combined_laplacian(lap, h, 0.5).tobytes() == want.tobytes()


def test_coupling_shifts_null_eigenvalues_to_minus_lambda():
    # H spanning the Laplacian's null space leaves every other eigenpair
    # alone and drags the k zeros down to -lambda
    lap = laplacian(ideal_graph(scenarios.make_truth([3, 3])))
    h = embed(lap, 2).X
    w = np.linalg.eigvalsh(combined_laplacian(lap, h, 0.5))
    assert np.allclose(w, [-0.5, -0.5, 3.0, 3.0, 3.0, 3.0], atol=1e-8)


def _two_site_graphs(seed):
    data, xfmrs, truth = scenarios.two_site_case(seed)
    g_v = voltage_similarity(data, sigma=scenarios.TWO_SITE_SIGMA)
    g_l = location_similarity(data)
    return data, xfmrs, truth, g_v, g_l


def test_identical_views_reduce_to_single_view():
    data, _, truth, g_v, _ = _two_site_graphs(0)
    emb, km, state = solve_multiview(g_v, g_v, truth.k, seed=0)
    assert state.converged
    # after the first update both embeddings span the same subspace, so the
    # coupling term sits pinned at -k
    coupling = disagreement(state.H_v, state.H_l)
    assert coupling == pytest.approx(-truth.k, abs=1e-8)
    single = kmeans_pp(embed(laplacian(g_v), truth.k).X, truth.k, seed=0)
    assert same_partition(km.labels, single.labels)


def test_objective_trace_is_monotone():
    for seed in (0, 3, 8):
        _, _, truth, g_v, g_l = _two_site_graphs(seed)
        _, _, state = solve_multiview(g_v, g_l, truth.k, seed=seed)
        trace = np.asarray(state.objective_trace)
        assert trace.size >= 3
        slack = 1e-8 * np.maximum(1.0, np.abs(trace[:-1]))
        assert np.all(np.diff(trace) <= slack)


def test_location_view_rescues_the_bridge_meter():
    data, xfmrs, truth, g_v, g_l = _two_site_graphs(0)
    single = kmeans_pp(embed(laplacian(g_v), truth.k).X, truth.k, seed=0)
    assert not same_partition(single.labels, truth.labels)

    _, km, _ = solve_multiview(g_v, g_l, truth.k, seed=0)
    mapping = assign_transformers(km, data, xfmrs)
    report = evaluate(mapping, truth)
    assert report.exact_recovery
    assert mapping.mapping == truth.mapping


def test_feeder_with_matched_impedances_needs_both_views():
    # both transformers have the same impedance, so cluster separation in
    # voltage space comes only from the load draw and the single view errs
    spec = scenarios.shrunken_gap_spec(seed=0)
    data, xfmrs, truth = simulate_voltages(spec, generate_profiles(spec))
    g_v = voltage_similarity(data)
    single = kmeans_pp(embed(laplacian(g_v), spec.k).X, spec.k, seed=0)
    single_acc = evaluate(assign_transformers(single, data, xfmrs), truth).accuracy
    assert single_acc < 1.0

    g_l = location_similarity(data)
    _, km, state = solve_multiview(g_v, g_l, spec.k, seed=0)
    report = evaluate(assign_transformers(km, data, xfmrs), truth)
    assert report.exact_recovery

    trace = np.asarray(state.objective_trace)
    slack = 1e-8 * np.maximum(1.0, np.abs(trace[:-1]))
    assert np.all(np.diff(trace) <= slack)


def test_iteration_cap_warns_and_returns_best(monkeypatch):
    _, _, truth, g_v, g_l = _two_site_graphs(4)
    monkeypatch.setattr(gridmap.multiview, "MAX_OUTER_ITERS", 1)
    with pytest.warns(UserWarning, match="did not converge"):
        _, _, state = solve_multiview(g_v, g_l, truth.k, seed=4, tol=1e-15)
    assert not state.converged
    assert state.n_iters == 1
    assert state.objective_trace[-1] == min(state.objective_trace)


def test_views_must_agree_on_size():
    _, _, truth, g_v, _ = _two_site_graphs(0)
    small = SimilarityGraph(matrix=np.eye(3), sigma=1.0, kind="location")
    with pytest.raises(InputError, match="number of meters"):
        solve_multiview(g_v, small, 2, seed=0)


def test_config_validation():
    _, _, truth, g_v, g_l = _two_site_graphs(0)
    with pytest.raises(InputError):
        solve_multiview(g_v, g_l, truth.k, seed=0, tol=0.0)


def test_joint_objective_composition():
    rng = np.random.default_rng(6)
    lap = laplacian(ideal_graph(scenarios.make_truth([2, 2])))
    h_v, _ = np.linalg.qr(rng.standard_normal((4, 2)))
    h_l, _ = np.linalg.qr(rng.standard_normal((4, 2)))
    val = reference_multiview.joint_objective(lap, lap, h_v, h_l, 0.7)
    expected = (
        np.trace(h_v.T @ lap @ h_v)
        + np.trace(h_l.T @ lap @ h_l)
        + 0.7 * disagreement(h_v, h_l)
    )
    assert val == pytest.approx(expected, rel=1e-12)


def multiview_cases():
    for seed in (0, 3, 8, 13):
        _, _, truth, g_v, g_l = _two_site_graphs(seed)
        yield f"two-site-{seed}", g_v, g_l, truth.k, seed
    for name, spec in (("shrunken-gap", scenarios.shrunken_gap_spec(seed=0)),
                       ("three-cluster", scenarios.three_cluster_spec(noise=3e-4, seed=1))):
        data, _, _ = simulate_voltages(spec, generate_profiles(spec))
        yield name, voltage_similarity(data), location_similarity(data, sigma=0.3), spec.k, 0


@pytest.mark.parametrize("cap", [1, 30])
@pytest.mark.parametrize("name, g_v, g_l, k, seed", list(multiview_cases()))
def test_solve_matches_the_reference_solver(monkeypatch, name, g_v, g_l, k, seed, cap):
    # the work buffer rebuilds combined_laplacian's bits, and the objective
    # read off the eigenvalues is the reference's joint_objective to roundoff
    monkeypatch.setattr(gridmap.multiview, "MAX_OUTER_ITERS", cap)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        emb, km, state = solve_multiview(g_v, g_l, k, seed=seed, tol=1e-10)
        ref_emb, ref_km, ref = reference_multiview.solve_multiview(g_v, g_l, k, seed=seed, tol=1e-10)
    assert state.H_v.tobytes() == ref.H_v.tobytes()
    assert state.H_l.tobytes() == ref.H_l.tobytes()
    assert emb.X.tobytes() == ref_emb.X.tobytes()
    assert np.array_equal(km.labels, ref_km.labels)
    assert (state.n_iters, state.converged) == (ref.n_iters, ref.converged)
    assert len(state.objective_trace) == len(ref.objective_trace)
    for got, want in zip(state.objective_trace, ref.objective_trace):
        assert got == pytest.approx(want, rel=1e-12)
