"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Run `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines as
they happen; without -s they still show up for any failing criterion.
Criterion 11 compares haversine with the planar approximation
``euclidean_angle``, which lives here with its own two tests.
"""

import dataclasses
import functools
import math
import time

import numpy as np
import pytest

from gridmap.cli import main, recover
from gridmap.cluster import evaluate, kmeans_pp
from gridmap.feeder_sim import generate_profiles, simulate_voltages
from gridmap.geo import EARTH_RADIUS_KM, haversine, wrap_lon
from gridmap.graph import ideal_graph, laplacian, voltage_similarity
from gridmap.guarantee import certify
from gridmap.spectral import eigendecompose, embed

from dense_certificate import IDEAL_456, eigengap_and_separation, symmetric_noise, tangent_bound
from scenarios import (
    THREE_CLUSTER_NOISE_GRID,
    TWO_CLUSTER_NOISE_GRID,
    TWO_SITE_SIGMA,
    block_spectrum,
    make_truth,
    three_cluster_spec,
    two_cluster_spec,
    two_site_case,
)


def check(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def same_partition(a, b):
    pairs = {(x, y) for x, y in zip(np.asarray(a), np.asarray(b))}
    return len({x for x, _ in pairs}) == len(pairs) == len({y for _, y in pairs})


def simulate(spec):
    return simulate_voltages(spec, generate_profiles(spec))


def random_sizes(rng):
    k = int(rng.integers(2, 5))
    return [int(s) for s in rng.integers(2, 9, size=k)]


def test_criterion_01_single_block_spectrum():
    t0 = time.perf_counter()
    worst = 0.0
    flat = 0.0
    for n in range(2, 11):
        dec = eigendecompose(laplacian(ideal_graph(make_truth([n]))))
        expected = np.array([0.0] + [float(n)] * (n - 1))
        worst = max(worst, float(np.max(np.abs(dec.eigenvalues - expected))))
        v0 = dec.eigenvectors[:, 0]
        flat = max(flat, float(np.max(np.abs(v0 - v0.mean()))))
    elapsed = time.perf_counter() - t0
    check(
        1,
        worst <= 1e-8 and flat <= 1e-8 and elapsed < 1.0,
        f"n=2..10 spectra off by {worst:.2e}, null eigenvector constant "
        f"to {flat:.2e}, {elapsed:.3f} s",
    )


def test_criterion_02_block_diagonal_spectra():
    zeros_ok = True
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        sizes = random_sizes(rng)
        w = eigendecompose(laplacian(ideal_graph(make_truth(sizes)))).eigenvalues
        zeros_ok &= int(np.sum(w < 1e-8)) == len(sizes)
        worst = max(worst, float(np.max(np.abs(w - block_spectrum(sizes)))))
    check(
        2,
        zeros_ok and worst <= 1e-8,
        f"50 random layouts: k zero eigenvalues each, union spectra off by {worst:.2e}",
    )


def test_criterion_03_embedding_rows_and_exact_recovery():
    exact = 0
    worst_intra = 0.0
    worst_inter = 0.0
    for seed in range(50):
        rng = np.random.default_rng(100 + seed)
        sizes = random_sizes(rng)
        truth = make_truth(sizes)
        rows = embed(laplacian(ideal_graph(truth)), len(sizes)).X
        for i in range(rows.shape[0]):
            for j in range(i + 1, rows.shape[0]):
                if truth.labels[i] == truth.labels[j]:
                    worst_intra = max(worst_intra, float(np.max(np.abs(rows[i] - rows[j]))))
                else:
                    worst_inter = max(worst_inter, abs(float(rows[i] @ rows[j])))
        km = kmeans_pp(rows, len(sizes), seed=seed)
        exact += same_partition(km.labels, truth.labels)
    check(
        3,
        worst_intra <= 1e-8 and worst_inter <= 1e-8 and exact == 50,
        f"rows equal within groups to {worst_intra:.2e}, orthogonal across to "
        f"{worst_inter:.2e}, k-means++ exact {exact}/50",
    )


def test_criterion_04_trace_optimality():
    worst_margin = -math.inf
    for trial in range(20):
        rng = np.random.default_rng(200 + trial)
        n = int(rng.integers(4, 13))
        k = int(rng.integers(1, min(5, n)))
        m = rng.uniform(0.0, 1.0, size=(n, n))
        m = 0.5 * (m + m.T)
        np.fill_diagonal(m, 1.0)
        lap = laplacian(m)
        x = embed(lap, k).X
        best = float(np.trace(x.T @ lap @ x))
        for _ in range(1000):
            h = np.linalg.qr(rng.standard_normal((n, k)))[0]
            worst_margin = max(worst_margin, best - float(np.trace(h.T @ lap @ h)))
    check(
        4,
        worst_margin <= 1e-8,
        f"embedding trace beats 20x1000 random frames, worst margin {worst_margin:.2e}",
    )


IDEAL_456_GAP = 4.0


@functools.lru_cache(maxsize=1)
def perturbation_reports():
    rng = np.random.default_rng(42)
    out = []
    for _ in range(100):
        dl = symmetric_noise(rng, 15, rng.uniform(0.0, 0.2 * IDEAL_456_GAP))
        x_tilde = embed(IDEAL_456 + dl, 3).X
        out.append((x_tilde, tangent_bound(IDEAL_456, x_tilde, 3)))
    return out


def test_criterion_05_tangent_bound_holds():
    holds = 0
    worst_galerkin = 0.0
    for _, rep in perturbation_reports():
        holds += bool(rep.bound_holds_2) and bool(rep.bound_holds_fro)
        worst_galerkin = max(worst_galerkin, rep.galerkin_norm)
    check(
        5,
        holds == 100 and worst_galerkin <= 1e-10,
        f"both norm bounds hold {holds}/100, Galerkin residual <= {worst_galerkin:.2e}",
    )


def test_criterion_06_eigengap_dominates_separation():
    worst = math.inf
    dominated = 0
    for x_tilde, _ in perturbation_reports():
        gap, sep = eigengap_and_separation(IDEAL_456, x_tilde, 3)
        worst = min(worst, gap - sep)
        dominated += gap >= sep - 1e-8

    theta = 0.3
    l_pair = laplacian(ideal_graph(make_truth([2])))
    dec = eigendecompose(l_pair)
    planted = math.cos(theta) * dec.eigenvectors[:, :1] + math.sin(theta) * dec.eigenvectors[:, 1:2]
    gap, sep = eigengap_and_separation(l_pair, planted, 1)
    ratio_err = abs(gap / sep - 1.0 / math.cos(theta) ** 2) * math.cos(theta) ** 2
    check(
        6,
        worst >= -1e-8 and dominated == 100 and ratio_err <= 1e-6,
        f"gap - separation >= {worst:.2e} over 100 trials, planted-rotation "
        f"ratio off by {ratio_err:.2e} relative",
    )


def test_criterion_07_assumption_check_tracks_noise():
    truth_ideal = eigendecompose(laplacian(ideal_graph(make_truth([4, 30, 6])))).eigenvalues
    gap_exact = truth_ideal[3] == 4.0

    medians = []
    low_noise_positive = True
    for noise in THREE_CLUSTER_NOISE_GRID:
        deltas = []
        for seed in range(20):
            data, _, truth = simulate(three_cluster_spec(noise, seed=seed))
            report = certify(voltage_similarity(data), truth.labels)
            deltas.append(report.delta)
            if noise == 0.0:
                low_noise_positive &= report.assumption_holds
        medians.append(float(np.median(deltas)))

    monotone = all(b <= a + 1e-12 for a, b in zip(medians, medians[1:]))
    flipped = medians[-1] <= 0.0
    check(
        7,
        gap_exact and low_noise_positive and monotone and flipped,
        f"ideal eigengap exactly 4: {gap_exact}; clean-noise delta > 0 on 20/20 seeds; "
        f"median delta {medians[0]:.3g} -> {medians[-1]:.3g} non-increasing over "
        f"{len(medians)} levels; verdict flips",
    )


def test_criterion_08_noise_robustness_curve():
    t0 = time.perf_counter()
    base = two_cluster_spec(0.0, seed=0)
    rates = []
    for noise in TWO_CLUSTER_NOISE_GRID:
        exact = 0
        for trial in range(100):
            spec = dataclasses.replace(base, noise_std_pu=noise, seed=base.seed + trial)
            data, xfmrs, truth = simulate(spec)
            mapping, _ = recover(data, xfmrs, spec.k, seed=spec.seed)
            exact += evaluate(mapping, truth).exact_recovery
        rates.append(exact / 100)
    elapsed = time.perf_counter() - t0

    within_band = True
    for a, b in zip(rates, rates[1:]):
        band = 2.0 * math.sqrt((a * (1 - a) + b * (1 - b)) / 100)
        within_band &= b <= a + band
    check(
        8,
        rates[0] == 1.0 and within_band and elapsed < 300.0,
        f"success {rates[0]:.2f} at zero noise, curve {rates} non-increasing "
        f"within the binomial band, {elapsed:.1f} s",
    )


@functools.lru_cache(maxsize=1)
def two_site_accuracies():
    """(single-view, multiview, raw-baseline) accuracy per seed."""
    out = []
    for seed in range(20):
        data, xfmrs, truth = two_site_case(seed)
        single, _ = recover(data, xfmrs, 2, sigma=TWO_SITE_SIGMA, seed=seed)
        multi, _ = recover(data, xfmrs, 2, "multiview", sigma=TWO_SITE_SIGMA, seed=seed)
        base, _ = recover(data, xfmrs, 2, "kmeans-baseline", seed=seed)
        out.append(tuple(evaluate(m, truth).accuracy for m in (single, multi, base)))
    return out


def test_criterion_09_multiview_rescues_the_boundary_meter():
    wins = sum(s < 1.0 and m == 1.0 for s, m, _ in two_site_accuracies())
    check(
        9,
        wins >= 18,
        f"single-view < 1.0 and multiview (lambda=0.5) == 1.0 on {wins}/20 seeds",
    )


def test_criterion_10_baseline_trails_spectral():
    wins = sum(b < s for s, _, b in two_site_accuracies())
    check(10, wins >= 18, f"raw-voltage baseline strictly below spectral on {wins}/20 seeds")


def euclidean_angle(p, q):
    """Planar-angle distance in km: R * sqrt(dlat^2 + dlon^2), dlon wrapped.

    A cheap surrogate for haversine that ignores the cos(lat) compression of
    longitude, so it never undershoots the great-circle distance by more than
    roundoff and overshoots it at high latitude.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    dlat = q[..., 0] - p[..., 0]
    dlon = wrap_lon(q[..., 1] - p[..., 1])
    d = EARTH_RADIUS_KM * np.sqrt(dlat**2 + dlon**2)
    return float(d) if d.ndim == 0 else d


def test_lat60_flat_overestimates_by_factor_two():
    one_deg_km = EARTH_RADIUS_KM * math.pi / 180.0
    # with no latitude change on the equator the flat approximation agrees exactly
    p = np.array([0.0, 0.0])
    q = np.array([0.0, math.radians(1.0)])
    assert euclidean_angle(p, q) == pytest.approx(haversine(p, q), rel=1e-12)
    lat = math.radians(60.0)
    p = np.array([lat, 0.0])
    q = np.array([lat, math.radians(1.0)])
    flat = euclidean_angle(p, q)
    great = haversine(p, q)
    assert flat == pytest.approx(one_deg_km, rel=1e-9)
    assert flat / great == pytest.approx(2.0, rel=1e-3)


def test_flat_metric_never_below_great_circle():
    # the flat approximation treats lat/lon as planar, which can only
    # stretch distances; checked over a large random sample
    rng = np.random.default_rng(17)
    n = 100_000
    p = np.stack([rng.uniform(-np.pi / 2, np.pi / 2, n),
                  rng.uniform(-np.pi, np.pi, n)], axis=1)
    q = np.stack([rng.uniform(-np.pi / 2, np.pi / 2, n),
                  rng.uniform(-np.pi, np.pi, n)], axis=1)
    assert np.all(haversine(p, q) <= euclidean_angle(p, q) + 1e-9)


def test_criterion_11_geodesic_checks():
    antipodal = haversine((0.0, 0.0), (0.0, math.pi))
    err_antipodal = abs(antipodal - math.pi * EARTH_RADIUS_KM) / (math.pi * EARTH_RADIUS_KM)

    lat60 = math.radians(60.0)
    p = (lat60, math.radians(10.0))
    q = (lat60, math.radians(10.2))
    ratio = euclidean_angle(p, q) / haversine(p, q)
    err_ratio = abs(ratio - 2.0) / 2.0
    check(
        11,
        err_antipodal <= 1e-6 and err_ratio <= 1e-3,
        f"antipodal distance off by {err_antipodal:.2e} relative, lat-60 "
        f"flat/geodesic ratio {ratio:.6f}",
    )


def test_criterion_12_cli_reruns_are_byte_identical(tmp_path):
    import json

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(two_cluster_spec(1e-4, seed=9).to_json_dict()))

    identical = True
    compared = []

    def rerun(label, argv_for, files):
        nonlocal identical
        dirs = []
        for sub in ("a", "b"):
            out = tmp_path / f"{label}_{sub}"
            assert main(argv_for(str(out))) == 0
            dirs.append(out)
        for name in files:
            same = (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
            identical &= same
            compared.append(name)
        return dirs[0]

    sim = rerun(
        "sim",
        lambda out: ["simulate", "--spec", str(spec_path), "--out", out],
        ["voltages.csv", "locations.csv", "transformers.csv", "ground_truth.csv",
         "spec_echo.json"],
    )
    common = [
        "--voltages", str(sim / "voltages.csv"),
        "--transformers", str(sim / "transformers.csv"),
    ]
    clu = rerun(
        "clu",
        lambda out: ["cluster", *common,
                     "--locations", str(sim / "locations.csv"),
                     "--k", "2", "--seed", "1", "--out", out],
        ["mapping.json"],
    )
    rerun(
        "val",
        lambda out: ["validate-assumption", *common,
                     "--ground-truth", str(sim / "ground_truth.csv"), "--out", out],
        ["guarantee.json", "eigs.csv"],
    )
    rerun(
        "eva",
        lambda out: ["evaluate", "--mapping", str(clu / "mapping.json"),
                     "--transformers", str(sim / "transformers.csv"),
                     "--ground-truth", str(sim / "ground_truth.csv"), "--out", out],
        ["evaluation.json"],
    )
    rerun(
        "swp",
        lambda out: ["sweep-noise", "--spec", str(spec_path),
                     "--noise-grid", "0.0,0.0001", "--trials", "2", "--out", out],
        ["sweep.csv"],
    )
    check(
        12,
        identical and len(compared) == 10,
        f"all five commands re-ran byte-identical across {len(compared)} output files",
    )
