"""Peak memory of the dense path, traced with ``tracemalloc``, which counts
numpy's array allocations.

A graph is built from the N(N-1)/2 condensed pair distances in place, so it
peaks at its N x N matrix plus that half (1.5 N^2 doubles), not at three
or six N x N temporaries. ``recover`` on the spectral method holds the
graph, its Laplacian and the eigensolver's copy of it (about 3.15 N^2
doubles at N = 400). The bounds leave a small margin over those figures,
so a change that brings an N x N temporary back fails here. The graph
bound also holds when the distances are filled in 16 row parts at once.

k-means++ seeds its restarts LOCKSTEP at a time, holding a few
(LOCKSTEP, N) arrays, so its peak stays within 64 rows of N doubles of a
10-restart run's, however many restarts run.
"""
import tracemalloc

import numpy as np
import pytest

import scenarios
from gridmap.cli import recover
from gridmap.cluster import LOCKSTEP, kmeans_pp
from gridmap.feeder_sim import FeederSpec, generate_profiles, simulate_voltages
from gridmap.graph import location_similarity, voltage_similarity

GRAPH_BOUND = 1.6       # N x N matrices of doubles
RECOVER_BOUND = 3.3


@pytest.fixture(scope="module")
def feeder():
    spec = FeederSpec(
        k=16,
        meters_per_xfmr=25,
        xfmr_impedance_pu=np.linspace(0.002, 0.006, 16).tolist(),
        line_resistance_pu=5e-4,
        T=96,
        noise_std_pu=1e-4,
        seed=0,
        secondary="star",
    )
    data, xfmrs, _ = simulate_voltages(spec, generate_profiles(spec))
    return data, xfmrs, spec.k


def traced_peak(call):
    """Peak bytes traced during one call."""
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("build", [voltage_similarity, location_similarity])
@pytest.mark.parametrize("sigma", ["auto", 0.3])
def test_graph_peaks_at_one_and_a_half_matrices(feeder, build, sigma):
    data, _, _ = feeder
    n = data.n_meters
    assert n == 400
    assert traced_peak(lambda: build(data, sigma=sigma)) <= GRAPH_BOUND * n * n * 8


@pytest.mark.parametrize("build", [voltage_similarity, location_similarity])
@pytest.mark.parametrize("sigma", ["auto", 0.3])
def test_graph_peak_holds_in_row_parts(feeder, build, sigma, monkeypatch):
    # more parts than most machines run: their temporaries together must stay small
    scenarios.split_rows(monkeypatch, 16)
    data, _, _ = feeder
    n = data.n_meters
    assert traced_peak(lambda: build(data, sigma=sigma)) <= GRAPH_BOUND * n * n * 8


def test_spectral_recover_peak(feeder):
    data, xfmrs, k = feeder
    n = data.n_meters
    assert traced_peak(lambda: recover(data, xfmrs, k, seed=0)) <= RECOVER_BOUND * n * n * 8


def test_kmeans_peak_does_not_grow_with_restarts():
    rng = np.random.default_rng(0)
    n = 200
    pts = np.vstack([rng.normal(c, 0.3, (n // 4, 4)) for c in 5.0 * np.eye(4)])
    ten = traced_peak(lambda: kmeans_pp(pts, 4, seed=0, restarts=10))
    thousand = traced_peak(lambda: kmeans_pp(pts, 4, seed=0, restarts=1000))
    # a lockstep group holds about seven (LOCKSTEP, N) arrays: 45 more rows
    # of N doubles at 16 restarts than at 10, and none more at 1000
    assert LOCKSTEP <= 16
    assert thousand <= ten + 64 * n * 8
