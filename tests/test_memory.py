"""Peak memory of the dense path, traced with ``tracemalloc``, which counts
numpy's array allocations.

A graph is built from the N(N-1)/2 condensed pair distances in place, so it
peaks at its N x N matrix plus that half (1.5 N^2 doubles), not at three
or six N x N temporaries. ``recover`` on the spectral method holds the
graph, its Laplacian and the eigensolver's copy of it (about 3.15 N^2
doubles at N = 400). The bounds leave a small margin over those figures,
so a change that brings an N x N temporary back fails here. The graph
bound also holds when the distances are filled in 16 row parts at once.
k-means++ seeds its ten restarts together in a few (10, N) arrays, which
the ``recover`` bound covers.
"""
import tracemalloc

import numpy as np
import pytest

import scenarios
from gridmap.cli import recover
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

