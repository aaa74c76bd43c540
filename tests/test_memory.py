"""Peak memory of the dense path, traced with ``tracemalloc``, which counts
numpy's array allocations.

A graph is built in place in its N x N distance matrix, so it peaks at
that matrix plus a block of rows, or with ``auto`` plus the N(N-1)/2
distances gathered for the median width (1.5 N^2 doubles), not at three or
six N x N temporaries. ``recover`` on the spectral method holds the graph,
its Laplacian and the eigensolver's copy of it (about 3.15 N^2 doubles at
N = 400). The bounds leave a small margin over those figures, so a change
that brings an N x N temporary back fails here. k-means++ seeds its ten
restarts together in a few (10, N) arrays, which the ``recover`` bound
covers.
"""
import tracemalloc

import numpy as np
import pytest

from gridmap.cli import recover
from gridmap import graph
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
def test_graph_peak_holds_with_unbounded_block_rows(feeder, build, sigma, monkeypatch):
    # blocks of n / 16 rows at most keep their temporaries small, whatever
    # BLOCK_ROWS allows
    monkeypatch.setattr(graph, "BLOCK_ROWS", 10 ** 9)
    data, _, _ = feeder
    n = data.n_meters
    assert graph._row_blocks(n)[0] == (0, n // 16)
    assert traced_peak(lambda: build(data, sigma=sigma)) <= GRAPH_BOUND * n * n * 8


def test_spectral_recover_peak(feeder):
    data, xfmrs, k = feeder
    n = data.n_meters
    assert traced_peak(lambda: recover(data, xfmrs, k, seed=0)) <= RECOVER_BOUND * n * n * 8
