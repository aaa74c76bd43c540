"""Peak memory of the dense path, traced with ``tracemalloc``, which counts
numpy's array allocations.

A graph is built in place in its N x N distance matrix, so it peaks at
that matrix plus a block of rows, or with ``auto`` plus the N(N-1)/2
distances gathered for the median width (1.5 N^2 doubles), not at three or
six N x N temporaries. ``recover`` reads each graph once, so it forms the
Laplacian in the graph's matrix and the eigensolver works in that: with
``auto`` the spectral method peaks at the graph's build, 1.50 N^2 doubles
at N = 400, and the multiview method holds two Laplacians and the solve's
work matrix, 3.49. ``certify`` works in its own Laplacian (one more
matrix beside a graph it keeps, none where the graph is given up), and
the tridiagonal solve of a connected one packs its reflectors into the
reduction's own matrix, 2.33 and 1.54; on a split graph only the
components are copied, 2.25 and 1.32. Load profiles peak at their (N, T)
array, with load noise a second one whose rows wait there, plus about
140 KiB whatever N and T: numpy's two iteration buffers of up to 8192
doubles (``np.getbufsize``) for the broadcast sum that starts the
sinusoids, and the per-meter draws. At N = 400 that is 1.47 N x T doubles at T = 96 and
1.05 at T = 960, 2.47 and 2.05 with load noise. The bounds leave a small
margin over those figures, so a change that brings an N x N (or N x T)
temporary back fails here. k-means++ seeds its ten restarts together in a
few (10, N) arrays, which the ``recover`` bounds cover.
"""
import tracemalloc

import numpy as np
import pytest

from gridmap.cli import recover
from gridmap import graph
from gridmap.feeder_sim import FeederSpec, generate_profiles, simulate_voltages
from gridmap.graph import location_similarity, voltage_similarity
from gridmap.guarantee import certify
from gridmap.spectral import _components

GRAPH_BOUND = 1.6       # N x N matrices of doubles
RECOVER_BOUND = 1.55
MULTIVIEW_BOUND = 3.55
CERTIFY_BOUNDS = {      # layout -> (graph kept, graph given up)
    "connected": (2.4, 1.6),
    "split": (2.3, 1.4),
}
PROFILE_BOUNDS = {      # (load noise, T) -> N x T arrays of doubles
    (0.0, 96): 1.55,
    (0.005, 96): 2.55,
    (0.0, 960): 1.1,
    (0.005, 960): 2.1,
}
SPLIT_SIGMA = 3e-5      # separates the noise-free feeder's groups into components


def star_spec(**overrides):
    return FeederSpec(**{
        "k": 16,
        "meters_per_xfmr": 25,
        "xfmr_impedance_pu": np.linspace(0.002, 0.006, 16).tolist(),
        "line_resistance_pu": 5e-4,
        "T": 96,
        "noise_std_pu": 1e-4,
        "seed": 0,
        "secondary": "star",
    } | overrides)


@pytest.fixture(scope="module")
def feeder():
    spec = star_spec()
    data, xfmrs, truth = simulate_voltages(spec, generate_profiles(spec))
    return data, xfmrs, spec.k, truth


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
    data = feeder[0]
    n = data.n_meters
    assert n == 400
    assert traced_peak(lambda: build(data, sigma=sigma)) <= GRAPH_BOUND * n * n * 8


@pytest.mark.parametrize("build", [voltage_similarity, location_similarity])
@pytest.mark.parametrize("sigma", ["auto", 0.3])
def test_graph_peak_holds_with_unbounded_block_rows(feeder, build, sigma, monkeypatch):
    # blocks of n / 16 rows at most keep their temporaries small, whatever
    # BLOCK_ROWS allows
    monkeypatch.setattr(graph, "BLOCK_ROWS", 10 ** 9)
    data = feeder[0]
    n = data.n_meters
    assert graph._row_blocks(n)[0] == (0, n // 16)
    assert traced_peak(lambda: build(data, sigma=sigma)) <= GRAPH_BOUND * n * n * 8


def test_spectral_recover_peak(feeder):
    data, xfmrs, k, _ = feeder
    n = data.n_meters
    assert traced_peak(lambda: recover(data, xfmrs, k, seed=0)) <= RECOVER_BOUND * n * n * 8


def test_multiview_recover_peak(feeder):
    data, xfmrs, k, _ = feeder
    n = data.n_meters
    peak = traced_peak(lambda: recover(data, xfmrs, k, "multiview", seed=0))
    assert peak <= MULTIVIEW_BOUND * n * n * 8


@pytest.mark.parametrize("overwrite_graph", [False, True])
@pytest.mark.parametrize("layout", ["connected", "split"])
def test_certify_peak(feeder, layout, overwrite_graph):
    # the traced call builds the graph, as validate-assumption does
    data, _, _, truth = feeder
    sigma = "auto"
    if layout == "split":
        data, _, _ = simulate_voltages(star_spec(noise_std_pu=0.0), generate_profiles(star_spec()))
        sigma = SPLIT_SIGMA
    blocks, _ = _components(voltage_similarity(data, sigma=sigma).matrix)
    assert (len(blocks) > 1) == (layout == "split")
    n = data.n_meters
    bound = CERTIFY_BOUNDS[layout][overwrite_graph]
    peak = traced_peak(lambda: certify(voltage_similarity(data, sigma=sigma), truth.labels,
                                       overwrite_graph=overwrite_graph))
    assert peak <= bound * n * n * 8


@pytest.mark.parametrize("load_noise, T", sorted(PROFILE_BOUNDS))
def test_profiles_peak(load_noise, T):
    # the degenerate-profile guard keeps hashes, not a copy of every
    # profile; at T = 960 the fixed buffers are small enough that an extra
    # 0.1 N x T temporary breaks the bound
    spec = star_spec(load_noise_pu=load_noise, T=T)
    peak = traced_peak(lambda: generate_profiles(spec))
    assert peak <= PROFILE_BOUNDS[load_noise, T] * spec.n_meters * spec.T * 8
