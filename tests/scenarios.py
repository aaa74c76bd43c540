"""Frozen test scenarios shared between module tests and the acceptance suite.

Every constant here was pinned after probing: changing one silently changes
what the dependent tests measure, so treat them as fixtures, not knobs.
"""

import math

import numpy as np

from gridmap.feeder_sim import FeederSpec
from gridmap.geo import EARTH_RADIUS_KM
from gridmap.ingest import GroundTruth, MeterDataset, TransformerSet

# --- three-cluster assumption-check scenario -------------------------------
# Sizes {4, 30, 6} put the within-cluster pairs in the majority (456 of 780),
# so the automatic kernel width lands among them and cross-similarity dies
# off at low noise. The star secondary keeps the 30-meter group compact.
THREE_CLUSTER_NOISE_GRID = [0.0, 1e-4, 2e-4, 3e-4, 5e-4, 1e-3]


def three_cluster_spec(noise: float = 0.0, seed: int = 0) -> FeederSpec:
    return FeederSpec(
        k=3,
        meters_per_xfmr=[4, 30, 6],
        xfmr_impedance_pu=[0.004, 0.002, 0.003],
        line_resistance_pu=0.0005,
        T=96,
        noise_std_pu=noise,
        seed=seed,
        secondary="star",
    )


# --- two-cluster noise-robustness scenario ----------------------------------
TWO_CLUSTER_NOISE_GRID = [0.0, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3]


def two_cluster_spec(noise: float = 0.0, seed: int = 0) -> FeederSpec:
    return FeederSpec(
        k=2,
        meters_per_xfmr=[5, 5],
        xfmr_impedance_pu=[0.004, 0.002],
        line_resistance_pu=0.0005,
        T=96,
        noise_std_pu=noise,
        seed=seed,
        secondary="star",
    )


# --- many-transformer degenerate scenario ------------------------------------
# A noise-free star feeder with 24 transformers. At the explicit width
# MANY_XFMR_SIGMA most similarities between meters of different
# transformers underflow to 0.0, but not all: the rest (at most about
# 1e-21) join the groups into 2 connected components, of 115 and 5 meters,
# not 24. Those weights are so small that the bottom 24 Laplacian
# eigenvalues are still zero to roundoff: one tightly clustered eigenvalue
# that an eigensolver must still split into an orthonormal frame.
MANY_XFMR_SIGMA = 2e-5


def many_xfmr_spec(seed: int = 3) -> FeederSpec:
    return FeederSpec(
        k=24,
        meters_per_xfmr=5,
        xfmr_impedance_pu=np.linspace(0.002, 0.006, 24).tolist(),
        line_resistance_pu=0.0005,
        T=96,
        noise_std_pu=0.0,
        seed=seed,
        secondary="star",
    )


# --- shrunken-gap feeder scenario ---------------------------------------------
# Identical transformer impedances leave only the (random) aggregate-load
# difference to separate the clusters in voltage space, so the voltage view
# alone splits near-arbitrarily while meter placement still identifies the
# groups. Seed 0 is a draw where the single view errs.


def shrunken_gap_spec(seed: int = 0) -> FeederSpec:
    return FeederSpec(
        k=2,
        meters_per_xfmr=[6, 6],
        xfmr_impedance_pu=[0.003, 0.003],
        line_resistance_pu=0.0005,
        T=96,
        noise_std_pu=2e-4,
        seed=seed,
        secondary="star",
    )


# --- two-site rescue scenario ------------------------------------------------
# Two transformer sites 5 km apart. In voltage space the meters form two
# parallel elongated chains plus one bridge meter that belongs to site A but
# sits nearer the tail of B's chain, so a voltage-only cut mislabels it.
# The geographic view is unambiguous (two tight blobs), which is what the
# co-regularized solve exploits. Probed over sigma scale 0.20..0.30 and
# three bridge positions; this point sits inside the region where all
# twenty seeds behave.
TWO_SITE_T = 96
TWO_SITE_DROP_PU = 0.01
TWO_SITE_NOISE_PU = 1e-4
TWO_SITE_SIGMA = 0.22 * TWO_SITE_DROP_PU * math.sqrt(TWO_SITE_T / 2)

_SITE_A_COORDS = [(0.0, 0.0), (0.2, 0.0), (0.4, 0.0), (0.6, 0.0), (0.8, 0.0),
                  (1.25, 0.42)]
_SITE_B_COORDS = [(0.0, 0.55), (0.2, 0.55), (0.4, 0.55), (0.6, 0.55),
                  (0.8, 0.55), (1.0, 0.55)]


def two_site_case(seed: int):
    """Build one draw of the two-site scenario.

    Returns (dataset, transformers, truth). Voltages are substation level
    minus two orthogonal sinusoidal drop shapes weighted by the planted
    coordinates, plus white noise; locations are 40 m blobs at each site.
    """
    rng = np.random.default_rng(seed)
    coords = np.array(_SITE_A_COORDS + _SITE_B_COORDS)
    n = len(coords)
    t = np.arange(TWO_SITE_T)
    shape_a = np.sin(2.0 * np.pi * t / TWO_SITE_T)
    shape_b = np.cos(2.0 * np.pi * t / TWO_SITE_T)
    volts = 1.0 - TWO_SITE_DROP_PU * (
        np.outer(coords[:, 0], shape_a) + np.outer(coords[:, 1], shape_b)
    )
    volts = volts + rng.normal(0.0, TWO_SITE_NOISE_PU, volts.shape)

    lat0, lon0 = math.radians(40.0), math.radians(-105.0)
    dlon = 5.0 / (EARTH_RADIUS_KM * math.cos(lat0))
    sites = np.array([(lat0, lon0), (lat0, lon0 + dlon)])
    locs = np.empty((n, 2))
    for i in range(n):
        site = sites[0] if i < len(_SITE_A_COORDS) else sites[1]
        r = 0.04 * math.sqrt(rng.uniform())
        theta = rng.uniform(0.0, 2.0 * np.pi)
        locs[i, 0] = site[0] + r * math.cos(theta) / EARTH_RADIUS_KM
        locs[i, 1] = site[1] + r * math.sin(theta) / (
            EARTH_RADIUS_KM * math.cos(site[0])
        )

    ids = [f"m{i:03d}" for i in range(n)]
    labels = np.array([0] * len(_SITE_A_COORDS) + [1] * len(_SITE_B_COORDS))
    data = MeterDataset(
        meter_ids=ids,
        voltages=volts,
        timestamps=[str(i) for i in range(TWO_SITE_T)],
        locations=locs,
    )
    xfmrs = TransformerSet(xfmr_ids=["x0", "x1"], locations=sites)
    truth = GroundTruth(
        mapping={ids[i]: ("x0" if labels[i] == 0 else "x1") for i in range(n)},
        meter_ids=ids,
        xfmr_ids=["x0", "x1"],
        labels=labels,
    )
    return data, xfmrs, truth


# --- ideal graphs -------------------------------------------------------------


def make_truth(sizes) -> GroundTruth:
    """Ground truth with contiguous groups of the given sizes."""
    labels = np.repeat(np.arange(len(sizes)), sizes)
    n = int(labels.size)
    ids = [f"m{i:03d}" for i in range(n)]
    xfmr_ids = [f"x{j}" for j in range(len(sizes))]
    return GroundTruth(
        mapping={ids[i]: xfmr_ids[labels[i]] for i in range(n)},
        meter_ids=ids,
        xfmr_ids=xfmr_ids,
        labels=labels,
    )


def block_spectrum(sizes) -> np.ndarray:
    """Eigenvalues of the ideal Laplacian: one zero per block, then each
    block size repeated (size - 1) times."""
    eigs = [0.0] * len(sizes)
    for n_j in sizes:
        eigs.extend([float(n_j)] * (n_j - 1))
    return np.sort(np.asarray(eigs))
