"""Workload definitions: feeder specs drawn from the benchmark seed, and the
kernel widths the benchmark derives from the generated voltages.

Every workload is a star-secondary feeder laid out by the package
simulator. The seed permutes a fixed multiset of group sizes (so N is the
same on every seed) and a fixed ladder of transformer impedances, and it
seeds the simulator's load profiles. The program under test only ever sees
the CSV files written from that feeder and, for `sweep-noise`, its spec.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial.distance import pdist

from gridmap.feeder_sim import FeederSpec

# Line resistance of every secondary segment. Small next to the transformer
# impedances, so meters of one group sit close together in voltage space.
LINE_RESISTANCE_PU = 1e-4
IMPEDANCE_RANGE_PU = (0.002, 0.006)
# Width of the sweep's voltage kernel, derived from the noise-free feeder.
SWEEP_WIDTH = ("within", 2.5)


@dataclass(frozen=True)
class Workload:
    name: str
    k: int                      # transformers
    T: int                      # samples per meter
    noise: float                # measurement noise of the clustered feeder (pu)
    method: str                 # `gridmap cluster --method`
    width: tuple[str, float]    # voltage kernel width rule, see voltage_width
    sweep_grid: tuple[float, ...]
    sweep_trials: int
    sigma_l: float | None = None    # location kernel width (km), multiview only
    tol: float | None = None        # multiview convergence tolerance
    # True when the eigengap assumption must hold for this feeder; None when
    # only the theorem-level consistency of the certificate is checked.
    assumption_expected: bool | None = True
    min_size: int = 20          # group sizes run min_size .. min_size + 10

    def spec(self, seed: int) -> FeederSpec:
        rng = np.random.default_rng(seed)
        sizes = rng.permutation([self.min_size + (j % 11) for j in range(self.k)])
        impedances = rng.permutation(np.linspace(*IMPEDANCE_RANGE_PU, self.k))
        return FeederSpec(
            k=self.k,
            meters_per_xfmr=sizes.tolist(),
            xfmr_impedance_pu=impedances.tolist(),
            line_resistance_pu=LINE_RESISTANCE_PU,
            T=self.T,
            noise_std_pu=self.noise,
            seed=seed,
            secondary="star",
        )


def voltage_width(voltages: np.ndarray, k: int, rule: tuple[str, float]) -> float:
    """Voltage kernel width derived from the data, outside the program.

    ``("within", c)``: c times the 1/(2k) quantile of all pairwise
    distances. About 1/k of the pairs share a transformer, so that quantile
    sits among the within-group distances on any seed.
    ``("median", f)``: f times the median pairwise distance.
    """
    kind, scale = rule
    d = pdist(voltages)
    if kind == "within":
        return scale * float(np.quantile(d, 0.5 / k))
    if kind == "median":
        return scale * float(np.median(d))
    raise ValueError(f"unknown width rule {kind!r}")


WORKLOADS = {
    w.name: w
    for w in (
        # dense eigh and k-means dominate; noise-free, so recovery is exact
        Workload("wide", k=40, T=96, noise=0.0, method="spectral",
                 width=("within", 2.5), sweep_grid=(0.0,), sweep_trials=1),
        # 30 days of samples: CSV parsing and O(N^2 T) distances dominate
        Workload("month", k=8, T=2880, noise=0.0, method="spectral",
                 width=("within", 2.5), sweep_grid=(0.0,), sweep_trials=3),
        # voltage noise defeats voltage-only recovery; the location view rescues it
        Workload("multiview", k=24, T=96, noise=1e-4, method="multiview",
                 width=("median", 0.1), sweep_grid=(0.0, 1e-4), sweep_trials=1,
                 sigma_l=0.3, tol=1e-3, assumption_expected=None),
    )
}

# Tiny versions of every workload for the smoke test: same code paths and
# output checks, a few seconds in all.
SMOKE = {
    name: replace(w, k=min(w.k, 4), T=min(w.T, 288), min_size=5,
                  sweep_trials=min(w.sweep_trials, 2))
    for name, w in WORKLOADS.items()
}
