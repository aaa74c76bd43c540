"""The per-meter loops that ``gridmap.feeder_sim`` is tested against.

``generate_profiles`` builds each meter's profile as its own row and
``_grid_locations`` places each meter with scalar draws and ``math``
functions. ``gridmap.feeder_sim`` does both with array operations over all
meters; the tests compare the two byte for byte.
"""
import math

import numpy as np

from gridmap.errors import InputError
from gridmap.feeder_sim import MAX_REDRAWS, _rng, _xfmr_grid
from gridmap.geo import EARTH_RADIUS_KM


def _build_profile(spec, rng, amp, phase):
    t = np.arange(spec.T)
    day = 2.0 * np.pi * t / spec.samples_per_day
    p = spec.base_load_pu + amp * 0.5 * (1.0 + np.sin(day + phase))
    if spec.load_noise_pu > 0:
        p = p + rng.normal(0.0, spec.load_noise_pu, size=spec.T)
    return np.maximum(p, -spec.der_injection_pu)


def generate_profiles(spec) -> np.ndarray:
    rng = _rng(spec, 0)
    labels = spec.labels()
    n = spec.n_meters
    loads = np.empty((n, spec.T))
    for i in range(n):
        amp = spec.load_amp_pu * rng.uniform(0.5, 1.5)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        loads[i] = _build_profile(spec, rng, amp, phase)

    owner = {}
    for i in range(n):
        redraws = 0
        while owner.setdefault((loads[i] + 0.0).tobytes(), labels[i]) != labels[i]:
            if redraws == MAX_REDRAWS:
                raise InputError(f"meter {i}'s load profile still matches another transformer's")
            redraws += 1
            amp = max(spec.load_amp_pu, 1e-6) * rng.uniform(0.5, 1.5)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            loads[i] = _build_profile(spec, rng, amp, phase)

    return loads


def _grid_locations(spec, rng):
    if spec.xfmr_locations is not None:
        xfmr_loc = spec.xfmr_locations.copy()
    else:
        xfmr_loc = _xfmr_grid(spec)
    if spec.meter_locations is not None:
        meter_loc = spec.meter_locations.copy()
    else:
        meter_loc = np.empty((spec.n_meters, 2))
        labels = spec.labels()
        for i in range(spec.n_meters):
            lat_x, lon_x = xfmr_loc[labels[i]]
            r = spec.meter_radius_km * math.sqrt(rng.uniform())
            theta = rng.uniform(0.0, 2.0 * np.pi)
            meter_loc[i, 0] = lat_x + (r * math.cos(theta)) / EARTH_RADIUS_KM
            meter_loc[i, 1] = lon_x + (r * math.sin(theta)) / (
                EARTH_RADIUS_KM * math.cos(lat_x)
            )
    return xfmr_loc, meter_loc
