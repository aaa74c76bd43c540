"""Geodesic distances between (latitude, longitude) pairs given in radians.

Two metrics are provided: the haversine great-circle distance and a faster
small-region approximation that treats latitude/longitude differences as a
plane angle. Both return kilometers on a sphere of radius 6371 km.
"""
from __future__ import annotations

import numpy as np

from .errors import InputError

EARTH_RADIUS_KM = 6371.0

GEO_METRICS = ("haversine", "euclidean-angle")


def wrap_lon(dlon):
    """Wrap a longitude difference (radians) into [-pi, pi]."""
    return (np.asarray(dlon) + np.pi) % (2.0 * np.pi) - np.pi


def haversine(p, q):
    """Great-circle distance in km between points (lat, lon) in radians.

    Accepts scalars or broadcastable arrays; the last axis holds (lat, lon).
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    lat1, lon1 = p[..., 0], p[..., 1]
    lat2, lon2 = q[..., 0], q[..., 1]
    dlat = lat2 - lat1
    dlon = wrap_lon(lon2 - lon1)
    a = np.sin(dlat / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2
    # roundoff can push the radicand a hair past 1 for antipodal points
    root = np.sqrt(np.clip(a, 0.0, 1.0))
    d = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(root, 1.0))
    return float(d) if d.ndim == 0 else d


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


def pairwise_geo(points, metric="haversine"):
    """All-pairs distance matrix (km) for an (n, 2) array of radian coords."""
    points = np.asarray(points, dtype=float)
    if metric == "haversine":
        fn = haversine
    elif metric == "euclidean-angle":
        fn = euclidean_angle
    else:
        raise InputError(f"unknown geo metric: {metric!r}")
    return fn(points[:, None, :], points[None, :, :])
