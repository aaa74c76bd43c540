"""Geodesic distances between (latitude, longitude) pairs given in radians.

Every distance the package measures is the haversine great-circle distance,
in kilometers on a sphere of radius 6371 km.
"""
from __future__ import annotations

import numpy as np

EARTH_RADIUS_KM = 6371.0


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


def pairwise_geo(points):
    """All-pairs haversine distance matrix (km) for an (n, 2) array of
    radian coords."""
    points = np.asarray(points, dtype=float)
    return haversine(points[:, None, :], points[None, :, :])
