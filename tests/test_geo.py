import math

import numpy as np
import pytest

from gridmap.errors import InputError
from gridmap.geo import (
    EARTH_RADIUS_KM,
    euclidean_angle,
    haversine,
    pairwise_geo,
    wrap_lon,
)

EQUATOR_ONE_DEG_KM = EARTH_RADIUS_KM * math.pi / 180.0  # 111.1949...


def test_antipodal_distance():
    p = np.array([0.0, 0.0])
    q = np.array([0.0, math.pi])
    d = haversine(p, q)
    assert d == pytest.approx(math.pi * EARTH_RADIUS_KM, rel=1e-6)
    assert d == pytest.approx(20015.0868, abs=1e-3)


def test_equator_one_degree():
    p = np.array([0.0, 0.0])
    q = np.array([0.0, math.radians(1.0)])
    assert haversine(p, q) == pytest.approx(EQUATOR_ONE_DEG_KM, rel=1e-9)
    assert haversine(p, q) == pytest.approx(111.1949, abs=1e-3)
    # with no latitude change the flat approximation agrees exactly
    assert euclidean_angle(p, q) == pytest.approx(haversine(p, q), rel=1e-12)


def test_lat60_flat_overestimates_by_factor_two():
    lat = math.radians(60.0)
    p = np.array([lat, 0.0])
    q = np.array([lat, math.radians(1.0)])
    flat = euclidean_angle(p, q)
    great = haversine(p, q)
    assert flat == pytest.approx(EQUATOR_ONE_DEG_KM, rel=1e-9)
    assert flat / great == pytest.approx(2.0, rel=1e-3)


def test_same_point_zero_and_symmetry():
    rng = np.random.default_rng(5)
    lats = rng.uniform(-np.pi / 2, np.pi / 2, 300)
    lons = rng.uniform(-np.pi, np.pi, 300)
    pts = np.stack([lats, lons], axis=1)
    assert np.all(haversine(pts, pts) == 0.0)
    perm = rng.permutation(300)
    d_pq = haversine(pts, pts[perm])
    d_qp = haversine(pts[perm], pts)
    assert np.allclose(d_pq, d_qp, rtol=0.0, atol=1e-9)
    assert np.all(d_pq >= 0.0)
    assert np.all(d_pq <= math.pi * EARTH_RADIUS_KM + 1e-9)


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


def test_lon_wrap():
    assert wrap_lon(np.pi + 0.25) == pytest.approx(0.25 - np.pi)
    assert wrap_lon(-np.pi - 0.25) == pytest.approx(np.pi - 0.25)
    # points on either side of the date line are neighbors, not a world apart
    p = np.array([0.0, np.pi - 0.01])
    q = np.array([0.0, -np.pi + 0.01])
    assert haversine(p, q) == pytest.approx(EARTH_RADIUS_KM * 0.02, rel=1e-9)


def test_haversine_broadcasting():
    rng = np.random.default_rng(2)
    a = np.stack([rng.uniform(-1.0, 1.0, 7), rng.uniform(-3.0, 3.0, 7)], axis=1)
    b = np.stack([rng.uniform(-1.0, 1.0, 4), rng.uniform(-3.0, 3.0, 4)], axis=1)
    d = haversine(a[:, None, :], b[None, :, :])
    assert d.shape == (7, 4)
    assert d[3, 2] == pytest.approx(haversine(a[3], b[2]))


def test_pairwise_geo_matches_direct_loop():
    rng = np.random.default_rng(11)
    pts = np.stack([rng.uniform(-1.2, 1.2, 9), rng.uniform(-3.0, 3.0, 9)], axis=1)
    for metric, fn in (("haversine", haversine), ("euclidean-angle", euclidean_angle)):
        d = pairwise_geo(pts, metric=metric)
        assert d.shape == (9, 9)
        assert np.allclose(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        for i in range(9):
            for j in range(9):
                assert d[i, j] == pytest.approx(fn(pts[i], pts[j]), abs=1e-12)


def test_pairwise_geo_rejects_unknown_metric():
    pts = np.zeros((3, 2))
    with pytest.raises(InputError, match="unknown geo metric"):
        pairwise_geo(pts, metric="manhattan")
