"""The dense reference certificate that ``certify`` is tested against, and
the dense ideal Laplacian and perturbations the tests drive it with.

``tangent_bound`` decomposes a reference Laplacian numerically and feeds
``_bound``, the routine ``certify`` feeds with the closed-form spectrum.
"""
import numpy as np

from gridmap.errors import InputError
from gridmap.graph import ideal_graph, laplacian
from gridmap.guarantee import GuaranteeReport, _bound
from gridmap.spectral import eigendecompose
from scenarios import make_truth

IDEAL_456 = laplacian(ideal_graph(make_truth([4, 5, 6])))


def symmetric_noise(rng, n, norm2):
    a = rng.standard_normal((n, n))
    sym = 0.5 * (a + a.T)
    return norm2 * sym / np.linalg.norm(sym, 2)


def tangent_bound(l_ideal: np.ndarray, x_tilde: np.ndarray, k: int) -> GuaranteeReport:
    """The tan-Theta report for x_tilde against the bottom-k eigenspace of l_ideal."""
    dec = eigendecompose(l_ideal, k)
    if np.shape(x_tilde) != (l_ideal.shape[0], k):
        raise InputError(f"x_tilde must be {(l_ideal.shape[0], k)}, got {np.shape(x_tilde)}")
    return _bound(lambda x: l_ideal @ x, x_tilde, dec.eigenvalues, k, dec.eigenvectors)


def eigengap_and_separation(l_ideal: np.ndarray, x_tilde: np.ndarray, k: int):
    """(distance from the bottom ideal eigenvalue, repeated k times, to the
    rest of the ideal spectrum; separation of x_tilde's Ritz interval)."""
    report = tangent_bound(l_ideal, x_tilde, k)
    w = report.ideal_eigenvalues
    lam = float(w[:k].mean())
    if np.max(np.abs(w[:k] - lam)) > 1e-8 * max(1.0, abs(w).max()):
        raise InputError("bottom k eigenvalues are not a single repeated eigenvalue")
    if report.separation <= 0.0:
        raise InputError("Ritz interval touches the complementary spectrum; no comparison")
    return float(np.min(np.abs(w[k:] - lam))), report.separation
