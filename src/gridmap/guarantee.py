"""Numerical certificates for the recovered clustering.

Two kinds of statement are checked against a reference (ideal) Laplacian
built from a known meter-to-transformer assignment:

* an assumption check: the gap delta between the (k+1)-th smallest ideal
  eigenvalue and the k-th smallest eigenvalue of the measured-data
  Laplacian must be positive for the recovery to be trustworthy;
* a subspace perturbation bound: for an orthonormal approximation X~ of
  the ideal invariant subspace, with residual R = L X~ - X~ P (P the
  Rayleigh quotient X~' L X~) and separation s between the Ritz interval
  [min eig P, max eig P] and the rest of the ideal spectrum,

      || tan Theta(X, X~) ||  <=  || R || / s

  in both the 2-norm and the Frobenius norm, where Theta are the canonical
  angles between the approximation and the true subspace. A companion
  check confirms the plain eigengap (distance from the invariant
  eigenvalue to the rest of the spectrum) never falls below s.

When the Ritz interval touches the rest of the spectrum (s <= 0) there is
no guarantee and the bound is left unevaluated rather than reported false.

The ideal Laplacian of a reference assignment is block-diagonal with
blocks n_j I - J, so ``certify`` and ``check_assumption`` take its
spectrum, its action and its bottom eigenvectors in closed form;
``tangent_bound`` accepts any reference Laplacian and decomposes it. Both
evaluate the bound through the same routine.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .graph import SimilarityGraph, laplacian
from .ingest import GroundTruth
from .spectral import eigendecompose, eigenvalue

ORTHO_TOL = 1e-8
COS_FLOOR = 1e-15
SEP_TOL = 1e-10


@dataclass
class CanonicalAngles:
    cosines: np.ndarray     # ascending-angle order
    sines: np.ndarray
    tangents: np.ndarray    # inf where the angle is (numerically) 90 degrees
    tan_norm_2: float
    tan_norm_fro: float


@dataclass
class GuaranteeReport:
    k: int
    n: int
    ideal_eigenvalues: np.ndarray
    real_eigenvalues: np.ndarray | None = None
    delta: float | None = None                 # ideal-vs-measured gap
    assumption_holds: bool | None = None
    ritz_interval: tuple[float, float] | None = None
    separation: float | None = None
    residual_norm_2: float | None = None
    residual_norm_fro: float | None = None
    galerkin_norm: float | None = None
    tan_norm_2: float | None = None
    tan_norm_fro: float | None = None
    bound_rhs_2: float | None = None
    bound_rhs_fro: float | None = None
    bound_holds_2: bool | None = None
    bound_holds_fro: bool | None = None


def _check_frame(x: np.ndarray, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < x.shape[1]:
        raise InputError(f"{name} must be a tall N x k matrix")
    gram = x.T @ x
    if np.max(np.abs(gram - np.eye(x.shape[1]))) > ORTHO_TOL:
        raise InputError(f"{name} is not orthonormal (rank-deficient input?)")
    return x


def canonical_angles(x1: np.ndarray, x1_tilde: np.ndarray) -> CanonicalAngles:
    """Principal angles between two orthonormal column spans.

    Cosines are the singular values of x1' x1_tilde in ascending-angle
    order. A right angle yields an infinite tangent (sentinel), never an
    exception.
    """
    x1 = _check_frame(x1, "x1")
    x1_tilde = _check_frame(x1_tilde, "x1_tilde")
    if x1.shape != x1_tilde.shape:
        raise InputError("subspaces must have the same shape")
    overlap = x1.T @ x1_tilde
    cos = np.clip(np.linalg.svd(overlap, compute_uv=False), 0.0, 1.0)
    # sines come from the complement projection, not sqrt(1 - cos^2):
    # the latter floors near-zero angles at sqrt(eps) and would make the
    # bound fail spuriously on an exact invariant subspace
    resid = x1_tilde - x1 @ overlap
    sin = np.clip(np.linalg.svd(resid, compute_uv=False), 0.0, 1.0)[::-1]
    with np.errstate(over="ignore"):
        tan = np.where(cos < COS_FLOOR, np.inf, sin / np.maximum(cos, COS_FLOOR))
    return CanonicalAngles(
        cosines=cos,
        sines=sin,
        tangents=tan,
        tan_norm_2=float(tan.max()),
        tan_norm_fro=float(np.sqrt((tan**2).sum())),
    )


def _residual(x_tilde: np.ndarray, lx: np.ndarray):
    p = x_tilde.T @ lx
    return lx - x_tilde @ p, p


def rayleigh_residual(lap: np.ndarray, x_tilde: np.ndarray):
    """Residual R = L X~ - X~ (X~' L X~) and the Rayleigh quotient itself.

    By construction X~' R = 0 (Galerkin orthogonality) up to roundoff.
    """
    x_tilde = _check_frame(x_tilde, "x_tilde")
    return _residual(x_tilde, lap @ x_tilde)


def _separation(interval: tuple[float, float], spectrum: np.ndarray) -> float:
    a, b = interval
    if spectrum.size == 0:
        raise InputError("complementary spectrum is empty (k = N?)")
    sep = float(np.min(np.maximum.reduce([a - spectrum, spectrum - b, np.zeros_like(spectrum)])))
    # a gap at roundoff level is none: Ritz values carry roundoff, and where
    # the ideal spectrum ties at lambda_k (exactly, in closed form) they
    # could otherwise step past it and report a spurious positive separation
    return sep if sep > SEP_TOL * max(1.0, float(np.abs(spectrum).max())) else 0.0


def _ideal_spectrum(sizes: np.ndarray):
    """Closed-form spectrum of the ideal Laplacian, ascending, and the group
    each eigenvalue belongs to.

    The ideal Laplacian is block-diagonal with blocks n_j I - J: each
    nonempty group contributes 0 (its indicator) and n_j repeated n_j - 1
    times (its mean-zero directions). Ties are ordered by group.
    """
    sizes = np.asarray(sizes)
    extra = np.maximum(sizes - 1, 0)
    values = np.concatenate([np.zeros(np.count_nonzero(sizes)), np.repeat(sizes, extra)])
    owner = np.concatenate([np.flatnonzero(sizes), np.repeat(np.arange(sizes.size), extra)])
    order = np.argsort(values, kind="stable")
    return values[order].astype(float), owner[order]


def _ideal_apply(labels: np.ndarray, sizes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """L_ideal @ x in O(Nk): n_label(i) x_i minus the sum of x over i's group."""
    sums = np.zeros((sizes.size, x.shape[1]))
    np.add.at(sums, labels, x)
    return sizes[labels][:, None] * x - sums[labels]


def _ideal_basis(labels: np.ndarray, owners: np.ndarray) -> np.ndarray:
    """Orthonormal eigenvectors of the ideal Laplacian, one per entry of
    ``owners`` (the groups of its bottom eigenvalues, from _ideal_spectrum).

    A group that owns c of them gets the first c columns of a Helmert basis
    on its meters: the normalized indicator (eigenvalue 0), then contrasts
    (eigenvalue n_j). When c = n_j these span every meter of the group.
    """
    counts = np.bincount(owners)
    basis = np.zeros((labels.size, owners.size))
    col = 0
    for j in np.flatnonzero(counts):
        members = np.flatnonzero(labels == j)
        n, c = members.size, counts[j]
        i = np.arange(n)[:, None]
        m = np.arange(1, c)[None, :]
        basis[members, col] = 1.0 / np.sqrt(n)
        basis[members, col + 1 : col + c] = ((i < m) - m * (i == m)) / np.sqrt(m * (m + 1))
        col += c
    return basis


def _bound(apply_l, x_tilde: np.ndarray, spectrum: np.ndarray, k: int, reference):
    """The tan-Theta report for x_tilde against the bottom-k eigenspace of a
    reference Laplacian given by its action ``apply_l``, its ascending
    ``spectrum`` and ``reference()``, an orthonormal basis of that eigenspace
    (built only when the separation is positive)."""
    x_tilde = _check_frame(x_tilde, "x_tilde")
    r, p = _residual(x_tilde, apply_l(x_tilde))
    ritz = np.linalg.eigvalsh(0.5 * (p + p.T))  # of the Rayleigh quotient
    interval = (float(ritz[0]), float(ritz[-1]))
    sep = _separation(interval, spectrum[k:])
    report = GuaranteeReport(
        k=k,
        n=x_tilde.shape[0],
        ideal_eigenvalues=spectrum,
        ritz_interval=interval,
        separation=sep,
        residual_norm_2=float(np.linalg.norm(r, 2)),
        residual_norm_fro=float(np.linalg.norm(r)),
        galerkin_norm=float(np.max(np.abs(x_tilde.T @ r))),
    )
    if sep <= 0.0:
        return report  # no guarantee: interval touches the complementary spectrum

    angles = canonical_angles(reference(), x_tilde)
    report.tan_norm_2 = angles.tan_norm_2
    report.tan_norm_fro = angles.tan_norm_fro
    report.bound_rhs_2 = report.residual_norm_2 / sep
    report.bound_rhs_fro = report.residual_norm_fro / sep
    report.bound_holds_2 = report.tan_norm_2 <= report.bound_rhs_2 + 1e-12
    report.bound_holds_fro = report.tan_norm_fro <= report.bound_rhs_fro + 1e-12
    return report


def _check_sizes(k: int, n: int, truth: GroundTruth | None = None) -> None:
    if not 1 <= k < n:
        raise InputError(f"k must satisfy 1 <= k < N, got k={k}, N={n}")
    if truth is not None and truth.labels.shape != (n,):
        raise InputError(f"ground truth covers {truth.labels.size} meters, the graph {n}")


def check_assumption(real: SimilarityGraph, truth: GroundTruth, k: int) -> tuple[float, bool]:
    """Gap between the (k+1)-th ideal and k-th measured eigenvalue.

    Positive delta means the measured Laplacian's k-dimensional bottom
    subspace is still separated from where the ideal spectrum continues,
    which is what the perturbation bound needs to say anything.
    """
    l_real = laplacian(real)
    _check_sizes(k, l_real.shape[0], truth)
    ideal, _ = _ideal_spectrum(truth.sizes)
    delta = float(ideal[k] - eigenvalue(l_real, k - 1))
    return delta, delta > 0.0


def tangent_bound(l_ideal: np.ndarray, x_tilde: np.ndarray, k: int) -> GuaranteeReport:
    """Evaluate the tan-Theta perturbation bound for an approximate subspace.

    The reference subspace is the span of the k smallest-eigenvalue
    eigenvectors of l_ideal. If the Ritz interval of x_tilde overlaps the
    rest of the ideal spectrum, the report says so (separation 0, bound
    fields None) instead of claiming anything.
    """
    dec = eigendecompose(l_ideal)
    n = l_ideal.shape[0]
    _check_sizes(k, n)
    if np.shape(x_tilde) != (n, k):
        raise InputError(f"x_tilde must be {(n, k)}, got {np.shape(x_tilde)}")
    return _bound(
        lambda x: l_ideal @ x, x_tilde, dec.eigenvalues, k, lambda: dec.eigenvectors[:, :k]
    )


def eigengap_and_separation(
    l_ideal: np.ndarray, x_tilde: np.ndarray, k: int
) -> tuple[float, float]:
    """(distance from the invariant eigenvalue to the rest of the ideal
    spectrum, separation of the Ritz interval from that spectrum), both read
    from one ``tangent_bound`` report.

    Requires the bottom k ideal eigenvalues to be (numerically) one
    repeated eigenvalue, and a positive separation; otherwise the
    comparison is inapplicable and an error is raised.
    """
    report = tangent_bound(l_ideal, x_tilde, k)
    w = report.ideal_eigenvalues
    lam = float(w[:k].mean())
    if np.max(np.abs(w[:k] - lam)) > 1e-8 * max(1.0, abs(w).max()):
        raise InputError("bottom k eigenvalues are not a single repeated eigenvalue")
    if report.separation <= 0.0:
        raise InputError("Ritz interval touches the complementary spectrum; no comparison")
    return float(np.min(np.abs(w[k:] - lam))), report.separation


def verify_eigengap_dominance(l_ideal: np.ndarray, x_tilde: np.ndarray, k: int) -> bool:
    """True when the plain eigengap is at least the Ritz separation.

    The separation degrades with the quality of x_tilde (by 1/cos^2 of the
    largest canonical angle), so the raw eigengap always dominates it; this
    confirms that numerically, with 1e-8 slack.
    """
    gap, sep = eigengap_and_separation(l_ideal, x_tilde, k)
    return gap >= sep - 1e-8


def certify(real: SimilarityGraph, truth: GroundTruth, k: int) -> GuaranteeReport:
    """Full report: assumption gap plus the perturbation bound, one call.

    The approximate subspace is the k-dimensional bottom eigenspace of the
    measured-data Laplacian, compared against the ideal Laplacian of the
    reference assignment. That Laplacian is never formed: its spectrum,
    its action on X~ and its bottom eigenvectors are all closed-form.
    """
    l_real = laplacian(real)
    _check_sizes(k, l_real.shape[0], truth)
    labels, sizes = truth.labels, truth.sizes
    # all N measured eigenvalues are reported, so this solve stays full
    dec_real = eigendecompose(l_real)
    spectrum, owner = _ideal_spectrum(sizes)

    report = _bound(
        lambda x: _ideal_apply(labels, sizes, x),
        dec_real.eigenvectors[:, :k],
        spectrum,
        k,
        lambda: _ideal_basis(labels, owner[:k]),
    )
    report.real_eigenvalues = dec_real.eigenvalues
    report.delta = float(spectrum[k] - dec_real.eigenvalues[k - 1])
    report.assumption_holds = report.delta > 0.0
    return report
