"""Numerical certificates for the recovered clustering.

Two kinds of statement are checked against a reference (ideal) Laplacian
built from a known partition of the meters into k groups, where k is the
number of groups:

* an assumption check: the gap delta between the (k+1)-th smallest ideal
  eigenvalue and the k-th smallest eigenvalue of the measured-data
  Laplacian must be positive for the recovery to be trustworthy;
* a subspace perturbation bound: for an orthonormal approximation X~ of
  the ideal invariant subspace, with residual R = L X~ - X~ P (P the
  Rayleigh quotient X~' L X~) and separation s between the Ritz interval
  [min eig P, max eig P] and the rest of the ideal spectrum,

      || tan Theta(X, X~) ||  <=  || R || / s

  in both the 2-norm and the Frobenius norm, where Theta are the canonical
  angles between the approximation and the true subspace.

When the Ritz interval touches the rest of the spectrum (s <= 0) there is
no guarantee and the bound is left unevaluated rather than reported false.

The ideal Laplacian of a partition is block-diagonal with blocks n_j I - J,
so ``certify`` takes its spectrum, its action and its bottom eigenvectors
(the k normalized group indicators, for the k zeros) in closed form and
never forms it. The measured Laplacian is decomposed one connected
component at a time, one ``eigendecompose`` call per component of two or
more meters. That Laplacian is ``certify``'s own, so each decomposition
works in its component's copy, or in the Laplacian itself where the graph
is connected; the measured graph is left as it is unless the caller gives
it up, and then the Laplacian is formed in the graph's matrix.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .graph import SimilarityGraph, laplacian
from .spectral import by_component, eigendecompose

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


def _separation(interval: tuple[float, float], spectrum: np.ndarray) -> float:
    a, b = interval
    if spectrum.size == 0:
        raise InputError("complementary spectrum is empty (k = N?)")
    sep = float(np.min(np.maximum.reduce([a - spectrum, spectrum - b, np.zeros_like(spectrum)])))
    # a gap at roundoff level is none: Ritz values carry roundoff, and where
    # the ideal spectrum ties at lambda_k (exactly, in closed form) they
    # could otherwise step past it and report a spurious positive separation
    return sep if sep > SEP_TOL * max(1.0, float(np.abs(spectrum).max())) else 0.0


def _ideal_spectrum(sizes: np.ndarray) -> np.ndarray:
    """Closed-form spectrum of the ideal Laplacian, ascending.

    The ideal Laplacian is block-diagonal with blocks n_j I - J: each group
    contributes 0 (its indicator) and n_j repeated n_j - 1 times (its
    mean-zero directions).
    """
    return np.sort(np.concatenate([np.zeros(sizes.size), np.repeat(sizes, sizes - 1)]))


def _ideal_apply(labels: np.ndarray, sizes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """L_ideal @ x in O(Nk): n_label(i) x_i minus the sum of x over i's group."""
    sums = np.zeros((sizes.size, x.shape[1]))
    np.add.at(sums, labels, x)
    return sizes[labels][:, None] * x - sums[labels]


def _ideal_basis(labels: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The ideal Laplacian's bottom eigenvectors, one per group in index
    order: each group's indicator over sqrt(n_j), for its eigenvalue 0."""
    basis = np.zeros((labels.size, sizes.size))
    basis[np.arange(labels.size), labels] = 1.0 / np.sqrt(sizes)[labels]
    return basis


def _bound(apply_l, x_tilde: np.ndarray, spectrum: np.ndarray, k: int, basis: np.ndarray):
    """The tan-Theta report for x_tilde against the bottom-k eigenspace of a
    reference Laplacian given by its action ``apply_l``, its ascending
    ``spectrum`` and ``basis``, an orthonormal N x k basis of that
    eigenspace (read only when the separation is positive)."""
    x_tilde = _check_frame(x_tilde, "x_tilde")
    lx = apply_l(x_tilde)
    p = x_tilde.T @ lx                          # the Rayleigh quotient
    r = lx - x_tilde @ p                        # x_tilde' r = 0 up to roundoff
    ritz = np.linalg.eigvalsh(0.5 * (p + p.T))
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

    angles = canonical_angles(basis, x_tilde)
    report.tan_norm_2 = angles.tan_norm_2
    report.tan_norm_fro = angles.tan_norm_fro
    report.bound_rhs_2 = report.residual_norm_2 / sep
    report.bound_rhs_fro = report.residual_norm_fro / sep
    report.bound_holds_2 = report.tan_norm_2 <= report.bound_rhs_2 + 1e-12
    report.bound_holds_fro = report.tan_norm_fro <= report.bound_rhs_fro + 1e-12
    return report


def certify(real: SimilarityGraph, labels, overwrite_graph: bool = False) -> GuaranteeReport:
    """Full report: assumption gap plus the perturbation bound, one call.

    ``labels`` holds one label per meter, of any values; meters with equal
    labels form a group, and k is the number of groups. The approximate
    subspace is the k-dimensional bottom eigenspace of the measured-data
    Laplacian, compared against the ideal Laplacian of that partition. That
    Laplacian is never formed: its spectrum, its action on X~ and its
    bottom eigenvectors are all closed-form.

    Every measured eigenvalue is reported, but only k eigenvectors are read.
    ``by_component`` hands each connected component of two or more meters
    to ``eigendecompose``, for all of its eigenvalues and the bottom
    eigenvectors of its share of the k, capped at min(k, size,
    max(2, k - B + 2)) with B components and isolated meters in all, and an
    isolated meter contributes its diagonal entry; it merges the pieces. In
    a Laplacian a component's share stays below that cap; a component
    whose share reached it would be decomposed again for min(k, size). A
    connected Laplacian is one component, decomposed whole, so its report
    has the bits of a whole-matrix solve; a disconnected one's measured
    values may move in the last bits against it.

    With ``overwrite_graph`` the caller gives the graph up, and the
    Laplacian is formed in its matrix.
    """
    l_real = laplacian(real, overwrite_graph=overwrite_graph)
    n = l_real.shape[0]
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise InputError(f"the partition covers {labels.size} meters, the graph {n}")
    _, labels, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    k = sizes.size
    if k == n:
        raise InputError(f"each of the {n} meters is a group of its own: "
                         "no complementary spectrum")
    # looked up per call, so a wrapper on guarantee.eigendecompose sees every solve
    real_values, x_tilde = by_component(
        l_real, k, lambda block, m: eigendecompose(block, m, overwrite_a=True), overwrite_a=True)
    spectrum = _ideal_spectrum(sizes)

    report = _bound(
        lambda x: _ideal_apply(labels, sizes, x),
        x_tilde,
        spectrum,
        k,
        _ideal_basis(labels, sizes),
    )
    report.real_eigenvalues = real_values
    report.delta = float(spectrum[k] - real_values[k - 1])
    report.assumption_holds = report.delta > 0.0
    return report
