"""Co-regularized clustering of the voltage and location views.

Each view has its own Laplacian. The joint objective adds a disagreement
penalty that rewards embeddings whose cluster structures align:

    J(Hv, Hl) = Tr(Hv' Lv Hv) + Tr(Hl' Ll Hl) - lambda * ||Hv' Hl||_F^2

Alternating minimization keeps one embedding fixed and re-solves the other
as an ordinary trailing-eigenvector problem of the combined (possibly
indefinite) matrix L - lambda * H H'. Each half-step minimizes the joint
objective exactly in its block, so the trace of objective values never
increases. The final labels come from k-means++ on one view's rows.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .cluster import KMeansResult, kmeans_pp
from .errors import InputError
from .graph import SimilarityGraph, laplacian
from .spectral import SpectralEmbedding, embed

FINAL_VIEWS = ("voltage", "location", "average")


@dataclass
class MultiViewConfig:
    lambda_reg: float = 0.5
    max_outer_iters: int = 30
    tol: float = 1e-8
    final_view: str = "voltage"

    def validate(self) -> None:
        if self.lambda_reg < 0:
            raise InputError("lambda_reg must be nonnegative")
        if self.max_outer_iters < 1:
            raise InputError("max_outer_iters must be positive")
        if self.tol <= 0:
            raise InputError("tol must be positive")
        if self.final_view not in FINAL_VIEWS:
            raise InputError(f"final_view must be one of {FINAL_VIEWS}")


@dataclass
class MultiViewState:
    H_v: np.ndarray
    H_l: np.ndarray
    objective_trace: list[float] = field(default_factory=list)
    n_iters: int = 0
    converged: bool = False


def disagreement(h_a: np.ndarray, h_b: np.ndarray) -> float:
    """-Tr(Ha Ha' Hb Hb') = -||Ha' Hb||_F^2, minimized when subspaces align."""
    return -float(np.linalg.norm(h_a.T @ h_b) ** 2)


def combined_laplacian(lap: np.ndarray, h_other: np.ndarray, lambda_reg: float) -> np.ndarray:
    """One view's Laplacian lowered along the other view's embedding."""
    return lap - lambda_reg * (h_other @ h_other.T)


def joint_objective(l_v, l_l, h_v, h_l, lambda_reg: float) -> float:
    return (
        float(np.trace(h_v.T @ l_v @ h_v))
        + float(np.trace(h_l.T @ l_l @ h_l))
        + lambda_reg * disagreement(h_v, h_l)
    )


def solve_multiview(
    g_v: SimilarityGraph,
    g_l: SimilarityGraph,
    k: int,
    cfg: MultiViewConfig,
    seed: int,
    restarts: int = 10,
) -> tuple[SpectralEmbedding, KMeansResult, MultiViewState]:
    """Alternating minimization of the co-regularized objective.

    Initializes both embeddings from their single-view Laplacians, then
    updates voltage first and location second each outer iteration, until
    the relative objective change drops below cfg.tol or the iteration cap
    is hit (then the best iterate is returned and a warning is issued).
    Returns the final-view embedding, the k-means++ result on its rows,
    and the iteration record.
    """
    cfg.validate()
    l_v = laplacian(g_v)
    l_l = laplacian(g_l)
    if l_v.shape != l_l.shape:
        raise InputError("views disagree on the number of meters")

    emb_v = embed(l_v, k)
    emb_l = embed(l_l, k)
    h_v, h_l = emb_v.X, emb_l.X
    lam = cfg.lambda_reg

    state = MultiViewState(H_v=h_v, H_l=h_l)
    state.objective_trace.append(joint_objective(l_v, l_l, h_v, h_l, lam))
    best = (state.objective_trace[0], emb_v, emb_l, h_v, h_l)

    prev_outer = state.objective_trace[0]
    for it in range(1, cfg.max_outer_iters + 1):
        emb_v = embed(combined_laplacian(l_v, h_l, lam), k)
        h_v = emb_v.X
        state.objective_trace.append(joint_objective(l_v, l_l, h_v, h_l, lam))

        emb_l = embed(combined_laplacian(l_l, h_v, lam), k)
        h_l = emb_l.X
        obj = joint_objective(l_v, l_l, h_v, h_l, lam)
        state.objective_trace.append(obj)

        state.n_iters = it
        if obj <= best[0]:
            best = (obj, emb_v, emb_l, h_v, h_l)
        if abs(prev_outer - obj) <= cfg.tol * max(1.0, abs(prev_outer)):
            state.converged = True
            break
        prev_outer = obj

    if not state.converged:
        warnings.warn(
            f"multi-view solve did not converge in {cfg.max_outer_iters} iterations; "
            "returning the best iterate"
        )
        _, emb_v, emb_l, h_v, h_l = best

    state.H_v, state.H_l = h_v, h_l

    if cfg.final_view == "voltage":
        final_emb, points = emb_v, h_v
    elif cfg.final_view == "location":
        final_emb, points = emb_l, h_l
    else:
        points = 0.5 * (h_v + h_l)
        final_emb = SpectralEmbedding(
            X=points,
            eigenvalues=0.5 * (emb_v.eigenvalues + emb_l.eigenvalues),
            next_eigenvalue=0.5 * (emb_v.next_eigenvalue + emb_l.next_eigenvalue),
        )

    return final_emb, kmeans_pp(points, k, seed=seed, restarts=restarts), state
