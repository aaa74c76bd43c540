"""Co-regularized clustering of the voltage and location views.

Each view has its own Laplacian. The joint objective adds a disagreement
penalty that rewards embeddings whose cluster structures align:

    J(Hv, Hl) = Tr(Hv' Lv Hv) + Tr(Hl' Ll Hl) - lambda * ||Hv' Hl||_F^2

Alternating minimization keeps one embedding fixed and re-solves the other
as an ordinary trailing-eigenvector problem of the combined (possibly
indefinite) matrix L - lambda * H H'. Each half-step minimizes the joint
objective exactly in its block, so the trace of objective values never
increases. The final labels come from k-means++ on the voltage view's rows.

The objective needs no N x N products: the eigenvalues w_v of the
v-step's combined matrix sum to Tr(Hv' (Lv - lambda Hl Hl') Hv), so

    Tr(Hv' Lv Hv) = sum(w_v) + lambda * ||Hv' Hl||_F^2,
    J = sum(w_v) + Tr(Hl' Ll Hl),

with Tr(Hl' Ll Hl) carried over from the last l-step, and symmetrically
after an l-step. Both combined matrices are built in one reused N x N
buffer, which every eigensolve, the two single-view ones included, is
handed to overwrite, so no solve copies a matrix.
``tests/reference_multiview.py`` evaluates J from the traces directly and
pins this solve against that.

Every caller runs the same coupling weight (LAMBDA_REG) and iteration cap
(MAX_OUTER_ITERS), so they are constants; only the convergence tolerance
is a parameter, with its default TOL.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .cluster import KMeansResult, kmeans_pp
from .errors import InputError
from .graph import SimilarityGraph, laplacian
from .spectral import SpectralEmbedding, embed

LAMBDA_REG = 0.5        # weight of the disagreement penalty
MAX_OUTER_ITERS = 30    # read at each call, not bound as a default, so tests can lower it
TOL = 1e-8              # default relative objective change that stops the solve


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


def combined_laplacian(lap: np.ndarray, h_other: np.ndarray, lambda_reg: float,
                       out: np.ndarray | None = None) -> np.ndarray:
    """One view's Laplacian lowered along the other view's embedding,
    L - lambda * H H', formed in one N x N array: ``out`` when given."""
    low = np.matmul(h_other, h_other.T, out=out)
    np.multiply(lambda_reg, low, out=low)
    return np.subtract(lap, low, out=low)


def solve_multiview(
    g_v: SimilarityGraph,
    g_l: SimilarityGraph,
    k: int,
    seed: int,
    tol: float = TOL,
    overwrite_graphs: bool = False,
) -> tuple[SpectralEmbedding, KMeansResult, MultiViewState]:
    """Alternating minimization of the co-regularized objective, weight
    LAMBDA_REG.

    Initializes both embeddings from their single-view Laplacians, then
    updates voltage first and location second each outer iteration, until
    the relative change of the end-of-iteration objective drops below tol
    or MAX_OUTER_ITERS is hit (then a warning is issued). Each half-step
    minimizes the objective exactly, so the last iterate is also the best
    one. Returns the voltage-view embedding, the k-means++ result on its
    rows (``gridmap.cluster.RESTARTS`` restarts), and the iteration record.

    The graphs are left as they are unless the caller gives them up
    (``overwrite_graphs``); then each view's Laplacian is formed in its
    graph.
    """
    if not 0 < tol < np.inf:
        raise InputError("tol must be finite and positive")
    l_v = laplacian(g_v, overwrite_graph=overwrite_graphs)
    l_l = laplacian(g_l, overwrite_graph=overwrite_graphs)
    if l_v.shape != l_l.shape:
        raise InputError("views disagree on the number of meters")
    lam = LAMBDA_REG
    work = np.empty_like(l_v)  # every solve's matrix, given up to the solver

    laps, embs = (l_v, l_l), []  # voltage view, then location view
    for lap in laps:
        np.copyto(work, lap)
        embs.append(embed(work, k, overwrite_a=True))
    trs = [emb.eigenvalues.sum() for emb in embs]  # Tr(H' L H) of each view

    state = MultiViewState(H_v=embs[0].X, H_l=embs[1].X)
    trace = state.objective_trace
    trace.append(float(trs[0] + trs[1] + lam * disagreement(embs[0].X, embs[1].X)))
    for it in range(1, MAX_OUTER_ITERS + 1):
        for view, other in ((0, 1), (1, 0)):
            low = combined_laplacian(laps[view], embs[other].X, lam, out=work)
            embs[view] = embed(low, k, overwrite_a=True)
            w = embs[view].eigenvalues.sum()
            trace.append(float(w + trs[other]))
            trs[view] = w - lam * disagreement(embs[0].X, embs[1].X)
        state.n_iters = it
        if abs(trace[-3] - trace[-1]) <= tol * max(1.0, abs(trace[-3])):
            state.converged = True
            break
    if not state.converged:
        warnings.warn(
            f"multi-view solve did not converge in {MAX_OUTER_ITERS} iterations; "
            "returning the last iterate"
        )
    state.H_v, state.H_l = embs[0].X, embs[1].X
    return embs[0], kmeans_pp(embs[0].X, k, seed=seed), state
