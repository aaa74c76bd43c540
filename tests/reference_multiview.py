"""The co-regularized solve that ``gridmap.multiview`` is tested against.

Each half-step forms L - lambda H H' afresh, in two new N x N arrays, and
each objective value is ``joint_objective`` of the current pair, its two
N x k trace products included. ``solve_multiview`` builds the same
matrices in one reused buffer and reads the objective off the eigenvalues
of those matrices; the tests require the same embeddings, labels and
iteration record bit for bit, and the objective trace to roundoff.
"""
import warnings

import numpy as np

import gridmap.multiview
from gridmap.cluster import kmeans_pp
from gridmap.errors import InputError
from gridmap.graph import laplacian
from gridmap.multiview import (
    LAMBDA_REG,
    TOL,
    MultiViewState,
    disagreement,
)
from gridmap.spectral import embed


def joint_objective(l_v, l_l, h_v, h_l, lambda_reg: float) -> float:
    """J(Hv, Hl) = Tr(Hv' Lv Hv) + Tr(Hl' Ll Hl) - lambda ||Hv' Hl||_F^2."""
    return (
        float(np.trace(h_v.T @ l_v @ h_v))
        + float(np.trace(h_l.T @ l_l @ h_l))
        + lambda_reg * disagreement(h_v, h_l)
    )


def solve_multiview(g_v, g_l, k, seed, tol=TOL):
    """Alternating minimization, voltage view first, until the objective
    of one outer iteration changes by at most ``tol`` (relative) or
    ``gridmap.multiview.MAX_OUTER_ITERS`` is hit."""
    if not 0 < tol < np.inf:
        raise InputError("tol must be finite and positive")
    l_v = laplacian(g_v)
    l_l = laplacian(g_l)
    if l_v.shape != l_l.shape:
        raise InputError("views disagree on the number of meters")

    emb_v = embed(l_v, k)
    emb_l = embed(l_l, k)
    lam = LAMBDA_REG
    cap = gridmap.multiview.MAX_OUTER_ITERS

    state = MultiViewState(H_v=emb_v.X, H_l=emb_l.X)
    trace = state.objective_trace
    trace.append(joint_objective(l_v, l_l, emb_v.X, emb_l.X, lam))
    for it in range(1, cap + 1):
        emb_v = embed(l_v - lam * (emb_l.X @ emb_l.X.T), k)
        trace.append(joint_objective(l_v, l_l, emb_v.X, emb_l.X, lam))
        emb_l = embed(l_l - lam * (emb_v.X @ emb_v.X.T), k)
        trace.append(joint_objective(l_v, l_l, emb_v.X, emb_l.X, lam))
        state.n_iters = it
        if abs(trace[-3] - trace[-1]) <= tol * max(1.0, abs(trace[-3])):
            state.converged = True
            break
    if not state.converged:
        warnings.warn(
            f"multi-view solve did not converge in {cap} iterations; "
            "returning the last iterate"
        )
    state.H_v, state.H_l = emb_v.X, emb_l.X
    return emb_v, kmeans_pp(emb_v.X, k, seed=seed), state
