"""Random-walk autocovariance similarity and the POLE trust predictor.

The walk transition is the exponential of the negative normalized Laplacian
at Markov time t, either row-normalized (``unsym``) or symmetrically
normalized (``sym``). The two generators are similar matrices, so both modes
come from one eigenbasis exponential of the symmetric generator, forward and
backward.

The autocovariance R = M^T W M is positive semidefinite, so the cosine of any
exact embedding U U^T = R is R normalized by sqrt(diag R) (``cosine_normalize``);
the attacks use that closed form instead of fitting a factor.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import tape as tp
from .errors import NumericError
from .linalg import sym_matrix_exp
from .graph import DEGREE_FLOOR, EdgeSplit, SignedGraph
from . import fextra


@dataclass
class WalkParams:
    t: float = 1.0
    mode: str = "unsym"  # or "sym"

    def __post_init__(self):
        if self.t <= 0:
            raise NumericError(f"Markov time must be positive, got {self.t}")
        if self.mode not in ("unsym", "sym"):
            raise NumericError(f"unknown walk mode {self.mode!r}")


def transition_matrix(A, degrees, t, mode):
    """exp(-(I - normalized A) t); polymorphic over tape Values for A.

    Both modes exponentiate the symmetric generator t (D^{-1/2} A D^{-1/2} - I)
    through one eigendecomposition. The row-normalized (``unsym``) walk is its
    similarity transform D^{-1/2} exp(.) D^{1/2}, since D^{-1} A is similar to
    D^{-1/2} A D^{-1/2}; A must be symmetric.
    """
    d = np.maximum(np.asarray(degrees, dtype=float), DEGREE_FLOOR)
    r = 1.0 / np.sqrt(d)
    gen = tp.mul(tp.add(tp.mul(A, np.outer(r, r)), -np.eye(d.shape[0])), t)
    M = sym_matrix_exp(gen)
    if mode == "unsym":
        return tp.mul(M, np.outer(r, np.sqrt(d)))
    return M


def degree_weight_matrix(degrees):
    """W = D/sum(d) - d d^T / sum(d)^2, the walk-weighting constant."""
    d = np.maximum(np.asarray(degrees, dtype=float), DEGREE_FLOOR)
    total = d.sum()
    return np.diag(d) / total - np.outer(d, d) / total ** 2


def signed_transition(g: SignedGraph, params: WalkParams, signed=True):
    A = g.adjacency() if signed else g.abs_adjacency()
    if (g.abs_adjacency().sum(axis=1) == 0).any():
        warnings.warn("graph has an isolated (all-hidden) node; degree floored",
                      RuntimeWarning, stacklevel=2)
    return transition_matrix(A, g.degrees(), params.t, params.mode)


def autocovariance(g: SignedGraph, params: WalkParams, signed=True):
    """R = M(t)^T W M(t) over the signed or unsigned walk."""
    M = signed_transition(g, params, signed)
    W = degree_weight_matrix(g.degrees())
    return M.T @ W @ M


def factorization_steps(R, U0, iters, lr):
    """Gradient descent on ||U U^T - R||_F^2 with residual-guarded steps.

    No attack runs this loop (``cosine_normalize`` needs no factor); it stays
    because ``perfbench/layers.py`` wraps ``pole.factorization_steps`` by name.
    Polymorphic over tape Values in R: accepted updates are recorded on the
    tape. Step acceptance itself is decided on the numeric values: a step that
    raises the residual is retried at half the step size, which keeps the
    residual non-increasing regardless of the scale of R.

    Returns (U, residual_curve).
    """
    Rd = tp._data(R)

    def residual(Ud):
        return float(((Ud @ Ud.T - Rd) ** 2).sum())

    U = U0
    res = residual(tp._data(U0))
    curve = [res]
    step = lr
    attempts = 0
    while len(curve) <= iters and attempts < iters + 64:
        attempts += 1
        E = U @ tp.transpose(U) - R
        Et = tp.transpose(E)
        U_next = U - (2.0 * step) * ((E + Et) @ U)
        res_next = residual(tp._data(U_next))
        if not np.isfinite(res_next) or res_next > res:
            step *= 0.5
            if step < 1e-12 or res > 1e6:
                raise NumericError(f"factorization diverged (residual {res:g})")
            continue
        U, res = U_next, res_next
        curve.append(res)
    return U, curve


def cosine_normalize(R, floor=1e-9):
    """Cosine normalization of a PSD R by its own diagonal, then to [0, 1].

    Any U with U U^T = R has row norms |U_i| = sqrt(R_ii), so this is the
    cosine similarity of an exact factor of R without computing one.
    Returns (R_cos, P): R_cos = clamp(R_ij / (s_i s_j), -1, 1) with
    s_i = sqrt(R_ii + floor^2), and P = (R_cos + 1)/2. Polymorphic over tape
    Values in R.
    """
    idx = np.arange(tp._data(R).shape[0])
    norms = tp.colstack([tp.sqrt(tp.gather(R, idx, idx) + floor ** 2)])
    denom = tp.matmul(norms, tp.transpose(norms))
    R_cos = tp.clamp(R / denom, -1.0, 1.0)
    P = (R_cos + 1.0) * 0.5
    return R_cos, P


def pole_predict(g: SignedGraph, split: EdgeSplit, params: WalkParams,
                 lr=0.01, iters=100, seed=0):
    """Train logistic regression on per-link (R_sign, R_abs) pairs.

    Returns predicted positive-sign probabilities for the test links of the
    split, using only training-link signs.
    """
    us, vs = g.edge_array().T
    feats = np.column_stack([autocovariance(g, params, signed)[us, vs]
                             for signed in (True, False)])
    signs = g.signs()
    y_train = (signs[split.train] > 0).astype(float)
    model = fextra.lr_train(feats[split.train], y_train, lr=lr, iters=iters, seed=seed)
    return fextra.lr_predict(model, feats[split.test])
