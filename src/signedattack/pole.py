"""Random-walk autocovariance similarity and the POLE trust predictor.

The walk transition is the exponential of the negative normalized Laplacian
at Markov time t, either row-normalized (``unsym``) or symmetrically
normalized (``sym``). The two generators are similar matrices, so both modes
come from one eigenbasis exponential of the symmetric generator, forward and
backward.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

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


@dataclass
class SimilarityMatrices:
    R_sign: np.ndarray
    R_abs: np.ndarray
    W: np.ndarray
    M_sign: np.ndarray
    M_abs: np.ndarray


@dataclass
class EmbeddingFactor:
    U: np.ndarray
    d: int
    iterations: int
    lr: float
    residual: float
    residual_curve: list = field(default_factory=list)


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


def autocovariance_pair(g: SignedGraph, params: WalkParams) -> SimilarityMatrices:
    M_sign = signed_transition(g, params, signed=True)
    M_abs = signed_transition(g, params, signed=False)
    W = degree_weight_matrix(g.degrees())
    return SimilarityMatrices(
        R_sign=M_sign.T @ W @ M_sign,
        R_abs=M_abs.T @ W @ M_abs,
        W=W,
        M_sign=M_sign,
        M_abs=M_abs,
    )


def factorization_steps(R, U0, iters, lr):
    """Gradient descent on ||U U^T - R||_F^2 with residual-guarded steps.

    Polymorphic over tape Values in R: accepted updates are recorded on the
    tape, so the attack differentiates through the whole trajectory. Step
    acceptance itself is decided on the numeric values: a step that raises
    the residual is retried at half the step size, which keeps the residual
    non-increasing regardless of the scale of R (a fixed step blows up when
    the random init dwarfs the similarity entries).

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


def factorize(R: np.ndarray, d: int, iters=50, lr=0.01, seed=0) -> EmbeddingFactor:
    """Fit U U^T ~= R from a seeded normal init."""
    R = np.asarray(R, dtype=float)
    rng = np.random.default_rng(seed)
    U0 = rng.standard_normal((R.shape[0], d))
    U, curve = factorization_steps(R, U0, iters, lr)
    return EmbeddingFactor(U=U, d=d, iterations=iters, lr=lr,
                           residual=curve[-1], residual_curve=curve)


def cosine_normalize(R, U, floor=1e-9):
    """Cosine-style normalization of R by row norms of U, then to [0, 1].

    Returns (R_cos, P): R_cos = clamp(R / (|U_i| |U_j|), -1, 1) and
    P = (R_cos + 1)/2. Polymorphic over tape Values in R and U.
    """
    norms = tp.colstack([tp.sqrt(tp.sum_(U * U, axis=1) + floor ** 2)])
    denom = tp.matmul(norms, tp.transpose(norms))
    R_cos = tp.clamp(R / denom, -1.0, 1.0)
    P = (R_cos + 1.0) * 0.5
    return R_cos, P


def pole_link_features(g: SignedGraph, params: WalkParams, links):
    pair = autocovariance_pair(g, params)
    us = np.array([u for u, _ in links], dtype=int)
    vs = np.array([v for _, v in links], dtype=int)
    return np.column_stack([pair.R_sign[us, vs], pair.R_abs[us, vs]])


def pole_predict(g: SignedGraph, split: EdgeSplit, params: WalkParams,
                 lr=0.01, iters=100, seed=0):
    """Train logistic regression on per-link (R_sign, R_abs) pairs.

    Returns predicted positive-sign probabilities for the test links of the
    split, using only training-link signs.
    """
    pairs = [(u, v) for u, v, _ in g.edges]
    feats = pole_link_features(g, params, pairs)
    signs = g.signs()
    y_train = (signs[split.train] > 0).astype(float)
    model = fextra.lr_train(feats[split.train], y_train, lr=lr, iters=iters, seed=seed)
    return fextra.lr_predict(model, feats[split.test])
