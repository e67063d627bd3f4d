"""Random-walk autocovariance similarity and the POLE trust predictor.

``transition_matrix`` over (A, degrees, t) is the one random-walk path: the
POLE victim, the POLE attack loss, the polarization penalty and the balance
metrics all walk through it. The walk transition is the exponential of the
row-normalized generator t (D^{-1} A - I) at Markov time t. That generator
is similar to the symmetric t (D^{-1/2} A D^{-1/2} - I), so the walk comes
from one eigenbasis exponential of the symmetric one, forward and backward.

The autocovariance R = M^T (diag(w) - w w^T) M of a walk M, w = d / sum(d),
is read only at links (u, v): ``autocovariance`` returns R_uv, R_uu and R_vv
from one read of their columns of M, never the n x n R. R is positive
semidefinite, so the cosine of any exact embedding U U^T = R is
R_uv / sqrt(R_uu R_vv) (``cosine_normalize``, elementwise); the attacks use
that closed form instead of fitting a factor.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import tape as tp
from .errors import NumericError
from .linalg import sym_matrix_exp
from .graph import DEGREE_FLOOR, EdgeSplit, SignedGraph
from . import fextra

# added to diag R under the square root, so a zero row normalizes to finite values
COSINE_FLOOR = 1e-9


def check_markov_time(t):
    """Raise ``NumericError`` unless the Markov time t is positive (NaN is not)."""
    if not t > 0:
        raise NumericError(f"Markov time must be positive, got {t}")


def transition_matrix(A, degrees, t):
    """exp(t (D^{-1} A - I)), the row-normalized walk; polymorphic over tape Values for A.

    It exponentiates the symmetric generator t (D^{-1/2} A D^{-1/2} - I)
    through one eigendecomposition and returns the similarity transform
    D^{-1/2} exp(.) D^{1/2}, since D^{-1} A is similar to D^{-1/2} A D^{-1/2};
    A must be symmetric. The generator is one tape node built in place,
    whose adjoint (g t) r r^T, r = D^{-1/2} 1, multiplies in the order of
    the composite (A r r^T - I) t. Every walk of the package passes through
    here, so this is where a Markov time that is not positive (or is NaN)
    raises ``NumericError`` (``check_markov_time``).
    """
    check_markov_time(t)
    d = np.maximum(np.asarray(degrees, dtype=float), DEGREE_FLOOR)
    r = 1.0 / np.sqrt(d)

    def generator(A):
        gen = A * np.outer(r, r)
        gen[np.diag_indices_from(gen)] += -1.0
        gen *= t
        return gen

    # the adjoint builds r r^T again rather than hold it through the exponential
    M = sym_matrix_exp(tp._apply(generator, (lambda g, out, A: g * t * np.outer(r, r),), A))
    scale = np.outer(r, np.sqrt(d))
    if tp._is_value(M):
        return tp.mul(M, scale)
    M *= scale  # a plain walk is a fresh array, scaled in place
    return M


def autocovariance(M, degrees, us, vs):
    """(R_uv, R_uu, R_vv) at the pairs (us[k], vs[k]) of R = M^T W M for a walk M.

    R_uv = sum_i w_i M_iu M_iv - (M^T w)_u (M^T w)_v with w = d / sum(d); all
    three read one transpose of M gathered at us and at vs. Polymorphic over
    tape Values. The victim passes the walks over the signed A and |A|; the
    POLE attack, the walk over the A it scattered from its tape's sign vector.
    """
    d = np.maximum(np.asarray(degrees, dtype=float), DEGREE_FLOOR)
    w = d / d.sum()
    Mt = tp.transpose(M)
    Mu, Mv = tp.gather_rows(Mt, us), tp.gather_rows(Mt, vs)
    cu, cv = Mu @ w, Mv @ w
    return (Mu * Mv) @ w - cu * cv, (Mu * Mu) @ w - cu * cu, (Mv * Mv) @ w - cv * cv


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


def cosine_normalize(r_uv, r_uu, r_vv):
    """Cosine normalization of ``autocovariance``'s R_uv by R_uu and R_vv, then to [0, 1].

    Any U with U U^T = R has row norms |U_i| = sqrt(R_ii), so this is the
    cosine similarity of an exact factor of R without computing one.
    Returns (R_cos, P), elementwise: R_cos = clamp(r_uv / (s_u s_v), -1, 1)
    with s_u = sqrt(r_uu + COSINE_FLOOR^2), and P = (R_cos + 1)/2.
    Polymorphic over tape Values.
    """
    floor = COSINE_FLOOR ** 2
    R_cos = tp.clamp(r_uv / (tp.sqrt(r_uu + floor) * tp.sqrt(r_vv + floor)), -1.0, 1.0)
    return R_cos, (R_cos + 1.0) * 0.5


def pole_predict(g: SignedGraph, split: EdgeSplit, t):
    """The victims' shared head ``fextra.split_probs`` on per-link (R_sign, R_abs) pairs.

    R_sign and R_abs are the R_uv of ``autocovariance`` (R_uu, R_vv unread) at
    Markov time t of the walks over g's signed adjacency A and over |A|.
    Returns predicted positive-sign probabilities for the test links of the
    split from training-link signs only: the same converged ``fextra.lr_train``
    fit as the FeXtra victim's, on two features. A node whose links are all
    hidden has degree 0 before the floor (degrees count signed links, so the
    floor marks exactly those nodes); it draws a ``RuntimeWarning``.
    """
    us, vs = g.edge_array().T
    A, degrees = g.adjacency(), g.degrees()
    if (degrees == DEGREE_FLOOR).any():
        warnings.warn("graph has an isolated (all-hidden) node; degree floored",
                      RuntimeWarning, stacklevel=2)
    feats = np.column_stack([autocovariance(transition_matrix(X, degrees, t), degrees, us, vs)[0]
                             for X in (A, np.abs(A))])
    return fextra.split_probs(feats, g.signs(), split)
