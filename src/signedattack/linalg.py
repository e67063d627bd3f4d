"""Dense decompositions and matrix exponentials used by the graph models.

``sym_matrix_exp`` is the exponential every walk uses: a single recorded
primitive whose backward pass applies the divided-difference rule on the
eigenbasis. ``matrix_exp`` (scaling and squaring with a truncated Taylor
series, a composite of tape primitives that differentiates by construction)
works on any square matrix and is kept as the reference the tests compare
the eigenbasis path against. No program path calls ``truncated_svd``:
the detector's TSVD view reads the top-|eigenvalue| eigenvectors of
``top_abs_eigvecs``. It stays as the tests' oracle for that view and because
``perfbench/layers.py`` wraps both ``matrix_exp`` and ``truncated_svd`` by name.
"""

from __future__ import annotations

import math

import numpy as np

from . import tape as tp
from .errors import NumericError

# Taylor order for the scaled exponential; ~1e-12 accuracy once the scaled
# one-norm is at most 0.5.
EXP_TAYLOR_ORDER = 12
# Eigenvalue gaps below this switch the divided difference to its limit.
DEGENERATE_EIG_TOL = 1e-9


def _fix_column_signs(M):
    """Flip column signs so each column's largest-magnitude entry is positive."""
    idx = np.argmax(np.abs(M), axis=0)
    signs = np.sign(M[idx, np.arange(M.shape[1])])
    signs[signs == 0] = 1.0
    return signs


def _eigh(S: np.ndarray):
    """``np.linalg.eigh`` of (S + S^T)/2, ``NumericError`` where it fails; eigenvector
    signs as LAPACK leaves them. A symmetric S is already (S + S^T)/2 bit for
    bit, so it is decomposed as it is and no float n x n temporary is made."""
    S = np.asarray(S, dtype=float)
    try:
        return np.linalg.eigh(S if np.array_equal(S, S.T) else 0.5 * (S + S.T))
    except np.linalg.LinAlgError as e:
        residual = float(np.abs(S - S.T).max())
        raise NumericError(
            f"eigendecomposition failed (asymmetry residual {residual:g}): {e}"
        ) from e


def sym_eig(S: np.ndarray):
    """(lam, Q) of (S + S^T)/2 like ``np.linalg.eigh``, with deterministic
    eigenvector signs; eigenvalues ascending."""
    lam, Q = _eigh(S)
    return lam, Q * _fix_column_signs(Q)


def top_abs_eigvecs(S: np.ndarray, d: int):
    """The columns of ``sym_eig(S)[1]`` for the d largest |eigenvalue|, in that order.

    Ties in |eigenvalue| are taken in ascending eigenvalue order. The signs
    are ``sym_eig``'s, fixed on these columns only.
    """
    lam, Q = _eigh(S)
    U = Q[:, np.argsort(-np.abs(lam), kind="stable")[:d]]
    return U * _fix_column_signs(U)


def matrix_exp(A, order: int = EXP_TAYLOR_ORDER):
    """exp(A) by scaling and squaring with a truncated Taylor series.

    Works on plain arrays and on tape Values; every step is a recorded
    primitive. The scaling s is chosen so the scaled one-norm is <= 0.5.
    """
    Ad = tp._data(A)
    n = Ad.shape[0]
    if Ad.shape[0] != Ad.shape[1]:
        raise NumericError("matrix_exp requires a square matrix")
    norm1 = float(np.abs(Ad).sum(axis=0).max())
    s = 0 if norm1 <= 0.5 else int(math.ceil(math.log2(norm1 / 0.5)))
    B = tp.mul(A, 0.5 ** s)
    eye = np.eye(n)
    # Horner evaluation of I + B + B^2/2! + ... + B^order/order!
    T = eye
    for k in range(order, 0, -1):
        T = tp.add(eye, tp.matmul(tp.mul(B, 1.0 / k), T))
    for _ in range(s):
        T = tp.matmul(T, T)
    return T


def sym_matrix_exp(S):
    """exp of a symmetric matrix via its eigendecomposition; polymorphic over tape Values.

    The input is symmetrized as (S + S^T)/2 first. On the tape both steps
    are one recorded primitive: the adjoint G' = Q (Gamma o (Q^T G Q)) Q^T
    of the symmetrized input, where Gamma holds divided differences of exp
    over the eigenvalue pairs with the exp(lambda) limit on (near-)degenerate
    pairs, goes back to S as G'/2 + (G'/2)^T. Neither Q e^Lambda Q^T nor the
    adjoint depends on the sign of an eigenvector, so Q is left unfixed.
    """
    lam, Q = _eigh(tp._data(S))
    elam = np.exp(lam)

    def vjp(g, out, S):
        diff = lam[:, None] - lam[None, :]
        near = np.abs(diff) < DEGENERATE_EIG_TOL
        safe = np.where(near, 1.0, diff)
        gamma = np.where(near,
                         np.exp(0.5 * (lam[:, None] + lam[None, :])),
                         np.expm1(safe) / safe * elam[None, :])
        half = Q @ (gamma * (Q.T @ g @ Q)) @ Q.T * 0.5
        return half + half.T

    return tp._apply(lambda S: (Q * elam) @ Q.T, (vjp,), S)


def truncated_svd(A: np.ndarray, d: int):
    """Top-d singular triplets with the deterministic sign convention.

    Returns (U, sigma, V) with sigma descending; A ~= U diag(sigma) V^T.
    """
    A = np.asarray(A, dtype=float)
    if d > min(A.shape):
        raise NumericError(f"svd rank {d} exceeds min matrix dimension {min(A.shape)}")
    try:
        U, sigma, Vt = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError as e:
        raise NumericError(f"svd failed to converge: {e}") from e
    U, sigma, V = U[:, :d], sigma[:d], Vt[:d].T
    signs = _fix_column_signs(U)
    return U * signs, sigma, V * signs
