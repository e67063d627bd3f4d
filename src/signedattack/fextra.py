"""Degree/triad feature extraction and logistic-regression trust prediction.

Features for a link (u, v) are the four signed degrees, the common-neighbor
count and the four triad-type counts, in that order. The feature map reads
the graph through a wedge index: the directed entries of every link, and for
each link its common neighbours w as the entries of (u, w) and (w, v). Sign
flips never change the support, so the index is built once per graph's
links, and the map over the signed entries costs O(links + wedges).
The index (``link_index``) is built on first use and kept in the graph's
``support_cache``, which the graphs derived from it by masking or by new
signs share: an attack trial builds it once for the clean self-label fit,
the attack objective, the triad baseline and every victim retrain.
It reads the signs as one vector over the graph's links (``link_features``),
the same way for the victim and the attacks, which differentiate through it
with respect to that vector on the tape. The triad baseline and the
balance traces read their signed wedge sums off the block of all links
(``BALANCED_WEDGES``).

The victim (``lr_train``) z-scores its training rows and fits a ridge
logistic regression by Newton's method to a gradient-norm tolerance. Both
victims end in ``split_probs``, which fits it on the training rows of a
per-link block and predicts the test rows. On the tape the fit is one
primitive whose gradient comes from one solve with its Hessian at the
optimum (implicit differentiation), not from the steps that reached it.
``ols_theta`` is the closed-form least-squares surrogate for the fit:
features pass through ln(x+1), 0/1 labels through a clipped logit
(``OLS_LOGITS``), and the Gram matrix gets a small ridge so the solve stays
defined on integer count data. It is a plain numpy fit that returns its own
pullback from theta to the features, which the ``fextra-ols`` attack
objective records inside one tape node (``attacks``); nothing else in the
package predicts from ln(x+1) features.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import tape as tp
from .errors import MetricUndefinedError, NumericError
from .graph import SignedGraph

OLS_LABEL_EPS = 0.01
OLS_RIDGE = 1e-6
# the victim's ridge keeps its optimum finite on single-class and
# near-separable training sets
LR_RIDGE = 1e-2
LR_GRAD_TOL = 1e-9
LR_MAX_STEPS = 50

FEATURE_NAMES = (
    "deg_pos_u", "deg_neg_u", "deg_pos_v", "deg_neg_v",
    "common_neighbors", "tri_pp", "tri_pm", "tri_mp", "tri_mm",
)
# X @ BALANCED_WEDGES = tri_pp - tri_pm - tri_mp + tri_mm = (A @ A)[u, v] per link (u, v)
BALANCED_WEDGES = (0, 0, 0, 0, 0, 1, -1, -1, 1)
# the surrogate's target for label 0 and for label 1: the logit of the label
# clipped to [OLS_LABEL_EPS, 1 - OLS_LABEL_EPS], by the expression the fit
# once evaluated on every row
_CLIPPED_LABELS = np.clip(np.array([0.0, 1.0]), OLS_LABEL_EPS, 1.0 - OLS_LABEL_EPS)
OLS_LOGITS = np.log(_CLIPPED_LABELS / (1.0 - _CLIPPED_LABELS))
OLS_LOGITS.flags.writeable = False


@dataclass
class LRModel:
    theta: object  # intercept followed by the feature weights; a tape Value on the tape
    # z-scoring of the training rows that ``lr_train`` fit on, applied to any
    # rows it predicts
    center: object
    scale: object
    grad_norm: float | None = None  # objective gradient norm where lr_train stopped


@dataclass(frozen=True)
class WedgeIndex:
    """Where the feature map of a graph's links reads its sign vector.

    Entry e is a directed pair (u, v) of a link, hidden signs included; each
    link gives two, (u, v) and (v, u), sorted by row and then column.
    ``rows[e]`` is the entry's first node and ``edge[e]`` the link's
    position in the graph's edge list, so the entry's sign is
    ``signs[edge[e]]``. Link j is (us[j], vs[j]), in edge-list order. Wedge
    i closes link ``link[i]`` = (u, v) through a common neighbour w:
    ``first[i]`` is the entry of (u, w) and ``second[i]`` that of (w, v).

    The index reads the links but not their signs. ``link_index`` builds it
    on first use and shares it with every graph masked or re-signed from the
    graph; a graph no trial reuses (the balance traces) calls
    ``wedge_index``, which builds it each time it is asked for.
    """

    n: int
    rows: np.ndarray
    edge: np.ndarray
    us: np.ndarray
    vs: np.ndarray
    first: np.ndarray
    second: np.ndarray
    link: np.ndarray
    common: np.ndarray  # wedges per link: its common-neighbour count


def wedge_index(g: SignedGraph) -> WedgeIndex:
    """The wedge index of ``g``'s links, built now.

    It costs O(links x degree) and builds no n x n or links x n array.
    ``link_index`` is the cached one.
    """
    n, edges = g.n, g.edge_array()
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    keys = rows * n + cols
    order = np.argsort(keys)
    rows, cols, keys = rows[order], cols[order], keys[order]
    us, vs = edges[:, 0], edges[:, 1]
    # every neighbour w of u, as the entry of (u, w), for each link (u, v)
    start = np.searchsorted(rows, us)
    deg = np.searchsorted(rows, us, side="right") - start
    link = np.repeat(np.arange(len(edges)), deg)
    first = np.arange(len(link)) + np.repeat(start - (np.cumsum(deg) - deg), deg)
    # the wedge closes where (w, v) is an entry too
    key = cols[first] * n + vs[link]
    second = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
    closed = keys[second] == key
    link = link[closed]
    return WedgeIndex(n, rows, order % len(edges), us, vs, first[closed], second[closed], link,
                      np.bincount(link, minlength=len(edges)).astype(float))


def link_index(g: SignedGraph) -> WedgeIndex:
    """``wedge_index(g)``, built on first use.

    It is kept in ``g.support_cache``, which ``g`` shares with the graph it
    was masked or re-signed from and with those masked or re-signed from it,
    so they all read one index. A graph on other links (``induced_subgraph``,
    a largest component) builds its own.
    """
    index = g.support_cache.get("wedge_index")
    if index is None:
        index = g.support_cache["wedge_index"] = wedge_index(g)
    return index


def link_features(signs, index: WedgeIndex):
    """The nine-column feature block of the index's links; polymorphic over tape Values.

    ``signs`` holds one sign per link of the graph the index was built from
    (hidden signs 0), in edge-list order; the map gathers each entry's sign
    as ``signs[index.edge]``. Signed degrees sum entries by row, and each
    triad count sums, over the link's wedges, the product of its two legs.
    Sign flips never change the support, so callers build the index once per
    graph's links and each evaluation costs O(links + wedges). The nine columns
    are written into one preallocated block.

    On the tape the map is one recorded primitive. Its adjoint takes the
    cotangent of the nine columns back to ``signs`` with ``bincount`` over
    the index, adding the terms in the order a composite of gathers, relu and
    segment sums would visit them in reverse: the triad pairs mm, mp, pm, pp,
    the degree columns at v before u, the scatters of the second legs, the
    first legs and the degree rows, then A- into A+, and A- and A+ into the
    signs. The gradient is therefore the same bit for bit as the composite's
    (``tests/densefeatures.py`` keeps that composite as the oracle).
    """
    s = tp._data(signs)
    first, second, link, m = index.first, index.second, index.link, len(index.us)
    us, vs, rows, n = index.us, index.vs, index.rows, index.n
    a = s[index.edge]
    a_plus = np.maximum(a, 0.0)
    a_minus = a_plus - a
    dpos = np.bincount(rows, weights=a_plus, minlength=n)
    dneg = np.bincount(rows, weights=a_minus, minlength=n)
    fp, fm, sp, sm = a_plus[first], a_minus[first], a_plus[second], a_minus[second]
    out = np.empty((m, len(FEATURE_NAMES)))
    out[:, 0], out[:, 1], out[:, 2], out[:, 3] = dpos[us], dneg[us], dpos[vs], dneg[vs]
    out[:, 4] = index.common
    for j, (p, q) in enumerate(((fp, sp), (fp, sm), (fm, sp), (fm, sm)), start=5):
        out[:, j] = np.bincount(link, weights=p * q, minlength=m)

    def vjp(G, out, s):
        gpp, gpm, gmp, gmm = (G[link, j] for j in (5, 6, 7, 8))
        fm_bar = gmm * sm + gmp * sp
        sm_bar = gmm * fm + gpm * fp
        sp_bar = gmp * fm + gpp * fp
        fp_bar = gpm * sm + gpp * sp
        dneg_bar = np.bincount(vs, G[:, 3], n) + np.bincount(us, G[:, 1], n)
        dpos_bar = np.bincount(vs, G[:, 2], n) + np.bincount(us, G[:, 0], n)
        e = len(a)
        am_bar = np.bincount(second, sm_bar, e) + np.bincount(first, fm_bar, e) + dneg_bar[rows]
        ap_bar = (np.bincount(second, sp_bar, e) + np.bincount(first, fp_bar, e)
                  + dpos_bar[rows] + am_bar)
        return np.bincount(index.edge, ap_bar * (a > 0.0) - am_bar, len(s))

    return tp._apply(lambda s: out, (vjp,), signs)


def logistic_theta(Z, y):
    """Minimizer of mean cross-entropy + LR_RIDGE/2 |theta|^2 by step-halved Newton.

    ``Z`` already holds the intercept column. Returns (theta, norm of the
    objective gradient at theta) and raises ``NumericError`` when that norm
    does not reach ``LR_GRAD_TOL``. When Z is a tape Value the fit is one
    recorded primitive, differentiated implicitly at the optimum: the vjp
    solves v = H^{-1} theta_bar with the Hessian H of the last Newton step and
    sends -((p - y) v^T + (w * Z v) theta^T) / m back to Z, w = p (1 - p).
    """
    Zd = tp._data(Z)
    y = np.asarray(y, dtype=float)
    m, k = Zd.shape

    def objective(th):
        s = Zd @ th
        return np.logaddexp(0.0, s).mean() - y @ s / m + 0.5 * LR_RIDGE * th @ th

    theta = np.zeros(k)
    f = objective(theta)
    for _ in range(LR_MAX_STEPS):
        p = tp.sigmoid(Zd @ theta)
        w = p * (1.0 - p)
        grad = Zd.T @ (p - y) / m + LR_RIDGE * theta
        grad_norm = float(np.linalg.norm(grad))
        H = (Zd.T * w) @ Zd / m + LR_RIDGE * np.eye(k)
        if grad_norm <= LR_GRAD_TOL:
            break
        step = np.linalg.solve(H, grad)
        t = 1.0
        # a step that raises the objective beyond rounding is retried at half length
        while (f_next := objective(theta - t * step)) > f + 1e-12 and t > 1e-6:
            t *= 0.5
        theta, f = theta - t * step, f_next
    else:
        raise NumericError(f"logistic fit did not converge (gradient norm {grad_norm:g})")

    def vjp(g, out, Zd):
        v = np.linalg.solve(H, g)
        return -(np.outer(p - y, v) + np.outer(w * (Zd @ v), theta)) / m

    return tp._apply(lambda Zd: theta, (vjp,), Z), grad_norm


def lr_train(X, y) -> LRModel:
    """The victim's logistic fit, converged; polymorphic over tape Values for X.

    The columns of X are z-scored by their training mean and std (std 1 for a
    constant column), on the tape, and ``logistic_theta`` fits intercept and
    weights with the fixed ridge ``LR_RIDGE``.
    """
    m = tp._data(X).shape[0]
    center = tp.sum_(X, axis=0) / m
    Xc = X - center
    var = tp.sum_(Xc * Xc, axis=0) / m
    scale = tp.sqrt(var + (tp._data(var) == 0.0))
    theta, grad_norm = logistic_theta(tp.prepend_ones(Xc / scale), y)
    return LRModel(theta, center=center, scale=scale, grad_norm=grad_norm)


def lr_predict(model: LRModel, X):
    """Positive-sign probabilities for the rows of X; polymorphic over tape Values."""
    X = (X - model.center) / model.scale
    return tp.sigmoid(tp.prepend_ones(X) @ model.theta)


def split_probs(X, signs, split):
    """The victims' head: ``lr_train`` on the training rows of the per-link block X,
    labelled by ``signs`` > 0, predicting its test rows; polymorphic over tape Values."""
    X_tr, X_te = tp.gather_rows(X, split.train), tp.gather_rows(X, split.test)
    y_tr = (tp._data(signs)[split.train] > 0).astype(float)
    return lr_predict(lr_train(X_tr, y_tr), X_te)


@functools.cache
def _ols_ridge(k):
    """OLS_RIDGE I of width ``k``, built once per width and shared read-only."""
    ridge = np.eye(k) * OLS_RIDGE
    ridge.flags.writeable = False
    return ridge


def ols_design(X):
    """(X + 1, Z = [1, ln(X + 1)]): the surrogate's design matrix, written into one block."""
    X1 = X + 1.0
    Z = np.empty((X1.shape[0], X1.shape[1] + 1))
    Z[:, 0] = 1.0
    Z[:, 1:] = np.log(X1)
    return X1, Z


def ols_theta(X, y):
    """Closed-form surrogate fit on plain arrays: (theta, pullback).

    theta = (Z^T Z + OLS_RIDGE I)^{-1} Z^T z with Z = [1, ln(X+1)]
    (``ols_design``) and z the clipped logit of each label. The labels are
    0/1 (every caller passes s > 0), so z is read off the module constant
    ``OLS_LOGITS``, and the ridge OLS_RIDGE I is built once per width: per
    call only Z, the Gram matrix and its inverse are computed.
    ``pullback(theta_bar)`` is the adjoint with respect to X. It adds its
    terms in the order the backward of the fit written as tape primitives
    visits them: the inverse, Z^T z, Z^T Z, the transpose, then the log
    (``tests/densefeatures.py`` keeps that composite as the oracle), so its
    result equals the composite's gradient bit for bit. A singular Gram
    matrix raises ``NumericError``.
    """
    z = OLS_LOGITS[np.asarray(y, dtype=np.intp)]
    X1, Z = ols_design(X)
    Zt = np.transpose(Z)
    try:
        inv = np.linalg.inv(Zt @ Z + _ols_ridge(Z.shape[1]))
    except np.linalg.LinAlgError as e:
        raise NumericError(f"singular Gram matrix in the surrogate fit: {e}") from e
    w = Zt @ z
    theta = inv @ w

    def pullback(theta_bar):
        w_bar = inv.T @ theta_bar
        gram_bar = -inv.T @ np.outer(theta_bar, w) @ inv.T
        Zt_bar = np.outer(w_bar, z) + gram_bar @ Z.T
        Z_bar = Zt.T @ gram_bar + Zt_bar.T
        return Z_bar[:, 1:] / X1

    return theta, pullback


def auc(scores, labels) -> float:
    """Mann-Whitney AUC with the tie-average convention."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = labels == 1
    neg = ~pos
    n_pos, n_neg = int(pos.sum()), int(neg.sum())
    if n_pos == 0 or n_neg == 0:
        raise MetricUndefinedError("AUC undefined: both classes must be present")
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    # a tie group starts wherever the sorted score changes; each NaN is its own group
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    ends = np.r_[starts[1:], len(scores)] - 1
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    rank_sum = ranks[pos].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
