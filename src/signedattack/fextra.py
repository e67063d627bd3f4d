"""Degree/triad feature extraction and logistic-regression trust prediction.

Features for a link (u, v) are the four signed degrees, the common-neighbor
count and the four triad-type counts, in that order. The feature map is
written over A+/A- so it also runs on tape Values, which is how the attacks
differentiate through it. ``ols_theta`` is the closed-form least-squares
surrogate for the logistic fit: features pass through ln(x+1), labels
through a clipped logit, and the Gram matrix gets a small ridge so the
solve stays defined on integer count data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tape as tp
from .errors import MetricUndefinedError, MissingEdgeError, NumericError
from .graph import SignedGraph

OLS_LABEL_EPS = 0.01
OLS_RIDGE = 1e-6

FEATURE_NAMES = (
    "deg_pos_u", "deg_neg_u", "deg_pos_v", "deg_neg_v",
    "common_neighbors", "tri_pp", "tri_pm", "tri_mp", "tri_mm",
)


@dataclass
class FeatureMatrix:
    X: object  # (links x 9) ndarray or tape Value
    links: list

    @property
    def data(self):
        return tp._data(self.X)


@dataclass
class LRModel:
    theta: np.ndarray  # intercept followed by 9 feature weights
    # the closed-form surrogate is fit on ln(x+1) features; predictions must
    # apply the same map
    log_features: bool = False

    def to_json_dict(self):
        return {"theta": [float(x) for x in self.theta],
                "log_features": self.log_features}


def link_features(A_plus, A_minus, common, us, vs):
    """The nine-column feature block; polymorphic over tape Values.

    ``common`` is the common-neighbor column, (S @ S)[us, vs] for the 0/1
    support S of every known link. Sign flips never change S, so callers
    compute it once per link set.
    """
    dpos = tp.sum_(A_plus, axis=1)
    dneg = tp.sum_(A_minus, axis=1)
    cols = [
        tp.gather_rows(dpos, us),
        tp.gather_rows(dneg, us),
        tp.gather_rows(dpos, vs),
        tp.gather_rows(dneg, vs),
        common,
        tp.bilinear_gather(A_plus, A_plus, us, vs),
        tp.bilinear_gather(A_plus, A_minus, us, vs),
        tp.bilinear_gather(A_minus, A_plus, us, vs),
        tp.bilinear_gather(A_minus, A_minus, us, vs),
    ]
    return tp.colstack(cols)


def extract_features(g: SignedGraph, links) -> FeatureMatrix:
    """Features for the given node pairs; pairs must be known links."""
    support = g.support()
    for u, v in links:
        if support[u, v] == 0:
            raise MissingEdgeError(f"({u},{v}) is not a known link")
    A = g.adjacency()
    A_plus = np.maximum(A, 0.0)
    A_minus = A_plus - A
    us = np.array([u for u, _ in links], dtype=int)
    vs = np.array([v for _, v in links], dtype=int)
    common = tp.bilinear_gather(support, support, us, vs)
    X = link_features(A_plus, A_minus, common, us, vs)
    return FeatureMatrix(X=X, links=list(links))


def with_intercept(X):
    return tp.prepend_ones(X)


def lr_loss(theta, X, y):
    """Mean cross-entropy of the intercept-augmented logistic model."""
    X1 = with_intercept(tp._data(X))
    p = tp.sigmoid(X1 @ np.asarray(theta, dtype=float))
    p = np.clip(p, 1e-12, 1 - 1e-12)
    y = np.asarray(y, dtype=float)
    return float(-(y * np.log(p) + (1 - y) * np.log(1 - p)).mean())


def lr_train_theta(X1, y, lr, iters, theta0):
    """Full-batch gradient descent on mean cross-entropy; polymorphic.

    When X1 is a tape Value the whole optimization trajectory is recorded,
    which is what the meta-gradient attack differentiates through.
    """
    y = np.asarray(y, dtype=float)
    m = tp._data(X1).shape[0]
    theta = theta0
    for step in range(iters):
        p = tp.sigmoid(X1 @ theta)
        grad = tp.transpose(X1) @ (p - y)
        theta = theta - (lr / m) * grad
        if not np.all(np.isfinite(tp._data(theta))):
            raise NumericError(f"non-finite parameters at training step {step}")
    return theta


def lr_train(X, y, lr=0.01, iters=100, theta0=None, seed=0) -> LRModel:
    """Train the logistic model; theta0 defaults to seeded U[0,1]."""
    Xd = tp._data(X.X if isinstance(X, FeatureMatrix) else X)
    if theta0 is None:
        theta0 = np.random.default_rng(seed).uniform(size=Xd.shape[1] + 1)
    theta = lr_train_theta(with_intercept(Xd), np.asarray(y, float), lr, iters,
                           np.asarray(theta0, float))
    return LRModel(theta=np.asarray(theta, dtype=float))


def lr_predict(model: LRModel, X):
    Xd = tp._data(X.X if isinstance(X, FeatureMatrix) else X)
    if model.log_features:
        Xd = np.log(Xd + 1.0)
    return tp.sigmoid(with_intercept(Xd) @ model.theta)


def ols_theta(X, y, label_eps=OLS_LABEL_EPS, ridge=OLS_RIDGE):
    """Closed-form surrogate fit; polymorphic over tape Values for X.

    theta = (Z^T Z + ridge I)^{-1} Z^T logit(clip(y)) with Z = [1, ln(X+1)].
    """
    y = np.asarray(y, dtype=float)
    yc = np.clip(y, label_eps, 1.0 - label_eps)
    z = np.log(yc / (1.0 - yc))
    lnX = tp.log(X + 1.0)
    Z = with_intercept(lnX)
    Zt = tp.transpose(Z)
    gram = Zt @ Z + np.eye(tp._data(Z).shape[1]) * ridge
    return tp.inverse(gram) @ (Zt @ z)


def ols_fit(X, y, label_eps=OLS_LABEL_EPS, ridge=OLS_RIDGE) -> LRModel:
    Xd = tp._data(X.X if isinstance(X, FeatureMatrix) else X)
    theta = ols_theta(Xd, y, label_eps, ridge)
    return LRModel(theta=np.asarray(theta, dtype=float), log_features=True)


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
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    rank_sum = ranks[pos].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
