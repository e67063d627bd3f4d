"""Multi-view anomaly detection for poisoned signed graphs.

Two feature views are implemented: the balance-metric pair (triad balance
ratio and graph polarization) and the mean truncated-SVD node embedding.
The adjacency is symmetric, so its top-d left singular vectors are its
eigenvectors of largest |eigenvalue|: the TSVD view reads them off one
symmetric eigendecomposition and runs no SVD.
Each view feeds a one-class SVM with RBF kernel trained on clean graphs
only; an ensemble combines per-view decision scores (min-max normalized
over the evaluation set) by mean, min or max. ``detector_eval`` featurizes
each graph once per view and fits each view's model in place from the
clean rows before scoring the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .balance import balance_ratio, graph_polarization
from .errors import ConfigError, MetricUndefinedError, NumericError
from .fextra import auc
from .graph import GraphCorpus, SignedGraph
from .linalg import sym_eig

DEFAULT_NU = 0.1
DEFAULT_GAMMA = 0.1
DEFAULT_EMBED_DIM = 32
OCSVM_TOL = 1e-6  # KKT gap at which the dual solver stops
OCSVM_PASSES_PER_ROW = 200  # pairwise updates allowed per training row


@dataclass
class OCSVMModel:
    support_vectors: np.ndarray  # z-scored feature rows with alpha > 0
    alphas: np.ndarray
    rho: float
    gamma: float
    nu: float
    mean: np.ndarray
    std: np.ndarray

    def to_json_dict(self):
        return {
            "support_vectors": self.support_vectors.tolist(),
            "alphas": self.alphas.tolist(),
            "rho": self.rho,
            "gamma": self.gamma,
            "nu": self.nu,
            "normalizer": {"mean": self.mean.tolist(), "std": self.std.tolist()},
        }


def _rbf(gamma, X, Y):
    sq = ((X[:, None, :] - Y[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-gamma * sq)


def ocsvm_fit(X, nu=DEFAULT_NU, gamma=DEFAULT_GAMMA) -> OCSVMModel:
    """Solve the nu-parameterized one-class dual by pairwise updates.

    min_a  1/2 a^T K a   s.t.  0 <= a_i <= 1/(nu m),  sum a_i = 1.
    Feature rows are z-scored first with the training normalizer.
    """
    X = np.asarray(X, dtype=float)
    m = X.shape[0]
    if m < 2:
        raise ConfigError("one-class SVM needs at least 2 training rows")
    if not 0 < nu <= 1:
        raise ConfigError(f"nu must be in (0, 1], got {nu}")
    mean = X.mean(axis=0)
    std = np.maximum(X.std(axis=0), 1e-12)
    Xz = (X - mean) / std

    C = 1.0 / (nu * m)
    K = _rbf(gamma, Xz, Xz)
    alpha = np.zeros(m)
    n_full = int(np.floor(nu * m))
    alpha[:n_full] = C
    if n_full < m:
        alpha[n_full] = 1.0 - n_full * C
    grad = K @ alpha

    gap = np.inf
    for _ in range(OCSVM_PASSES_PER_ROW * m):
        up_mask = alpha < C - 1e-15
        low_mask = alpha > 1e-15
        i_up = np.argmin(np.where(up_mask, grad, np.inf))
        i_low = np.argmax(np.where(low_mask, grad, -np.inf))
        gap = grad[i_low] - grad[i_up]
        if gap < OCSVM_TOL:
            break
        quad = K[i_up, i_up] + K[i_low, i_low] - 2.0 * K[i_up, i_low]
        quad = max(quad, 1e-12)
        delta = min(gap / quad, C - alpha[i_up], alpha[i_low])
        alpha[i_up] += delta
        alpha[i_low] -= delta
        grad += delta * (K[:, i_up] - K[:, i_low])
    else:
        raise NumericError(f"one-class SVM did not converge (KKT gap {gap:g})")

    margin = (alpha > 1e-9) & (alpha < C - 1e-9)
    if margin.any():
        rho = float(grad[margin].mean())
    else:
        upper = grad[alpha <= 1e-9]
        lower = grad[alpha >= C - 1e-9]
        hi = upper.min() if upper.size else grad.max()
        lo = lower.max() if lower.size else grad.min()
        rho = float(0.5 * (hi + lo))

    sv = alpha > 1e-12
    return OCSVMModel(support_vectors=Xz[sv], alphas=alpha[sv], rho=rho,
                      gamma=gamma, nu=nu, mean=mean, std=std)


def ocsvm_decision(model: OCSVMModel, X):
    """Signed boundary distance; negative means anomalous."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Xz = (X - model.mean) / model.std
    K = _rbf(model.gamma, Xz, model.support_vectors)
    return K @ model.alphas - model.rho


def metric_features(g: SignedGraph, t=1.0):
    """(balance ratio, graph polarization); ``balance_ratio`` raises if there is no triad."""
    return np.array([balance_ratio(g), graph_polarization(g, t)])


def tsvd_features(g: SignedGraph, d=DEFAULT_EMBED_DIM):
    """Mean of the top-d left singular vectors, zero-padded to d columns.

    The adjacency is symmetric, so these are its eigenvectors of largest
    |eigenvalue|, ties in |eigenvalue| taken in ascending eigenvalue order,
    with ``sym_eig``'s column signs (the rule ``truncated_svd`` applies).
    """
    lam, Q = sym_eig(g.adjacency())
    top = np.argsort(-np.abs(lam), kind="stable")[:d]
    return np.concatenate([Q[:, top].mean(axis=0), np.zeros(d - len(top))])


@dataclass
class DetectorView:
    kind: str  # "metric" or "tsvd"
    t: float = 1.0
    d: int = DEFAULT_EMBED_DIM
    nu: float = DEFAULT_NU
    gamma: float = DEFAULT_GAMMA
    model: OCSVMModel | None = None  # set by detector_eval
    rejected: int = 0  # clean graphs this view could not featurize

    def featurize(self, g: SignedGraph):
        if self.kind == "metric":
            return metric_features(g, self.t)
        if self.kind == "tsvd":
            return tsvd_features(g, self.d)
        raise ConfigError(f"unknown view kind {self.kind!r}")


def _try_featurize(view: DetectorView, g: SignedGraph):
    try:
        return view.featurize(g)
    except MetricUndefinedError:
        return None


def _minmax(x):
    lo, hi = x.min(), x.max()
    if hi - lo < 1e-300:
        return np.full_like(x, 0.5)
    return (x - lo) / (hi - lo)


def detector_eval(clean: GraphCorpus, poisoned, views, strategy="max"):
    """Fit each view on the clean graphs, score clean + poisoned, compute the AUC.

    Each view featurizes each graph once. Its one-class SVM is fitted on the
    clean rows it could featurize and stored in ``view.model``, with the
    clean graphs it could not featurize counted in ``view.rejected``. A graph
    that some view cannot featurize gets no row and stays out of the AUC.
    Rows keep the graph's index in clean + poisoned order. Per view, decision
    scores over the rows are min-max normalized, then combined across views
    by the chosen strategy. The AUC treats the anomaly class as positive by
    negating the combined score. Returns (auc_value, per_graph_rows).
    """
    if strategy not in ("mean", "min", "max"):
        raise ConfigError(f"unknown ensemble strategy {strategy!r}")
    graphs = list(clean.graphs) + list(poisoned)
    n_clean = len(clean.graphs)
    feats = [[_try_featurize(v, g) for g in graphs] for v in views]
    for v, f in zip(views, feats):
        train = [x for x in f[:n_clean] if x is not None]
        if len(train) < 2:
            raise ConfigError(f"{v.kind} view: fewer than 2 corpus graphs with defined features")
        v.model = ocsvm_fit(np.vstack(train), nu=v.nu, gamma=v.gamma)
        v.rejected = n_clean - len(train)
    keep = [i for i in range(len(graphs)) if all(f[i] is not None for f in feats)]
    labels = np.array([1 if i < n_clean else -1 for i in keep])
    if not (labels == -1).any():
        raise MetricUndefinedError("evaluation set has no poisoned graphs")
    per_view = np.vstack([_minmax(ocsvm_decision(v.model, np.vstack([f[i] for i in keep])))
                          for v, f in zip(views, feats)])
    combined = getattr(per_view, strategy)(axis=0)
    value = auc(-combined, (labels == -1).astype(int))
    rows = [{"graph": i, "label": int(labels[k]), "combined": float(combined[k]),
             **{f"view_{v.kind}": float(per_view[j, k]) for j, v in enumerate(views)}}
            for k, i in enumerate(keep)]
    return value, rows
