"""Multi-view anomaly detection for poisoned signed graphs.

Two feature views are implemented: the balance-metric pair (triad balance
ratio and graph polarization) and the mean truncated-SVD node embedding.
The adjacency is symmetric, so its top-d left singular vectors are its
eigenvectors of largest |eigenvalue|: the TSVD view takes them from one
``linalg.sym_eig`` and runs no SVD.
Each view feeds a one-class SVM with RBF kernel trained on clean graphs
only. A view scores a graph by its decision over the fitted offset rho > 0
and reads no other graph: 0 is the boundary, a negative score is outside
it (flagged) and -1 is far from every support vector. The ensemble takes
the mean, min or max of the view scores: ``min`` flags a graph when any
view does, ``max`` only when every view does. ``detector_eval``
featurizes each graph of the clean and poisoned lists once per view, fits
each view's model in place from the clean rows, scores the same rows and
computes every AUC: one per view and the ensemble's.

Featurizing is most of a detect run, and its dense eigendecompositions
are BLAS calls. ``featurize_graphs`` featurizes one graph per CPU that
BLAS leaves free: each worker thread takes the largest graph no other has
taken yet, and the results are those of a serial run. Exporting
``OMP_NUM_THREADS=1`` (or ``OPENBLAS_NUM_THREADS=1``) enables this; with
BLAS unpinned, OpenBLAS already runs a thread per CPU and the graphs are
featurized one at a time.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .balance import balance_ratio, graph_polarization
from .errors import ConfigError, MetricUndefinedError, NumericError
from .fextra import auc
from .graph import SignedGraph
from .linalg import sym_eig

DEFAULT_NU = 0.1
DEFAULT_GAMMA = 0.1
DEFAULT_EMBED_DIM = 32
OCSVM_TOL = 1e-6  # KKT gap at which the dual solver stops
OCSVM_PASSES_PER_ROW = 200  # pairwise updates allowed per training row
STRATEGIES = ("mean", "min", "max")  # how the ensemble combines the view scores
# where the thread count of a BLAS call is set, read in this order
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class OCSVMModel:
    support_vectors: np.ndarray  # z-scored feature rows with alpha > 0
    alphas: np.ndarray
    rho: float
    gamma: float
    nu: float
    mean: np.ndarray
    std: np.ndarray


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

    The adjacency is symmetric, so these are the columns of ``sym_eig`` of
    largest |eigenvalue|, ties in ascending eigenvalue order, with the column
    signs that ``truncated_svd`` applies.
    """
    lam, Q = sym_eig(g.adjacency())
    U = Q[:, np.argsort(-np.abs(lam), kind="stable")[:d]]
    return np.concatenate([U.mean(axis=0), np.zeros(d - U.shape[1])])


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


def _blas_threads(usable):
    """Threads one BLAS call may use: the first positive integer among
    ``BLAS_THREAD_VARS``, else ``usable`` (OpenBLAS starts one per core)."""
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return usable


def featurize_workers(n_graphs):
    """Graphs featurized at once: the usable CPUs over the BLAS threads, from 1 to ``n_graphs``."""
    usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)
    return max(1, min(n_graphs, usable // _blas_threads(usable)))


def featurize_graphs(graphs, views):
    """``feats[j][i]``: view j's features of graph i, None where its metric is undefined.

    ``featurize_workers`` workers, the calling thread one of them, share one
    queue of the graphs sorted largest first: each takes the largest graph
    not yet taken and featurizes it for every view, so the small graphs
    fill the tail and no cost model is needed. The features are the serial
    ones bit for bit, and if any featurization raises, the error raised is
    the first in the serial (view, graph) order. An abort (a ``BaseException``
    that is no ``Exception``, such as Ctrl-C) in any worker stops the others
    at their next graph and is raised before any error.
    """
    feats = [[None] * len(graphs) for _ in views]
    errors, aborts = {}, []
    interrupted = threading.Event()
    queue = iter(sorted(range(len(graphs)), key=lambda i: -graphs[i].n))
    lock = threading.Lock()

    def run():
        try:
            while not interrupted.is_set():
                with lock:
                    i = next(queue, None)
                if i is None:
                    return
                for j, view in enumerate(views):
                    try:
                        feats[j][i] = view.featurize(graphs[i])
                    except MetricUndefinedError:
                        pass  # undefined: feats[j][i] stays None
                    except Exception as e:  # raised below, in serial order
                        errors[j, i] = e
        except BaseException as e:  # Ctrl-C: the other workers stop at their next graph
            aborts.append(e)
            interrupted.set()

    threads = [threading.Thread(target=run) for _ in range(featurize_workers(len(graphs)) - 1)]
    for thread in threads:
        thread.start()
    try:
        run()
    finally:
        for thread in threads:
            thread.join()
    if aborts:
        raise aborts[0]
    if errors:
        raise errors[min(errors)]
    return feats


def detector_eval(clean, poisoned, views, strategy="max"):
    """Fit each view on the clean graphs, score clean + poisoned, compute the AUCs.

    Each view featurizes each graph once. Its one-class SVM is fitted on the
    clean rows it could featurize and stored in ``view.model``, with the
    clean graphs it could not featurize counted in ``view.rejected``. A graph
    that some view cannot featurize gets no row and stays out of the AUCs.
    Rows keep the graph's index in clean + poisoned order; a row's
    ``view_{kind}`` is ``ocsvm_decision(view.model, x) / view.model.rho`` and
    its ``combined`` their mean, min or max, so no row reads another. AUCs
    negate the scores (poisoned is positive). Returns (summary, rows): the
    summary holds ``{kind}_auc`` per view in view order, then ``ensemble_{strategy}_auc``.
    """
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown ensemble strategy {strategy!r}")
    graphs = list(clean) + list(poisoned)
    n_clean = len(clean)
    feats = featurize_graphs(graphs, views)
    for v, f in zip(views, feats):
        train = [x for x in f[:n_clean] if x is not None]
        if len(train) < 2:
            raise ConfigError(f"{v.kind} view: fewer than 2 corpus graphs with defined features")
        v.model = ocsvm_fit(np.vstack(train), nu=v.nu, gamma=v.gamma)
        v.rejected = n_clean - len(train)
    keep = [i for i in range(len(graphs)) if all(f[i] is not None for f in feats)]
    anomalous = np.array([int(i >= n_clean) for i in keep])
    if not anomalous.any():
        raise MetricUndefinedError("evaluation set has no poisoned graphs")
    per_view = np.vstack([ocsvm_decision(v.model, np.vstack([f[i] for i in keep])) / v.model.rho
                          for v, f in zip(views, feats)])
    combined = getattr(per_view, strategy)(axis=0)
    summary = {f"{v.kind}_auc": auc(-per_view[j], anomalous) for j, v in enumerate(views)}
    summary[f"ensemble_{strategy}_auc"] = auc(-combined, anomalous)
    rows = [{"graph": i, "label": -1 if i >= n_clean else 1, "combined": float(combined[k]),
             **{f"view_{v.kind}": float(per_view[j, k]) for j, v in enumerate(views)}}
            for k, i in enumerate(keep)]
    return summary, rows
