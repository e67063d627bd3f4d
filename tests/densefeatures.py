"""Oracles for the FeXtra feature map and surrogate: the dense map and the tape composites.

``composite_link_features`` is the wedge-index map written as 23 recorded
tape primitives, whose backward is the reference, bit for bit, for the
hand-written adjoint of the one-node ``fextra.link_features``. Its group
sums are ``segment_sum``, a tape primitive only this composite uses.

``composite_ols_log_likelihood`` is the ``fextra-ols`` head written as 26
recorded primitives: two row gathers, the surrogate fit ``ols_fit`` (9, with
the ``inverse`` primitive), the ln(x+1) prediction ``predict`` (5) and the
clipped log-likelihood ``composite_log_likelihood`` (10). Its backward is the
reference, bit for bit, for the one-node ``attacks._ols_log_likelihood``,
whose adjoint runs ``fextra.ols_theta``'s pullback, and for the one-node
``attacks._log_likelihood``.

In the dense map every feature is read off n x n matrices: signed degrees
are row sums of A+ and A-, and the common-neighbour and triad counts are
entries of the products S @ S and A± @ A±. ``DenseFextraLoss`` is the
log-likelihood of the FeXtra attack objective written over them; it builds A
from the sign vector with ``tape.sym_scatter``, so its tape gradient with
respect to that vector is the reference for the sparse one.

``relu``, ``log``, ``segment_sum``, ``inverse``, ``colstack`` and ``support``
serve only these oracles and the tests; no program path records a relu, a
log, a segment sum, an inverse or a column stack, or builds the 0/1 support
matrix. ``extract_features``
reads the rows of given links off the program's own block of all links, the
form the tests compare against these oracles.
"""

from dataclasses import dataclass

import numpy as np

from signedattack import tape as tp
from signedattack.attacks import LOG_CLIP
from signedattack.fextra import (OLS_LABEL_EPS, OLS_RIDGE, link_features, lr_predict,
                                 wedge_index)


def relu(a):
    """max(a, 0) on the tape; the adjoint passes where a > 0."""
    return tp._apply(lambda a: np.maximum(a, 0.0), (lambda g, o, a: g * (a > 0.0),), a)


def log(a):
    """Natural log on the tape; the adjoint divides by a."""
    return tp._apply(np.log, (lambda g, o, a: g / a,), a)


def segment_sum(a, index, size):
    """Sums of the entries of a by group: out[j] = sum of a[k] over index[k] == j.

    ``size`` fixes the output length, so empty and trailing groups read 0.
    """
    index = np.asarray(index, dtype=int)
    return tp._apply(lambda a: np.bincount(index, weights=a, minlength=size),
                     (lambda g, o, a: g[index],), a)


def colstack(cols):
    """Stack 1-d pieces as the columns of a matrix; each piece's adjoint is its column."""
    vjps = [lambda g, o, *cs, j=j: g[:, j] for j in range(len(cols))]
    return tp._apply(lambda *cs: np.stack(cs, axis=1), vjps, *cols)


def inverse(a):
    """Matrix inverse as a recorded primitive."""
    return tp._apply(np.linalg.inv, (lambda g, inv, a: -inv.T @ g @ inv.T,), a)


def composite_ols_theta(X, y):
    """``fextra.ols_theta``'s theta as a composite of tape primitives (9 nodes)."""
    yc = np.clip(np.asarray(y, dtype=float), OLS_LABEL_EPS, 1.0 - OLS_LABEL_EPS)
    z = np.log(yc / (1.0 - yc))
    Z = tp.prepend_ones(log(X + 1.0))
    Zt = tp.transpose(Z)
    gram = Zt @ Z + np.eye(tp._data(Z).shape[1]) * OLS_RIDGE
    return inverse(gram) @ (Zt @ z)


@dataclass
class OLSModel:
    """The surrogate as a model: theta over the intercept and ln(x+1) features."""
    theta: object


def ols_fit(X, y) -> OLSModel:
    return OLSModel(composite_ols_theta(X, y))


def predict(model, X):
    """Positive-sign probabilities; an ``OLSModel`` reads the rows of X through ln(x+1)
    first, any other model goes to ``fextra.lr_predict``."""
    if isinstance(model, OLSModel):
        return tp.sigmoid(tp.prepend_ones(log(X + 1.0)) @ model.theta)
    return lr_predict(model, X)


def composite_log_likelihood(p, y_hat):
    """``attacks._log_likelihood`` as a composite of tape primitives (10 nodes)."""
    p_lo = tp.clamp(p, LOG_CLIP, 1.0)
    p_hi = tp.clamp((1.0 - p), LOG_CLIP, 1.0)
    return tp.sum_(y_hat * log(p_lo) + (1.0 - y_hat) * log(p_hi))


def composite_ols_log_likelihood(X, s, split, y_hat):
    """``attacks._ols_log_likelihood`` as a composite of tape primitives (26 nodes)."""
    X_tr, X_te = tp.gather_rows(X, split.train), tp.gather_rows(X, split.test)
    y_tr = (tp._data(s)[split.train] > 0).astype(float)
    return composite_log_likelihood(predict(ols_fit(X_tr, y_tr), X_te), y_hat)


def support(g):
    """0/1 matrix of every known link of g, including hidden-sign edges."""
    return tp.sym_scatter(np.ones(g.num_edges), *g.edge_array().T, g.n)


def composite_link_features(signs, index):
    """``fextra.link_features`` as a composite of tape primitives (23 nodes)."""
    a = tp.gather_rows(signs, index.edge)
    a_plus = relu(a)
    a_minus = a_plus - a
    dpos = segment_sum(a_plus, index.rows, index.n)
    dneg = segment_sum(a_minus, index.rows, index.n)
    us, vs = index.us, index.vs
    first = [tp.gather_rows(x, index.first) for x in (a_plus, a_minus)]
    second = [tp.gather_rows(x, index.second) for x in (a_plus, a_minus)]
    cols = [
        tp.gather_rows(dpos, us),
        tp.gather_rows(dneg, us),
        tp.gather_rows(dpos, vs),
        tp.gather_rows(dneg, vs),
        index.common,
        *(segment_sum(p * q, index.link, len(us)) for p in first for q in second),
    ]
    return colstack(cols)


def bilinear_gather(p, q, us, vs):
    """Entries (p @ q)[us[k], vs[k]], one per link; polymorphic over tape Values.

    The backward scatters the link adjoints into one dense matrix C
    (repeated (u, v) pairs add up) and sends C @ q^T to ``p`` and p^T @ C to
    ``q``.
    """
    us = np.asarray(us, dtype=int)
    vs = np.asarray(vs, dtype=int)

    def scatter(g, p, q):
        C = np.zeros((p.shape[0], q.shape[1]))
        np.add.at(C, (us, vs), g)
        return C

    return tp._apply(lambda p, q: (p @ q)[us, vs],
                     (lambda g, o, p, q: scatter(g, p, q) @ q.T,
                      lambda g, o, p, q: p.T @ scatter(g, p, q)), p, q)


def dense_link_features(A, S, us, vs):
    """The nine feature columns from the signed adjacency A and 0/1 support S."""
    A_plus = relu(A)
    A_minus = A_plus - A
    dpos = tp.sum_(A_plus, axis=1)
    dneg = tp.sum_(A_minus, axis=1)
    return colstack([
        tp.gather_rows(dpos, us),
        tp.gather_rows(dneg, us),
        tp.gather_rows(dpos, vs),
        tp.gather_rows(dneg, vs),
        bilinear_gather(S, S, us, vs),
        bilinear_gather(A_plus, A_plus, us, vs),
        bilinear_gather(A_plus, A_minus, us, vs),
        bilinear_gather(A_minus, A_plus, us, vs),
        bilinear_gather(A_minus, A_minus, us, vs),
    ])


def extract_features(g, links):
    """Features (links x 9) for the given links of g: each link's row of the block of all
    links, oriented as the edge list stores it; a pair that is not a link raises
    ``MissingEdgeError``."""
    rows = [g.edge_index(u, v) for u, v in np.asarray(links, dtype=int).reshape(-1, 2)]
    return link_features(g.signs(), wedge_index(g))[rows]


def dense_extract_features(g, links):
    links = np.asarray(links, dtype=int).reshape(-1, 2)
    return dense_link_features(g.adjacency(), support(g), links[:, 0], links[:, 1])


class DenseFextraLoss:
    """The FeXtra ``base`` of ``attacks.make_attack_loss`` over the dense feature map.

    It returns the log-likelihood only; a test adds the penalty terms with
    ``attacks.penalized_loss`` to compare the whole objective J.
    """

    def __init__(self, masked, split, y_hat, fit):
        edge = masked.edge_array()
        self.n = masked.n
        self.us, self.vs = edge[:, 0], edge[:, 1]
        self.support = support(masked)
        self.split = split
        self.y_hat = np.asarray(y_hat, dtype=float)
        self.fit = fit

    def __call__(self, s):
        A = tp.sym_scatter(s, self.us, self.vs, self.n)
        X = dense_link_features(A, self.support, self.us, self.vs)
        X_tr = tp.gather_rows(X, self.split.train)
        X_te = tp.gather_rows(X, self.split.test)
        y_tr = (tp._data(s)[self.split.train] > 0).astype(float)
        return composite_log_likelihood(predict(self.fit(X_tr, y_tr), X_te), self.y_hat)
