"""Local and global balance metrics for signed graphs.

The triad balance ratio and the triad counts of ``balance_report`` come from
traces: tr(|A|^3) is six times the number of fully signed triangles and
tr(A^3) + tr(|A|^3) twelve times the balanced ones (hidden-sign edges are 0
in A). tr(A^3) = 2 sum_k s_k W_k, where W_k sums s_uw s_wv over the wedges
(u, w, v) closing link k, and tr(|A|^3) sums |s_uw s_wv| instead.
``graph_triad_traces`` reads both off the wedge index of the graph's links;
the attack's lambda term reads them off the FeXtra feature block X its step
computed (``triad_traces``), where W_k = X[k] @ ``fextra.BALANCED_WEDGES``.
No n x n matrix is built and the terms are integers, so the sums are exact
and both routes agree bit for bit. Only the tests call ``triad_census``, the
enumeration oracle for both.
Polarization correlates a node's signed and unsigned random-walk transition
rows. Its one implementation, ``polarization_term``, averages the correlation
over the nodes where both rows vary; the detector, the report and the attack
penalty all read it on the one walk of the package, the row-normalized
``pole.transition_matrix``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tape as tp
from .errors import MetricUndefinedError
from .fextra import BALANCED_WEDGES, wedge_index
from .graph import SignedGraph
from .pole import transition_matrix


@dataclass
class BalanceReport:
    T: float | None
    total_triads: int
    balanced_triads: int
    pol_nodes: list
    pol_graph: float
    t: float

    def to_json_dict(self):
        return {
            "T": self.T,
            "total_triads": self.total_triads,
            "balanced_triads": self.balanced_triads,
            "pol_nodes": [None if p is None else float(p) for p in self.pol_nodes],
            "pol_graph": self.pol_graph,
            "t": self.t,
        }


def triad_traces(signs, X):
    """(tr(A^3), tr(|A|^3)) of the adjacency whose link entries are ``signs``.

    ``X`` is ``link_features(signs, index)`` over the wedge index of all the
    graph's links in edge-list order, so row k is link k. tr(A^3) is polymorphic
    over tape Values; tr(|A|^3) is a float, as sign flips never change it.
    """
    tr = 2.0 * tp.sum_(signs * (X @ BALANCED_WEDGES))
    return tr, 2.0 * float(np.abs(tp._data(signs)) @ tp._data(X)[:, 5:].sum(axis=1))


def balance_ratio_terms(tr, tr_abs):
    """(tr(A^3) + tr(|A|^3)) / (2 tr(|A|^3)) from ``triad_traces``; polymorphic over tape Values."""
    if tr_abs <= 0:
        raise MetricUndefinedError("graph has no triads; balance ratio undefined")
    return (tr + tr_abs) * (1.0 / (2.0 * tr_abs))


def graph_triad_traces(g: SignedGraph):
    """``triad_traces`` of g, read straight off the wedge index of its links."""
    signs = g.signs()
    index = wedge_index(g)
    a = signs[index.edge]
    legs = a[index.first] * a[index.second]
    W = np.bincount(index.link, legs, len(signs))
    closed = np.bincount(index.link, np.abs(legs), len(signs))
    return 2.0 * float(signs @ W), 2.0 * float(np.abs(signs) @ closed)


def balance_ratio(g: SignedGraph) -> float:
    return float(balance_ratio_terms(*graph_triad_traces(g)))


def triad_census(g: SignedGraph):
    """Exhaustive triangle enumeration over fully signed edges.

    Returns (balanced, unbalanced, by_type) where by_type counts triangles
    with 0, 1, 2 and 3 negative edges; balanced means an even count.
    """
    A = g.adjacency()
    n = g.n
    by_type = [0, 0, 0, 0]
    for u in range(n):
        for v in range(u + 1, n):
            if A[u, v] == 0:
                continue
            for w in range(v + 1, n):
                if A[u, w] == 0 or A[v, w] == 0:
                    continue
                negs = int(A[u, v] < 0) + int(A[u, w] < 0) + int(A[v, w] < 0)
                by_type[negs] += 1
    balanced = by_type[0] + by_type[2]
    unbalanced = by_type[1] + by_type[3]
    return balanced, unbalanced, tuple(by_type)


def row_correlations(M_sign, M_abs):
    """Pearson correlation of each signed walk row with its unsigned row, and where it is defined.

    A row's correlation is defined where both rows vary. Polymorphic over
    tape Values for ``M_sign``; means divide by the count, as ``np.mean`` does.
    """
    n = M_abs.shape[1]
    xc = M_sign - tp.sum_(M_sign, axis=1, keepdims=True) / n
    yc = M_abs - M_abs.sum(axis=1, keepdims=True) / n
    var = tp.sum_(xc * xc, axis=1) * (yc * yc).sum(axis=1)
    defined = tp._data(var) != 0
    # an undefined row divides by 1, so its gradient stays finite
    return tp.sum_(xc * yc, axis=1) / tp.sqrt(var + ~defined), defined


def polarization_term(M_sign, M_abs):
    """Mean of ``row_correlations`` over the defined rows; polymorphic over tape Values.

    ``M_abs`` is constant during an attack since sign flips never change |A|.
    """
    return _defined_mean(*row_correlations(M_sign, M_abs))


def _defined_mean(corr, defined):
    if not defined.any():
        raise MetricUndefinedError("polarization undefined for every node")
    return tp.sum_(tp.gather_rows(corr, np.flatnonzero(defined))) / np.count_nonzero(defined)


def _walk_correlations(g: SignedGraph, t: float):
    """``row_correlations`` of g's signed and unsigned row-normalized walks at Markov time t.

    The walks are the one place a balance metric builds the dense A; |A|
    overwrites it once the signed walk is taken.
    """
    A, d = g.adjacency(), g.degrees()
    M_sign = transition_matrix(A, d, t)
    return row_correlations(M_sign, transition_matrix(np.abs(A, out=A), d, t))


def _node_values(corr, defined):
    return [float(c) if ok else None for c, ok in zip(corr, defined)]


def graph_polarization(g: SignedGraph, t: float) -> float:
    return float(_defined_mean(*_walk_correlations(g, t)))


def balance_report(g: SignedGraph, t: float = 1.0) -> BalanceReport:
    tr, tr_abs = graph_triad_traces(g)
    total = round(tr_abs / 6)
    T = float(balance_ratio_terms(tr, tr_abs)) if total else None
    # T is exactly balanced / total, so rounding T * total recovers the count
    balanced = round(T * total) if total else 0
    corr, defined = _walk_correlations(g, t)
    return BalanceReport(
        T=T,
        total_triads=total,
        balanced_triads=balanced,
        pol_nodes=_node_values(corr, defined),
        pol_graph=float(_defined_mean(corr, defined)),
        t=t,
    )
