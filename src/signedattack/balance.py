"""Local and global balance metrics for signed graphs.

The triad balance ratio and the triad counts of ``balance_report`` come from
traces: tr(|A|^3) is six times the number of fully signed triangles and
tr(A^3) + tr(|A|^3) twelve times the balanced ones (hidden-sign edges are 0
in A). Each trace takes one dense product, as tr(M^3) = sum((M @ M) * M^T),
exact on {-1, 0, 1} entries. Only the tests call `triad_census`, the
enumeration oracle for both.
Polarization correlates a node's signed and unsigned random-walk
transition rows. Reporting uses the plain (row-normalized) transition; the
differentiable penalty used inside attacks runs on the symmetric one. Both
come from the same symmetric eigendecomposition (see ``pole.transition_matrix``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tape as tp
from .errors import MetricUndefinedError
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


def abs_triad_trace(A_abs) -> float:
    """tr(|A|^3): six times the number of triangles of signed links."""
    return float(((A_abs @ A_abs) * A_abs.T).sum())


def balance_ratio_terms(A, tr_abs):
    """(tr(A^3) + tr(|A|^3)) / (2 tr(|A|^3)) with tr(|A|^3) supplied as a constant.

    Polymorphic over tape Values for A; |A| never changes under sign flips,
    so ``abs_triad_trace`` is computed once by the caller.
    """
    tr_signed = tp.sum_((A @ A) * tp.transpose(A))
    if tr_abs <= 0:
        raise MetricUndefinedError("graph has no triads; balance ratio undefined")
    return (tr_signed + tr_abs) * (1.0 / (2.0 * tr_abs))


def balance_ratio(g: SignedGraph) -> float:
    A = g.adjacency()
    return float(balance_ratio_terms(A, abs_triad_trace(np.abs(A))))


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


def transition_pair(g: SignedGraph, t: float, mode="unsym"):
    """Signed and unsigned walk transition matrices at Markov time t."""
    A = g.adjacency()
    d = g.degrees()
    return (transition_matrix(A, d, t, mode),
            transition_matrix(np.abs(A), d, t, mode))


def _pearson(x, y):
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt((xc * xc).sum() * (yc * yc).sum())
    if denom == 0:
        return None
    return float((xc * yc).sum() / denom)


def node_polarization(g: SignedGraph, t: float, u: int, mode="unsym"):
    M_sign, M_abs = transition_pair(g, t, mode)
    r = _pearson(M_abs[u], M_sign[u])
    if r is None:
        raise MetricUndefinedError(f"node {u} has zero-variance transition rows")
    return r


def polarization_nodes(g: SignedGraph, t: float, mode="unsym"):
    """Per-node polarization; None where the correlation is undefined."""
    M_sign, M_abs = transition_pair(g, t, mode)
    return [_pearson(M_abs[u], M_sign[u]) for u in range(g.n)]


def graph_polarization(g: SignedGraph, t: float, mode="unsym") -> float:
    vals = [p for p in polarization_nodes(g, t, mode) if p is not None]
    if not vals:
        raise MetricUndefinedError("polarization undefined for every node")
    return float(np.mean(vals))


def polarization_term(M_sign, M_abs, var_floor=1e-18):
    """Differentiable mean row-correlation between signed and unsigned walks.

    ``M_sign`` may be a tape Value; ``M_abs`` is constant during an attack
    since sign flips never change |A|. Row variances are floored so the term
    stays finite on degenerate rows.
    """
    n = tp._data(M_sign).shape[0]
    xc = M_sign - tp.mean_(M_sign, axis=1, keepdims=True)
    yc = M_abs - M_abs.mean(axis=1, keepdims=True)
    cov = tp.sum_(xc * yc, axis=1)
    vx = tp.sum_(xc * xc, axis=1) + var_floor
    vy = (yc * yc).sum(axis=1) + var_floor
    corr = cov / tp.sqrt(vx * vy)
    return tp.mean_(corr)


def balance_report(g: SignedGraph, t: float = 1.0) -> BalanceReport:
    A = g.adjacency()
    tr_abs = abs_triad_trace(np.abs(A))
    total = round(tr_abs / 6)
    T = float(balance_ratio_terms(A, tr_abs)) if total else None
    # T is exactly balanced / total, so rounding T * total recovers the count
    balanced = round(T * total) if total else 0
    pol_nodes = polarization_nodes(g, t)
    defined = [p for p in pol_nodes if p is not None]
    if not defined:
        raise MetricUndefinedError("polarization undefined for every node")
    return BalanceReport(
        T=T,
        total_triads=total,
        balanced_triads=balanced,
        pol_nodes=pol_nodes,
        pol_graph=float(np.mean(defined)),
        t=t,
    )
