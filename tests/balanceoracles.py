"""Per-node and dense forms of the balance quantities: the oracles for the vectorized ones.

``pearson`` and ``oracle_polarization_nodes`` are the per-node loop that
polarization was once computed by: one Pearson correlation of a node's
unsigned and signed walk rows at a time, None where a row is constant.
``dense_greedy_triads`` is the triad baseline scored off the dense product
s_uv (A @ A)[u, v] at every flip, and ``dense_triad_trace`` and
``dense_balance_ratio`` the balance ratio from the traces of dense cubes: the
oracles for the wedge sums.
"""

import numpy as np

from signedattack import tape as tp
from signedattack.attacks import _check_budget, _greedy_flips, _pick_flip
from signedattack.pole import transition_matrix


def pearson(x, y):
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt((xc * xc).sum() * (yc * yc).sum())
    if denom == 0:
        return None
    return float((xc * yc).sum() / denom)


def walk_pair(g, t, mode="unsym"):
    """Signed and unsigned walk transition matrices at Markov time t."""
    A = g.adjacency()
    d = g.degrees()
    return transition_matrix(A, d, t, mode), transition_matrix(np.abs(A), d, t, mode)


def oracle_polarization_nodes(g, t, mode="unsym"):
    M_sign, M_abs = walk_pair(g, t, mode)
    return [pearson(M_abs[u], M_sign[u]) for u in range(g.n)]


def oracle_graph_polarization(g, t, mode="unsym"):
    """Mean over the defined nodes; None if no node is defined."""
    vals = [p for p in oracle_polarization_nodes(g, t, mode) if p is not None]
    return float(np.mean(vals)) if vals else None


def dense_triad_trace(M):
    """tr(M^3) = sum((M @ M) * M^T), one dense product; polymorphic over tape Values."""
    return tp.sum_((M @ M) * tp.transpose(M))


def dense_balance_ratio(g):
    """(tr(A^3) + tr(|A|^3)) / (2 tr(|A|^3)), or None where g has no triad."""
    A = g.adjacency()
    tr_abs = float(dense_triad_trace(np.abs(A)))
    return float((dense_triad_trace(A) + tr_abs) * (1.0 / (2.0 * tr_abs))) if tr_abs else None


def dense_greedy_triads(g0, split, budget, checkpoints=()):
    _check_budget(budget, split)
    edge = g0.edge_array()
    us, vs = edge[split.train].T

    def choose(signs, pooled, trace):
        A = tp.sym_scatter(signs, *edge.T, g0.n)
        scores = signs[split.train] * (A @ A)[us, vs]
        j = _pick_flip(scores, us, vs, pooled)
        return j, float(scores[j])

    return _greedy_flips(g0, split, budget, checkpoints, choose)
