"""Synthetic signed-graph generators used across the test suite."""

import numpy as np

from signedattack.graph import SignedGraph, largest_connected_component


def two_community(n, avg_deg=8, noise=0.05, frac=0.5, seed=0):
    """Erdos-Renyi-style polarized graph: two blocks, positive inside,
    negative across, with a fraction of signs flipped as noise."""
    rng = np.random.default_rng(seed)
    group = (rng.random(n) < frac).astype(int)
    m_target = int(n * avg_deg / 2)
    edges = {}
    attempts = 0
    while len(edges) < m_target and attempts < 50 * m_target:
        attempts += 1
        u, v = rng.integers(0, n, 2)
        if u == v:
            continue
        u, v = (u, v) if u < v else (v, u)
        if (u, v) in edges:
            continue
        s = 1 if group[u] == group[v] else -1
        if rng.random() < noise:
            s = -s
        edges[(u, v)] = s
    g = SignedGraph(n, sorted((u, v, s) for (u, v), s in edges.items()))
    return largest_connected_component(g)


def geometric_polarized(n, k=12, noise=0.03, seed=0):
    """Triangle-rich polarized graph: nodes on a circle, edges to the k/2
    nearest on each side, signs from the two half-circle communities.

    Induced subsamples of this family stay clustered, which makes it a good
    stand-in for the trust-network corpora the detectors train on.
    """
    rng = np.random.default_rng(seed)
    pos = np.sort(rng.random(n))
    group = (pos < 0.5).astype(int)
    half = max(1, k // 2)
    edges = {}
    for i in range(n):
        for step in range(1, half + 1):
            j = (i + step) % n
            u, v = (i, j) if i < j else (j, i)
            if u == v:
                continue
            s = 1 if group[u] == group[v] else -1
            if rng.random() < noise:
                s = -s
            edges[(u, v)] = s
    g = SignedGraph(n, sorted((u, v, s) for (u, v), s in edges.items()))
    return largest_connected_component(g)


def planted_polarized(n, p_in=0.45, p_cross=0.06, noise=0.0, seed=0):
    """Two dense blocks with sparse cross links: positive inside, negative
    across. This is the topologically polarized pattern, unlike
    ``two_community`` whose topology is uniform."""
    rng = np.random.default_rng(seed)
    half = n // 2
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            same = (u < half) == (v < half)
            if rng.random() < (p_in if same else p_cross):
                s = 1 if same else -1
                if rng.random() < noise:
                    s = -s
                edges.append((u, v, s))
    return largest_connected_component(SignedGraph(n, edges))


def random_signed_graph(n, density=0.2, seed=0, connected=False):
    """Uniform random signs on an Erdos-Renyi topology."""
    rng = np.random.default_rng(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                edges.append((u, v, 1 if rng.random() < 0.5 else -1))
    g = SignedGraph(n, edges)
    return largest_connected_component(g) if connected else g


def two_triangles_bridge():
    """Two all-positive triangles joined by a single negative edge."""
    edges = [(0, 1, 1), (0, 2, 1), (1, 2, 1),
             (3, 4, 1), (3, 5, 1), (4, 5, 1),
             (2, 3, -1)]
    return SignedGraph(6, edges)


def flipped(g, u, v):
    """``g`` with the sign of link (u, v) negated."""
    signs = g.signs()
    signs[g.edge_index(u, v)] *= -1
    return g.with_signs(signs)


def all_positive_triangle():
    return SignedGraph(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])


def complete_graph(n, sign=1):
    return SignedGraph(n, [(u, v, sign) for u in range(n) for v in range(u + 1, n)])
