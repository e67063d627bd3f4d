"""Seeded base graph for the benchmark: a polarized two-community signed graph.

Nodes fall into two communities at random, each with probability 1/2.
Links are drawn uniformly among distinct node pairs until the target count
is reached; a link inside a
community is positive and a link across is negative, and a share ``noise``
of the signs is then flipped. The benchmark keeps the largest connected
component. At the benchmark's size (n=1000, average degree 24, 5% noise) an
induced sample of 300 nodes keeps about 1,050 links, stays connected and
holds triads.
"""

from __future__ import annotations

import numpy as np

from signedattack.graph import SignedGraph, largest_connected_component


def two_community(seed: int, n: int, avg_degree: float, noise: float) -> SignedGraph:
    """Largest connected component of a two-community graph drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    group = rng.random(n) < 0.5
    m = int(n * avg_degree / 2)
    if m > n * (n - 1) // 2:
        raise ValueError(f"{m} links do not fit on {n} nodes")
    picked = np.empty(0, dtype=np.int64)
    while picked.size < m:
        u, v = rng.integers(0, n, size=(2, 2 * m))
        keep = u != v
        lo, hi = np.minimum(u[keep], v[keep]), np.maximum(u[keep], v[keep])
        codes = np.concatenate([picked, lo * n + hi])
        # keep first occurrences in draw order so the result is set by the seed
        _, first = np.unique(codes, return_index=True)
        picked = codes[np.sort(first)][:m]
    us, vs = picked // n, picked % n
    signs = np.where(group[us] == group[vs], 1, -1)
    signs[rng.random(m) < noise] *= -1
    order = np.argsort(picked)
    g = SignedGraph(n, zip(us[order].tolist(), vs[order].tolist(), signs[order].tolist()))
    return largest_connected_component(g)
