"""Signed-graph data model, file ingestion and structural editing.

A :class:`SignedGraph` stores an undirected edge list over nodes 0..n-1.
Edge signs are +1 or -1; a sign of 0 marks an edge whose existence is known
but whose sign is hidden (produced only by :meth:`SignedGraph.mask`, which
models the analyst's view where test-link signs are unknown). Graphs are
treated as immutable: every editing operation returns a new instance.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from . import tape as tp
from .errors import InvalidSplitError, MissingEdgeError, ParseError

DEGREE_FLOOR = 1e-9


class SignedGraph:
    def __init__(self, n, edges, node_labels=None, meta=None):
        self.n = int(n)
        self.edges = [(int(u), int(v), int(s)) for u, v, s in edges]
        self.node_labels = list(node_labels) if node_labels is not None else list(range(self.n))
        self.meta = dict(meta or {})
        self._validate()
        self._index = {(u, v): k for k, (u, v, s) in enumerate(self.edges)}

    def _validate(self):
        seen = set()
        for u, v, s in self.edges:
            if u == v:
                raise ParseError(f"self-loop on node {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ParseError(f"edge ({u},{v}) outside node range 0..{self.n - 1}")
            if u > v:
                raise ParseError(f"edge ({u},{v}) not normalized as u<v")
            if (u, v) in seen:
                raise ParseError(f"duplicate edge ({u},{v})")
            if s not in (-1, 0, 1):
                raise ParseError(f"edge ({u},{v}) has sign {s}, expected +1/-1 (0 = hidden)")
            seen.add((u, v))

    # -- matrix views --------------------------------------------------------
    @property
    def num_edges(self):
        return len(self.edges)

    def signs(self):
        return np.array([s for _, _, s in self.edges], dtype=float)

    def edge_array(self):
        return np.array([(u, v) for u, v, _ in self.edges], dtype=int).reshape(-1, 2)

    def adjacency(self):
        """Dense symmetric A with entries in {+1,-1,0}."""
        return tp.sym_scatter(self.signs(), *self.edge_array().T, self.n)

    def abs_adjacency(self):
        """|A| of the signed entries only (A+ + A-); hidden-sign edges are 0."""
        return np.abs(self.adjacency())

    def support(self):
        """0/1 matrix of every known link, including hidden-sign edges."""
        return tp.sym_scatter(np.ones(self.num_edges), *self.edge_array().T, self.n)

    def degrees(self):
        """Unsigned degrees from the signed entries, floored away from zero."""
        return np.maximum(self.abs_adjacency().sum(axis=1), DEGREE_FLOOR)

    def edge_index(self, u, v):
        key = (u, v) if u < v else (v, u)
        if key not in self._index:
            raise MissingEdgeError(f"({u},{v}) is not an edge")
        return self._index[key]

    def has_edge(self, u, v):
        key = (u, v) if u < v else (v, u)
        return key in self._index

    # -- editing -------------------------------------------------------------
    def mask(self, edge_indices) -> "SignedGraph":
        """Hide the signs of the given edges (analyst's view of test links)."""
        hidden = set(int(i) for i in edge_indices)
        edges = [(u, v, 0 if k in hidden else s) for k, (u, v, s) in enumerate(self.edges)]
        return SignedGraph(self.n, edges, self.node_labels, self.meta)

    def with_signs(self, signs) -> "SignedGraph":
        edges = [(u, v, int(t)) for (u, v, _), t in zip(self.edges, signs)]
        return SignedGraph(self.n, edges, self.node_labels, self.meta)

    def induced_subgraph(self, nodes) -> "SignedGraph":
        nodes = sorted(set(int(x) for x in nodes))
        remap = {old: new for new, old in enumerate(nodes)}
        keep = set(nodes)
        edges = sorted(
            (remap[u], remap[v], s) for u, v, s in self.edges if u in keep and v in keep
        )
        labels = [self.node_labels[x] for x in nodes]
        return SignedGraph(len(nodes), edges, labels, self.meta)

    # -- serialization -------------------------------------------------------
    def to_json_dict(self):
        return {"n": self.n, "edges": [[u, v, s] for u, v, s in sorted(self.edges)]}

    @classmethod
    def from_json_dict(cls, d):
        return cls(d["n"], [tuple(e) for e in d["edges"]])

    def write_json(self, path):
        with open(path, "w") as f:
            json.dump(self.to_json_dict(), f)

    def write_plain(self, path):
        with open(path, "w") as f:
            w = csv.writer(f)
            for u, v, s in sorted(self.edges):
                w.writerow([u, v, s])

    def __repr__(self):
        return f"SignedGraph(n={self.n}, edges={self.num_edges})"


@dataclass
class EdgeSplit:
    """Indices of training links (visible signs) and test links (hidden).

    ``hidden_signs`` carries the ground truth for the test links and is meant
    for the evaluator only; attack code must not read it.
    """

    train: np.ndarray
    test: np.ndarray
    hidden_signs: np.ndarray


@dataclass
class GraphCorpus:
    graphs: list
    provenance: dict = field(default_factory=dict)


def load_graph_json(path) -> SignedGraph:
    with open(path) as f:
        return SignedGraph.from_json_dict(json.load(f))


def _parse_rows(path, fmt):
    """Yield (lineno, u, v, rating) from a CSV edge list; header optional."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        for lineno, row in enumerate(reader, start=1):
            row = [c.strip() for c in row if c.strip() != ""]
            if not row:
                continue
            if lineno == 1:
                try:
                    float(row[0])
                except ValueError:
                    continue  # header row
            if len(row) < 3:
                raise ParseError(f"expected at least 3 columns, got {len(row)}", lineno)
            try:
                u = int(float(row[0]))
                v = int(float(row[1]))
                r = float(row[2])
            except ValueError as e:
                raise ParseError(f"non-numeric field: {e}", lineno) from e
            if fmt == "plain" and r not in (1.0, -1.0):
                raise ParseError(f"plain sign must be +1 or -1, got {row[2]}", lineno)
            yield lineno, u, v, r


def load_edge_list(path, fmt="plain") -> SignedGraph:
    """Build a SignedGraph from a plain (u,v,s) or rated (u,v,rating[,t]) file.

    Duplicate rows for the same ordered pair keep the last one; reciprocal
    directed rows merge into one undirected edge whose sign is the sign of
    the rating sum (an exact-zero sum drops the edge). Zero ratings and
    self-loops are rejected row-wise and counted in the result metadata.
    """
    if fmt not in ("plain", "rated"):
        raise ParseError(f"unknown edge-list format {fmt!r}")
    last_rating = {}
    rejected = 0
    for lineno, u, v, r in _parse_rows(path, fmt):
        if r == 0.0:
            rejected += 1
            continue
        if u == v:
            rejected += 1
            continue
        last_rating[(u, v)] = r

    merged = {}
    for (u, v), r in last_rating.items():
        key = (u, v) if u < v else (v, u)
        merged[key] = merged.get(key, 0.0) + r

    raw_edges = [(u, v, 1 if r > 0 else -1) for (u, v), r in merged.items() if r != 0.0]
    dropped = sum(1 for r in merged.values() if r == 0.0)

    node_ids = sorted({u for u, _, _ in raw_edges} | {v for _, v, _ in raw_edges})
    remap = {old: new for new, old in enumerate(node_ids)}
    edges = sorted((remap[u], remap[v], s) for u, v, s in raw_edges)
    meta = {"source": str(path), "format": fmt,
            "rejected_rows": rejected, "dropped_zero_sum": dropped}
    return SignedGraph(len(node_ids), edges, node_ids, meta)


def connected_components(g: SignedGraph):
    """Node sets of connected components over the link support."""
    neighbors = [[] for _ in range(g.n)]
    for u, v, _ in g.edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    seen = np.zeros(g.n, dtype=bool)
    components = []
    for start in range(g.n):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in neighbors[x]:
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
        components.append(sorted(comp))
    return components


def largest_connected_component(g: SignedGraph) -> SignedGraph:
    """Induced subgraph on the largest component.

    Ties break toward the component whose minimum original node id is
    smallest; the returned graph keeps the old->new label map.
    """
    if g.n == 0:
        raise InvalidSplitError("empty graph has no components")
    comps = connected_components(g)
    best = max(comps, key=lambda c: (len(c), -min(c)))
    return g.induced_subgraph(best)


def split_edges(g: SignedGraph, test_fraction: float, seed: int) -> EdgeSplit:
    """Seeded uniform partition of edges into train and test links."""
    m = g.num_edges
    n_test = round(test_fraction * m)
    if not 0 < n_test < m:
        raise InvalidSplitError(
            f"test fraction {test_fraction} gives {n_test} test edges out of {m}"
        )
    rng = np.random.default_rng(seed)
    perm = rng.permutation(m)
    test = np.sort(perm[:n_test])
    train = np.sort(perm[n_test:])
    signs = g.signs()
    return EdgeSplit(train=train, test=test, hidden_signs=signs[test].astype(int))


def sample_subgraph_corpus(g: SignedGraph, sizes, per_size, seed) -> GraphCorpus:
    """Random node samples, induced subgraphs, then the LCC of each."""
    for size in sizes:
        if size > g.n:
            raise InvalidSplitError(f"sample size {size} exceeds graph size {g.n}")
    rng = np.random.default_rng(seed)
    graphs = []
    for size in sizes:
        for _ in range(per_size):
            nodes = rng.choice(g.n, size=size, replace=False)
            graphs.append(largest_connected_component(g.induced_subgraph(nodes)))
    provenance = {"source": g.meta.get("source", "unknown"),
                  "sizes": list(sizes), "per_size": per_size, "seed": seed}
    return GraphCorpus(graphs=graphs, provenance=provenance)


def positive_ratio(g: SignedGraph) -> float:
    s = g.signs()
    signed = s != 0
    if not signed.any():
        return float("nan")
    return float((s[signed] > 0).mean())
