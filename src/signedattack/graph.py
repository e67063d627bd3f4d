"""Signed-graph data model, file ingestion and structural editing.

A :class:`SignedGraph` stores its links over nodes 0..n-1 as two arrays,
built and validated once: one row of endpoints u < v and one sign per link.
Signs are +1 or -1; a sign of 0 marks a link whose existence is known but
whose sign is hidden (produced only by :meth:`SignedGraph.mask`, which
models the analyst's view where test-link signs are unknown). The tuple
list ``edges`` and the (u, v) -> position lookup are derived from the arrays
on first use; the matrix views, degrees and every editing operation are
array operations. Graphs are treated as immutable: every editing operation
returns a new instance, and one derived from a validated graph's arrays is
not validated again.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import tape as tp
from .errors import InvalidSplitError, MissingEdgeError, ParseError

DEGREE_FLOOR = 1e-9


class SignedGraph:
    def __init__(self, n, edges, node_labels=None, meta=None):
        links = np.array(list(edges), dtype=np.int64)
        if links.size == 0:
            links = links.reshape(0, 3)
        if links.ndim != 2 or links.shape[1] != 3:
            raise ParseError("links must be (u, v, sign) triples")
        self._init(int(n), links[:, :2], links[:, 2],
                   list(node_labels) if node_labels is not None else list(range(int(n))),
                   dict(meta or {}))
        self._validate()

    def _init(self, n, edge, signs, node_labels, meta):
        self.n = n
        self._edge = np.ascontiguousarray(edge)
        self._signs = np.ascontiguousarray(signs)
        self._edge.flags.writeable = self._signs.flags.writeable = False
        self.node_labels = node_labels
        self.meta = meta

    def _derived(self, n, edge, signs, node_labels):
        """A graph on arrays taken from this validated one, left unvalidated."""
        g = object.__new__(SignedGraph)
        g._init(n, edge, signs, node_labels, dict(self.meta))
        return g

    def _validate(self):
        """Raise ``ParseError`` for the first link at fault, checks in the order below."""
        n, (u, v), s = self.n, self._edge.T, self._signs
        keys = np.where((u >= 0) & (u < n) & (v >= 0) & (v < n), u * n + v, -1)
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        checks = (
            (u == v, "self-loop on node {u}"),
            (keys < 0, "edge ({u},{v}) outside node range 0..{top}"),
            (u > v, "edge ({u},{v}) not normalized as u<v"),
            (first[inverse] != np.arange(len(keys)), "duplicate edge ({u},{v})"),
            (np.abs(s) > 1, "edge ({u},{v}) has sign {s}, expected +1/-1 (0 = hidden)"),
        )
        bad = np.any([mask for mask, _ in checks], axis=0)
        if bad.any():
            k = int(np.argmax(bad))
            message = next(m for mask, m in checks if mask[k])
            raise ParseError(message.format(u=int(u[k]), v=int(v[k]), s=int(s[k]), top=n - 1))

    # -- matrix views --------------------------------------------------------
    @property
    def num_edges(self):
        return len(self._signs)

    @cached_property
    def edges(self):
        """The links as (u, v, sign) tuples, in edge-list order."""
        us, vs = self._edge.T.tolist()
        return list(zip(us, vs, self._signs.tolist()))

    @cached_property
    def _index(self):
        return {(u, v): k for k, (u, v) in enumerate(self._edge.tolist())}

    def signs(self):
        return self._signs.astype(float)

    def edge_array(self):
        """The links' endpoints, one read-only row (u, v) per link."""
        return self._edge

    def adjacency(self):
        """Dense symmetric A with entries in {+1,-1,0}."""
        return tp.sym_scatter(self.signs(), *self._edge.T, self.n)

    def abs_adjacency(self):
        """|A| of the signed entries only (A+ + A-); hidden-sign edges are 0."""
        return np.abs(self.adjacency())

    def support(self):
        """0/1 matrix of every known link, including hidden-sign edges."""
        return tp.sym_scatter(np.ones(self.num_edges), *self._edge.T, self.n)

    def degrees(self):
        """Unsigned degrees from the signed entries, floored away from zero."""
        # |sign| once for each end of each link, in the order of the raveled (u, v) rows
        ends = np.repeat(np.abs(self._signs), 2)
        deg = np.bincount(self._edge.ravel(), weights=ends, minlength=self.n)
        return np.maximum(deg, DEGREE_FLOOR)

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
        """Hide the signs of the links at these positions (the analyst's view of test links)."""
        signs = self._signs.copy()
        signs[np.asarray(edge_indices, dtype=np.intp)] = 0
        return self._derived(self.n, self._edge, signs, list(self.node_labels))

    def with_signs(self, signs) -> "SignedGraph":
        """The same links with new signs, one per link in edge-list order, validated."""
        signs = np.asarray(signs).astype(np.int64)
        if signs.shape != self._signs.shape:
            raise ValueError(f"{signs.size} signs for {self.num_edges} links")
        g = self._derived(self.n, self._edge, signs, list(self.node_labels))
        g._validate()
        return g

    def induced_subgraph(self, nodes) -> "SignedGraph":
        """The subgraph on ``nodes``, renumbered in node order, links sorted."""
        nodes = np.unique(np.asarray(nodes, dtype=np.int64))
        keep = np.zeros(self.n, dtype=bool)
        keep[nodes] = True
        renumber = np.cumsum(keep) - 1
        inside = keep[self._edge].all(axis=1)
        edge = renumber[self._edge[inside]]
        order = np.lexsort((edge[:, 1], edge[:, 0]))
        labels = [self.node_labels[x] for x in nodes.tolist()]
        return self._derived(len(nodes), edge[order], self._signs[inside][order], labels)

    # -- serialization -------------------------------------------------------
    def _sorted_rows(self):
        order = np.lexsort((self._edge[:, 1], self._edge[:, 0]))
        return np.column_stack([self._edge, self._signs])[order].tolist()

    def to_json_dict(self):
        return {"n": self.n, "edges": self._sorted_rows()}

    @classmethod
    def from_json_dict(cls, d):
        return cls(d["n"], [tuple(e) for e in d["edges"]])

    def write_json(self, path):
        with open(path, "w") as f:
            json.dump(self.to_json_dict(), f)

    def write_plain(self, path):
        with open(path, "w") as f:
            csv.writer(f).writerows(self._sorted_rows())

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


def _component_roots(g: SignedGraph):
    """Each node's connected component over the link support, named by its smallest node.

    Every round hooks the larger root of each link's two ends onto the
    smaller one, then points every node at its root; rounds stop when the
    ends of every link share a root.
    """
    root = np.arange(g.n)
    u, v = g.edge_array().T
    while True:
        ru, rv = root[u], root[v]
        if (ru == rv).all():
            return root
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        up = root[root]
        while not np.array_equal(up, root):
            root, up = up, up[up]


def largest_connected_component(g: SignedGraph) -> SignedGraph:
    """Induced subgraph on the largest component.

    Ties break toward the component whose minimum original node id is
    smallest; the returned graph keeps the old->new label map.
    """
    if g.n == 0:
        raise InvalidSplitError("empty graph has no components")
    root = _component_roots(g)
    return g.induced_subgraph(np.flatnonzero(root == np.argmax(np.bincount(root))))


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
