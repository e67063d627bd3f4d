"""Signed-graph data model, file ingestion and structural editing.

A :class:`SignedGraph` stores its links over nodes 0..n-1 as two arrays,
built and validated once: one row of endpoints u < v and one sign per link.
The constructor reads its links from any iterable of (u, v, sign) triples,
one triple at a time, straight into one (m, 3) block, without a list of them.
A node is its number alone; the graph keeps no per-node list or file ids.
Signs are +1 or -1; a sign of 0 marks a link whose existence is known but
whose sign is hidden (produced only by :meth:`SignedGraph.mask`, which
models the analyst's view where test-link signs are unknown). The tuple
list ``edges`` and the (u, v) -> position lookup are derived from the arrays
on first use; the matrix views, degrees and every editing operation are
array operations. Graphs are treated as immutable: every editing operation
returns a new instance, and one derived from a validated graph's arrays is
not validated again. A graph made by :meth:`SignedGraph.mask` or
:meth:`SignedGraph.with_signs` has the same links as its parent, so it
shares the parent's edge array and its ``support_cache``: whatever is
computed from the links alone is computed once for all of them
(``fextra.link_index`` keeps the wedge index there). A detector's clean
corpus is a plain list of graphs (:func:`sample_subgraph_corpus`).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import tape as tp
from .errors import InvalidSplitError, MissingEdgeError, ParseError

DEGREE_FLOOR = 1e-9
EDGE_LIST_FORMATS = ("plain", "rated")
PAIR_KEY_WIDTH = 3037000499  # the largest w with w * w - 1 < 2**63


class SignedGraph:
    def __init__(self, n, edges, meta=None):
        """The graph on nodes 0..n-1 with the links ``edges``, validated.

        ``edges`` is any iterable of integer (u, v, sign) triples, an (m, 3)
        integer array included, read once, one triple at a time, into one
        (m, 3) block. ``ParseError`` for a link that is not a triple or that
        :meth:`_validate` refuses; a lone number x reads as (x, x, x).
        """
        try:
            links = np.fromiter(edges, dtype=np.dtype((np.int64, 3)))
        except ValueError as e:
            raise ParseError("links must be (u, v, sign) triples") from e
        self._init(int(n), links[:, :2], links[:, 2], dict(meta or {}))
        self._validate()

    def _init(self, n, edge, signs, meta, support_cache=None):
        self.n = n
        self._edge = np.ascontiguousarray(edge)
        self._signs = np.ascontiguousarray(signs)
        self._edge.flags.writeable = self._signs.flags.writeable = False
        self.meta = meta
        # values that depend on the links but not their signs, shared with
        # every graph derived by mask or with_signs
        self.support_cache = {} if support_cache is None else support_cache

    def _derived(self, n, edge, signs, support_cache=None):
        """A graph on arrays taken from this validated one, left unvalidated.

        Pass ``support_cache`` only when ``edge`` is this graph's own edge array.
        """
        g = object.__new__(SignedGraph)
        g._init(n, edge, signs, dict(self.meta), support_cache)
        return g

    def _validate(self):
        """Raise ``ParseError`` for the first link at fault, checks in the order below.

        A pair is keyed u * width + v, width one past the largest in-range
        linked id, so a graph whose links reach node ``PAIR_KEY_WIDTH`` or
        above is refused: its keys would not fit in int64.
        """
        n, (u, v), s = self.n, self._edge.T, self._signs
        inside = (u >= 0) & (u < n) & (v >= 0) & (v < n)
        width = int(np.maximum(u, v).max(where=inside, initial=-1)) + 1
        if width > PAIR_KEY_WIDTH:
            raise ParseError(f"a link reaches node {width - 1}; node ids that links join "
                             f"must be below {PAIR_KEY_WIDTH}")
        keys = np.where(inside, u * width + v, -1)
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
        return self._derived(self.n, self._edge, signs, self.support_cache)

    def with_signs(self, signs) -> "SignedGraph":
        """The same links with new signs, one per link in edge-list order, validated.

        A sign must be an integer or a float of integral value, else ``ValueError``.
        """
        signs = np.asarray(signs)
        if signs.shape != self._signs.shape:
            raise ValueError(f"{signs.size} signs for {self.num_edges} links")
        whole = np.isfinite(signs) & (signs == np.trunc(signs))
        if not whole.all():
            k = int(np.argmin(whole))
            raise ValueError(f"sign {signs[k]} of link {k} is not an integer")
        g = self._derived(self.n, self._edge, signs.astype(np.int64), self.support_cache)
        g._validate()
        return g

    def induced_subgraph(self, nodes) -> "SignedGraph":
        """The subgraph on ``nodes``, renumbered in node order, links sorted."""
        nodes = np.unique(np.asarray(nodes, dtype=np.int64))
        if nodes.size and not 0 <= nodes[0] <= nodes[-1] < self.n:
            raise ValueError(f"nodes outside 0..{self.n - 1}")
        # ids past the largest linked one are isolated, so no link reads them
        keep = np.zeros(self._edge.max(initial=-1) + 1, dtype=bool)
        keep[nodes[nodes < len(keep)]] = True
        renumber = np.cumsum(keep) - 1
        inside = keep[self._edge].all(axis=1)
        edge = renumber[self._edge[inside]]
        order = np.lexsort((edge[:, 1], edge[:, 0]))
        return self._derived(len(nodes), edge[order], self._signs[inside][order])

    # -- serialization -------------------------------------------------------
    def _sorted_rows(self):
        order = np.lexsort((self._edge[:, 1], self._edge[:, 0]))
        return np.column_stack([self._edge, self._signs])[order].tolist()

    def to_json_dict(self):
        return {"n": self.n, "edges": self._sorted_rows()}

    @classmethod
    def from_json_dict(cls, d):
        """The graph of a ``to_json_dict`` document: an object whose ``n`` is an
        integer >= 0 and whose ``edges`` is a list of integer (u, v, sign)
        triples, each integer in int64, else ``ParseError``. A bool is not an
        integer here."""
        if not isinstance(d, dict):
            raise ParseError(f"a graph dump must be a JSON object, got {type(d).__name__}")
        n, edges = d.get("n"), d.get("edges")
        if not (type(n) is int and 0 <= n < 2**63):
            raise ParseError(f"graph dump key 'n' must be an integer >= 0 and < 2^63, got {n!r}")
        if not isinstance(edges, list):
            raise ParseError(f"graph dump key 'edges' must be a list, got {type(edges).__name__}")
        for e in edges:
            if not (isinstance(e, list) and len(e) == 3
                    and all(type(x) is int and -2**63 <= x < 2**63 for x in e)):
                raise ParseError(f"graph dump edge {e!r} is not an integer (u, v, sign) triple "
                                 f"in int64")
        return cls(n, edges)

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


def load_graph_json(path) -> SignedGraph:
    """The graph of a ``SignedGraph.write_json`` dump, byte order mark optional;
    ``ParseError`` for one that is not UTF-8 JSON, not a graph dump or has no
    link, as for an edge list that leaves none."""
    with open(path, encoding="utf-8-sig") as f:
        try:
            document = json.load(f)
        except ValueError as e:  # not JSON, not UTF-8, or an integer of over 4300 digits
            raise ParseError(f"bad graph JSON: {e}") from e
    g = SignedGraph.from_json_dict(document)
    if not g.num_edges:
        raise ParseError(f"{path} has no links (n = {g.n})")
    return g


def _utf8_lines(f):
    """The lines of the text file ``f``, ``ParseError`` where they are not UTF-8."""
    try:
        yield from f
    except UnicodeDecodeError as e:
        raise ParseError(f"the edge list is not UTF-8 text: {e}") from e


def _parse_rows(path, fmt):
    """Yield (lineno, u, v, rating) from a UTF-8 CSV edge list, byte order mark
    and header optional; integer node ids and a finite rating, else ``ParseError``."""
    with open(path, newline="", encoding="utf-8-sig") as f:
        reader = csv.reader(_utf8_lines(f))
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
                u, v, r = (float(x) for x in row[:3])
            except ValueError as e:
                raise ParseError(f"non-numeric field: {e}", lineno) from e
            if not (u.is_integer() and v.is_integer() and np.isfinite(r)):
                raise ParseError(f"node ids must be integers and the rating finite, got "
                                 f"{', '.join(row[:3])}", lineno)
            if fmt == "plain" and r not in (1.0, -1.0):
                raise ParseError(f"plain sign must be +1 or -1, got {row[2]}", lineno)
            yield lineno, int(u), int(v), r


def load_edge_list(path, fmt="plain") -> SignedGraph:
    """Build a SignedGraph from a plain (u,v,s) or rated (u,v,rating[,t]) file.

    Duplicate rows for the same ordered pair keep the last one; reciprocal
    directed rows merge into one undirected edge whose sign is the sign of
    the rating sum (an exact-zero sum drops the edge). Zero ratings and
    self-loops are rejected row-wise and counted in the result metadata. A
    file that leaves no link raises ``ParseError``. The nodes that links
    join are renumbered 0..n-1 in the sorted order of their ids, and the
    ids themselves are not kept.
    """
    if fmt not in EDGE_LIST_FORMATS:
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
    if not raw_edges:
        raise ParseError(f"{path} has no usable row ({rejected} rows rejected, "
                         f"{dropped} links dropped as zero-sum)")

    node_ids = sorted({u for u, _, _ in raw_edges} | {v for _, v, _ in raw_edges})
    remap = {old: new for new, old in enumerate(node_ids)}
    edges = sorted((remap[u], remap[v], s) for u, v, s in raw_edges)
    meta = {"source": str(path), "format": fmt,
            "rejected_rows": rejected, "dropped_zero_sum": dropped}
    return SignedGraph(len(node_ids), edges, meta)


def _component_roots(g: SignedGraph):
    """Each node's connected component over the link support, named by its smallest node.

    Only the nodes up to the largest linked id get a root (node 0 alone when
    there is no link); the nodes past it are isolated. Every round hooks the
    larger root of each link's two ends onto the smaller one, then points
    every node at its root; rounds stop when the ends of every link share a
    root.
    """
    root = np.arange(g.edge_array().max(initial=0) + 1)
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
    """Induced subgraph on the largest component, renumbered in node order.

    Ties break toward the component whose smallest node id is smallest.
    """
    if g.n == 0:
        raise InvalidSplitError("empty graph has no components")
    root = _component_roots(g)
    return g.induced_subgraph(np.flatnonzero(root == np.argmax(np.bincount(root))))


def split_edges(g: SignedGraph, test_fraction: float, seed: int) -> EdgeSplit:
    """Seeded uniform partition of edges into train and test links.

    ``InvalidSplitError`` for a fraction outside (0, 1), NaN included, or one
    that leaves either side empty."""
    if not 0 < test_fraction < 1:
        raise InvalidSplitError(f"test fraction {test_fraction} is not in (0, 1)")
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


def sample_subgraph_corpus(g: SignedGraph, sizes, per_size, seed) -> list[SignedGraph]:
    """A list of ``per_size`` node samples per size: the LCC of each induced subgraph."""
    for size in sizes:
        if size > g.n:
            raise InvalidSplitError(f"sample size {size} exceeds graph size {g.n}")
    rng = np.random.default_rng(seed)
    graphs = []
    for size in sizes:
        for _ in range(per_size):
            nodes = rng.choice(g.n, size=size, replace=False)
            graphs.append(largest_connected_component(g.induced_subgraph(nodes)))
    return graphs


def positive_ratio(g: SignedGraph) -> float:
    s = g.signs()
    signed = s != 0
    if not signed.any():
        return float("nan")
    return float((s[signed] > 0).mean())
