import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from signedattack.errors import InvalidSplitError, MissingEdgeError, ParseError
from signedattack.graph import (SignedGraph, largest_connected_component, load_edge_list,
                                load_graph_json, positive_ratio, sample_subgraph_corpus,
                                split_edges)
from synthgraphs import flipped, random_signed_graph, two_community


def write_rows(path, rows):
    with open(path, "w") as f:
        for r in rows:
            f.write(",".join(str(x) for x in r) + "\n")


def test_load_plain_direct(tmp_path):
    p = tmp_path / "g.csv"
    write_rows(p, [(0, 1, 1), (1, 2, -1)])
    g = load_edge_list(p, "plain")
    assert g.n == 3 and g.num_edges == 2
    assert g.edges == [(0, 1, 1), (1, 2, -1)]


def test_load_plain_header_skipped(tmp_path):
    p = tmp_path / "g.csv"
    with open(p, "w") as f:
        f.write("u,v,s\n0,1,1\n1,2,-1\n")
    g = load_edge_list(p, "plain")
    assert g.num_edges == 2


def test_load_rated_reciprocal_merge(tmp_path):
    # rating sum 3 + (-1) > 0 -> one positive undirected edge
    p = tmp_path / "g.csv"
    write_rows(p, [(0, 1, 3), (1, 0, -1)])
    g = load_edge_list(p, "rated")
    assert g.num_edges == 1
    assert g.edges[0] == (0, 1, 1)


def test_load_rated_zero_sum_drops_edge(tmp_path):
    p = tmp_path / "g.csv"
    write_rows(p, [(0, 1, 2), (1, 0, -2), (1, 2, 5)])
    g = load_edge_list(p, "rated")
    assert g.num_edges == 1
    assert g.meta["dropped_zero_sum"] == 1


def test_load_rated_last_row_wins(tmp_path):
    p = tmp_path / "g.csv"
    write_rows(p, [(0, 1, -5), (0, 1, 2), (2, 3, 1)])
    g = load_edge_list(p, "rated")
    signs = {(u, v): s for u, v, s in g.edges}
    assert signs[(0, 1)] == 1


def test_load_rated_zero_rating_rejected(tmp_path):
    p = tmp_path / "g.csv"
    write_rows(p, [(0, 1, 0), (0, 2, 4)])
    g = load_edge_list(p, "rated")
    assert g.num_edges == 1
    assert g.meta["rejected_rows"] == 1


def test_load_malformed_row_reports_line(tmp_path):
    p = tmp_path / "g.csv"
    with open(p, "w") as f:
        f.write("0,1,1\n0,oops,1\n")
    with pytest.raises(ParseError) as exc:
        load_edge_list(p, "plain")
    assert exc.value.line == 2


def test_load_relabels_contiguously(tmp_path):
    p = tmp_path / "g.csv"
    write_rows(p, [(10, 30, 1), (30, 77, -1)])
    g = load_edge_list(p, "plain")
    assert g.n == 3
    assert g.node_labels == [10, 30, 77]


def test_adjacency_identities():
    g = two_community(30, 6, 0.1, seed=3)
    A = g.adjacency()
    A_plus = np.maximum(A, 0)
    A_minus = A_plus - A
    assert np.array_equal(A_plus - A_minus, A)
    assert np.all(A_plus * A_minus == 0)
    assert np.array_equal(A_plus + A_minus, g.abs_adjacency())
    # degree vector consistent with the edge list
    deg = np.zeros(g.n)
    for u, v, _ in g.edges:
        deg[u] += 1
        deg[v] += 1
    assert np.allclose(g.degrees(), np.maximum(deg, 1e-9))


def test_lcc_already_connected():
    g = SignedGraph(3, [(0, 1, 1), (0, 2, 1), (1, 2, -1)])
    h = largest_connected_component(g)
    assert h.n == 3 and h.num_edges == 3


def test_lcc_picks_larger_component():
    g = SignedGraph(5, [(0, 1, 1), (0, 2, -1), (1, 2, 1), (3, 4, 1)])
    h = largest_connected_component(g)
    assert h.n == 3 and h.num_edges == 3


def test_lcc_tie_break_smallest_node():
    g = SignedGraph(6, [(0, 1, 1), (1, 2, 1), (3, 4, 1), (4, 5, 1)])
    h = largest_connected_component(g)
    assert h.node_labels == [0, 1, 2]


def test_split_sizes_and_determinism():
    g = two_community(40, 6, 0.05, seed=0)
    s1 = split_edges(g, 0.1, seed=7)
    s2 = split_edges(g, 0.1, seed=7)
    assert np.array_equal(s1.test, s2.test)
    assert np.array_equal(s1.train, s2.train)
    assert len(s1.test) == round(0.1 * g.num_edges)
    assert len(s1.test) + len(s1.train) == g.num_edges
    assert set(s1.test) & set(s1.train) == set()


def test_split_ten_edges_fraction_point_one():
    g = SignedGraph(11, [(i, i + 1, 1) for i in range(10)])
    s = split_edges(g, 0.1, seed=0)
    assert len(s.test) == 1


def test_split_rounding_matches_large_count():
    assert round(0.1 * 24186) == 2419


def test_split_invalid_fraction():
    g = SignedGraph(3, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(InvalidSplitError):
        split_edges(g, 0.01, seed=0)
    with pytest.raises(InvalidSplitError):
        split_edges(g, 0.99, seed=0)


def test_flip_sign_involution_and_l1():
    g = SignedGraph(3, [(0, 1, 1), (1, 2, -1)])
    h = flipped(g, 0, 1)
    assert h.edges[0] == (0, 1, -1)
    assert np.abs(h.adjacency() - g.adjacency()).sum() == 4.0
    assert flipped(h, 0, 1).edges == g.edges
    # |A| and degrees unchanged
    assert np.array_equal(h.abs_adjacency(), g.abs_adjacency())


def test_flip_missing_edge():
    g = SignedGraph(3, [(0, 1, 1)])
    with pytest.raises(MissingEdgeError):
        flipped(g, 0, 2)


def test_mask_hides_signs_keeps_support():
    g = SignedGraph(3, [(0, 1, 1), (1, 2, -1)])
    m = g.mask([1])
    assert m.edges[1] == (1, 2, 0)
    assert m.adjacency()[1, 2] == 0
    assert m.support()[1, 2] == 1
    assert m.abs_adjacency()[1, 2] == 0


def test_corpus_size_and_determinism():
    g = two_community(60, 6, 0.05, seed=1)
    c1 = sample_subgraph_corpus(g, [20, 30], 3, seed=5)
    c2 = sample_subgraph_corpus(g, [20, 30], 3, seed=5)
    assert len(c1.graphs) == 6
    for a, b in zip(c1.graphs, c2.graphs):
        assert a.edges == b.edges
    # every member is connected
    for sub in c1.graphs:
        assert largest_connected_component(sub).n == sub.n


def test_corpus_full_size_is_whole_graph():
    g = two_community(25, 6, 0.0, seed=2)
    c = sample_subgraph_corpus(g, [g.n], 1, seed=0)
    assert c.graphs[0].n == g.n


def test_corpus_size_too_big():
    g = SignedGraph(3, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(InvalidSplitError):
        sample_subgraph_corpus(g, [10], 1, seed=0)


def test_json_round_trip(tmp_path):
    g = two_community(20, 5, 0.2, seed=4)
    path = tmp_path / "g.json"
    g.write_json(path)
    h = load_graph_json(path)
    assert h.n == g.n and h.edges == sorted(g.edges)


def test_plain_round_trip(tmp_path):
    g = two_community(20, 5, 0.2, seed=5)
    path = tmp_path / "g.csv"
    g.write_plain(path)
    h = load_edge_list(path, "plain")
    assert h.n == g.n
    assert h.edges == sorted(g.edges)


def test_positive_ratio():
    g = SignedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, -1), (0, 3, 1)])
    assert positive_ratio(g) == 0.75


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_flip_preserves_degrees_property(seed):
    g = random_signed_graph(8, density=0.4, seed=seed % 1000)
    if g.num_edges == 0:
        return
    k = seed % g.num_edges
    u, v, _ = g.edges[k]
    h = flipped(g, u, v)
    assert np.array_equal(np.abs(h.adjacency()), np.abs(g.adjacency()))
    assert flipped(h, u, v).edges == g.edges


@pytest.mark.parametrize("n, edges, message", [
    (3, [(0, 1, 1), (2, 2, 1)], "self-loop on node 2"),
    (3, [(0, 1, 1), (1, 3, -1)], "edge (1,3) outside node range 0..2"),
    (3, [(0, -1, 1)], "edge (0,-1) outside node range 0..2"),
    (3, [(0, 1, 1), (2, 1, 1)], "edge (2,1) not normalized as u<v"),
    (3, [(0, 1, 1), (0, 2, 1), (0, 1, -1)], "duplicate edge (0,1)"),
    (3, [(0, 1, 2)], "edge (0,1) has sign 2, expected +1/-1 (0 = hidden)"),
    # two faults on one link: the checks run in the order above
    (3, [(3, 3, 1)], "self-loop on node 3"),
    (3, [(2, 1, 5)], "edge (2,1) not normalized as u<v"),
    (4, [(0, 1, 1), (0, 1, 9)], "duplicate edge (0,1)"),
    # faults on two links: the earlier link is reported
    (3, [(0, 1, 5), (2, 2, 1)], "edge (0,1) has sign 5, expected +1/-1 (0 = hidden)"),
    (3, [(1, 1, 1), (0, 1, 7)], "self-loop on node 1"),
    (5, [(0, 1, 1), (3, 2, 1), (0, 1, 1), (0, 9, 1)], "edge (3,2) not normalized as u<v"),
])
def test_constructor_reports_the_first_fault(n, edges, message):
    with pytest.raises(ParseError) as exc:
        SignedGraph(n, edges)
    assert str(exc.value) == message


def _reference_subgraph(g, nodes):
    """The induced subgraph rebuilt from g's link tuples."""
    nodes = sorted(set(nodes))
    remap = {old: new for new, old in enumerate(nodes)}
    edges = sorted((remap[u], remap[v], s) for u, v, s in g.edges
                   if u in remap and v in remap)
    return SignedGraph(len(nodes), edges, [g.node_labels[x] for x in nodes])


def _reference_lcc(g):
    """Largest component by search over g's link tuples; ties to the smallest node."""
    neighbors = {x: set() for x in range(g.n)}
    for u, v, _ in g.edges:
        neighbors[u].add(v)
        neighbors[v].add(u)
    seen, best = set(), []
    for start in range(g.n):
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            for y in neighbors[stack.pop()] - comp:
                comp.add(y)
                stack.append(y)
        seen |= comp
        if len(comp) > len(best):
            best = sorted(comp)
    return _reference_subgraph(g, best)


def _same_graph(h, want):
    assert h.n == want.n
    assert h.edges == want.edges
    assert np.array_equal(h.signs(), want.signs())
    assert h.node_labels == want.node_labels


@pytest.mark.parametrize("seed", range(8))
def test_derived_graphs_match_the_tuple_built_graph(seed):
    rng = np.random.default_rng(seed)
    base = random_signed_graph(24, density=0.12, seed=seed)
    # links out of sorted order and relabelled nodes
    shuffled = [base.edges[k] for k in rng.permutation(base.num_edges)]
    g = SignedGraph(base.n, shuffled, [100 + x for x in range(base.n)])
    hidden = rng.choice(g.num_edges, size=g.num_edges // 3, replace=False)
    signs = rng.choice([-1, 0, 1], size=g.num_edges)
    nodes = rng.choice(g.n, size=15, replace=False)

    _same_graph(g.mask(hidden), SignedGraph(
        g.n, [(u, v, 0 if k in set(hidden.tolist()) else s) for k, (u, v, s) in enumerate(g.edges)],
        g.node_labels))
    _same_graph(g.with_signs(signs), SignedGraph(
        g.n, [(u, v, int(t)) for (u, v, _), t in zip(g.edges, signs)], g.node_labels))
    sub = g.induced_subgraph(nodes)
    _same_graph(sub, _reference_subgraph(g, nodes.tolist()))
    _same_graph(largest_connected_component(g), _reference_lcc(g))
    _same_graph(largest_connected_component(sub), _reference_lcc(sub))
