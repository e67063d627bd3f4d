import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from signedattack.errors import InvalidSplitError, MissingEdgeError, ParseError
from signedattack.graph import (PAIR_KEY_WIDTH, SignedGraph, largest_connected_component,
                                load_edge_list, load_graph_json, positive_ratio,
                                sample_subgraph_corpus, split_edges)
from densefeatures import support
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


@pytest.mark.parametrize("row,message", [
    ("0,oops,1", "non-numeric field"),
    ("0,1", "expected at least 3 columns, got 2"),
    ("0,1,2", "plain sign must be +1 or -1, got 2"),
], ids=["non-numeric", "two-columns", "plain-sign-2"])
def test_load_malformed_row_reports_line(tmp_path, row, message):
    p = tmp_path / "g.csv"
    with open(p, "w") as f:
        f.write(f"0,1,1\n{row}\n")
    with pytest.raises(ParseError, match=re.escape(message)) as exc:
        load_edge_list(p, "plain")
    assert exc.value.line == 2


def test_load_skips_blank_rows_and_counts_their_lines(tmp_path):
    p = tmp_path / "g.csv"
    p.write_text("0,1,1\n\n , ,\n1,2,-1\n")
    assert load_edge_list(p, "plain").edges == [(0, 1, 1), (1, 2, -1)]
    p.write_text("0,1,1\n\n0,oops,1\n")
    with pytest.raises(ParseError) as exc:
        load_edge_list(p, "plain")
    assert exc.value.line == 3


def test_load_refuses_an_unknown_format(tmp_path):
    p = tmp_path / "g.csv"
    write_rows(p, [(0, 1, 1)])
    with pytest.raises(ParseError, match="unknown edge-list format 'bogus'"):
        load_edge_list(p, "bogus")


@pytest.mark.parametrize("row", ["0,1,nan", "3,0,inf", "2.7,3,1", "inf,3,1"],
                         ids=["nan-rating", "inf-rating", "fractional-node", "infinite-node"])
def test_load_rejects_non_finite_ratings_and_non_integer_nodes(tmp_path, row):
    # nan became a negative link, inf a positive one and 2.7 node 2, each
    # with no rejected row; an infinite node id raised OverflowError
    p = tmp_path / "g.csv"
    with open(p, "w") as f:
        f.write(f"0,2,1\n{row}\n")
    with pytest.raises(ParseError, match=f"the rating finite, got {row.replace(',', ', ')}$") as exc:
        load_edge_list(p, "rated")
    assert exc.value.line == 2


@pytest.mark.parametrize("write,load", [(SignedGraph.write_plain, load_edge_list),
                                        (SignedGraph.write_json, load_graph_json)],
                         ids=["edge-list", "dump"])
def test_load_reads_a_file_that_opens_with_a_byte_order_mark(tmp_path, write, load):
    # the edge list took its first row, read as "\ufeff0", for a header and
    # dropped that link; the dump was not JSON
    g = SignedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, -1)])
    path = tmp_path / "g"
    write(g, path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert load(path).edges == g.edges


def test_load_relabels_contiguously(tmp_path):
    p = tmp_path / "g.csv"
    write_rows(p, [(30, 77, -1), (10, 30, 1)])
    g = load_edge_list(p, "plain")
    assert g.n == 3
    # ids 10, 30, 77 became 0, 1, 2: the signs pin which link is which
    assert g.edges == [(0, 1, 1), (1, 2, -1)]


def test_adjacency_identities():
    g = two_community(30, 6, 0.1, seed=3)
    A = g.adjacency()
    A_plus = np.maximum(A, 0)
    A_minus = A_plus - A
    assert np.array_equal(A_plus - A_minus, A)
    assert np.all(A_plus * A_minus == 0)
    assert np.array_equal(A_plus + A_minus, np.abs(g.adjacency()))
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
    g = SignedGraph(6, [(0, 1, 1), (1, 2, 1), (3, 4, -1), (4, 5, -1)])
    h = largest_connected_component(g)
    assert h.edges == [(0, 1, 1), (1, 2, 1)]


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
    # NaN raised a bare ValueError from round()
    for fraction in (float("nan"), 0.0, 1.0, 1.5, -0.1):
        with pytest.raises(InvalidSplitError, match="not in"):
            split_edges(g, fraction, seed=0)


def test_flip_sign_involution_and_l1():
    g = SignedGraph(3, [(0, 1, 1), (1, 2, -1)])
    h = flipped(g, 0, 1)
    assert h.edges[0] == (0, 1, -1)
    assert np.abs(h.adjacency() - g.adjacency()).sum() == 4.0
    assert flipped(h, 0, 1).edges == g.edges
    # |A| and degrees unchanged
    assert np.array_equal(np.abs(h.adjacency()), np.abs(g.adjacency()))


def test_flip_missing_edge():
    g = SignedGraph(3, [(0, 1, 1)])
    with pytest.raises(MissingEdgeError):
        flipped(g, 0, 2)


def test_mask_hides_signs_keeps_support():
    g = SignedGraph(3, [(0, 1, 1), (1, 2, -1)])
    m = g.mask([1])
    assert m.edges[1] == (1, 2, 0)
    assert m.adjacency()[1, 2] == 0
    assert support(m)[1, 2] == 1
    assert np.abs(m.adjacency())[1, 2] == 0


def test_corpus_size_and_determinism():
    g = two_community(60, 6, 0.05, seed=1)
    c1 = sample_subgraph_corpus(g, [20, 30], 3, seed=5)
    c2 = sample_subgraph_corpus(g, [20, 30], 3, seed=5)
    assert len(c1) == 6
    for a, b in zip(c1, c2):
        assert a.edges == b.edges
    # every member is connected
    for sub in c1:
        assert largest_connected_component(sub).n == sub.n


def test_corpus_full_size_is_whole_graph():
    g = two_community(25, 6, 0.0, seed=2)
    c = sample_subgraph_corpus(g, [g.n], 1, seed=0)
    assert c[0].n == g.n


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


def test_positive_ratio_of_a_graph_with_every_sign_hidden_is_nan():
    g = SignedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, -1)]).mask([0, 1, 2])
    assert np.isnan(positive_ratio(g))


def test_has_edge_answers_for_both_orders_of_a_pair():
    g = SignedGraph(4, [(0, 1, 1), (1, 3, -1)])
    assert g.has_edge(0, 1) and g.has_edge(1, 0) and g.has_edge(3, 1)
    assert not g.has_edge(0, 3) and not g.has_edge(3, 0)


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
    # a lone number is read as the triple (1, 1, 1)
    (3, [1], "self-loop on node 1"),
    # np.abs wraps -2^63 to itself in int64, and the sign was let through
    (3, [(0, 1, -2**63)], "edge (0,1) has sign -9223372036854775808, expected +1/-1 (0 = hidden)"),
])
def test_constructor_reports_the_first_fault(n, edges, message):
    with pytest.raises(ParseError) as exc:
        SignedGraph(n, edges)
    assert str(exc.value) == message


TRIPLES = [(0, 1, 1), (0, 2, -1), (1, 2, 0)]


@pytest.mark.parametrize("make", [
    lambda: TRIPLES,
    lambda: [list(t) for t in TRIPLES],
    lambda: np.array(TRIPLES),
    lambda: np.array(TRIPLES, dtype=np.int32),
    lambda: (t for t in TRIPLES),
    lambda: zip([0, 0, 1], [1, 2, 2], [1, -1, 0]),
], ids=["tuples", "lists", "array", "int32-array", "generator", "zip"])
def test_the_constructor_builds_the_same_arrays_from_any_iterable_of_triples(make):
    g = SignedGraph(3, make())
    assert g.edge_array().dtype == np.int64 and not g.edge_array().flags.writeable
    assert g.edge_array().tolist() == [[0, 1], [0, 2], [1, 2]]
    assert g.signs().tolist() == [1.0, -1.0, 0.0]


@pytest.mark.parametrize("edges", [[], np.empty((0, 3), dtype=np.int64)], ids=["list", "array"])
def test_a_graph_without_links_has_empty_arrays(edges):
    g = SignedGraph(3, edges)
    assert g.edge_array().shape == (0, 2) and g.edge_array().dtype == np.int64
    assert g.signs().shape == (0,)


# the ragged and lettered links raised a bare ValueError from numpy
@pytest.mark.parametrize("edges", [
    [(0, 1)],
    [(0, 1, 1, 1)],
    [(0, 1, 1), (1, 2)],
    [("a", "b", "c")],
    [(0, 1, "x")],
    np.array([[0, 1], [1, 2]]),
], ids=["pair", "quadruple", "ragged", "letters", "letter-sign", "two-column-array"])
def test_a_link_that_is_not_an_integer_triple_raises_parse_error(edges):
    with pytest.raises(ParseError, match=r"^links must be \(u, v, sign\) triples$"):
        SignedGraph(3, edges)


class Triple(list):
    """A link that a weak reference can watch."""


def test_the_constructor_reads_its_links_one_triple_at_a_time():
    # the links were copied into a list first, which held every triple at once
    made = []

    def links():
        for u in range(20):
            assert sum(ref() is not None for ref in made) <= 2
            link = Triple((u, u + 1, 1))
            made.append(weakref.ref(link))
            yield link

    assert SignedGraph(21, links()).num_edges == 20
    assert len(made) == 20


@pytest.mark.parametrize("signs", [[0.5, -1.9], [1.0, np.nan], [np.inf, 1], [1, -1e-9]])
def test_with_signs_refuses_a_sign_that_is_not_an_integer(signs):
    # 0.5 was cut to 0, which hid the link's sign
    with pytest.raises(ValueError, match="is not an integer$"):
        SignedGraph(3, [(0, 1, 1), (1, 2, 1)]).with_signs(signs)


@pytest.mark.parametrize("signs", [[1], [1, -1, 1]])
def test_with_signs_refuses_the_wrong_number_of_signs(signs):
    with pytest.raises(ValueError, match=f"^{len(signs)} signs for 2 links$"):
        SignedGraph(3, [(0, 1, 1), (1, 2, 1)]).with_signs(signs)


def test_with_signs_refuses_the_sign_minus_two_to_the_63():
    # it was accepted, and the graph's signs() read -9.2e18
    with pytest.raises(ParseError, match="has sign -9223372036854775808"):
        SignedGraph(3, [(0, 1, 1), (1, 2, 1)]).with_signs(np.array([-2**63, 1]))


def test_load_graph_json_makes_no_link_tuples(tmp_path):
    path = tmp_path / "g.json"
    two_community(20, 5, 0.2, seed=4).write_json(path)
    assert "edges" not in load_graph_json(path).__dict__


def test_a_graph_far_larger_than_its_links_is_checked_by_its_linked_ids():
    # pairs were keyed u * n + v, which wrapped int64 here and reported
    # "edge (12582912,12582913) outside node range"
    u = 12582912
    assert SignedGraph(2**40, [(u, u + 1, 1)]).edges == [(u, u + 1, 1)]
    with pytest.raises(ParseError, match=f"^duplicate edge \\({u},{u + 1}\\)$"):
        SignedGraph(2**40, [(u, u + 1, 1), (u, u + 1, -1)])
    # past this id even the linked ids' key would wrap
    SignedGraph(2**62, [(0, PAIR_KEY_WIDTH - 1, 1)])
    with pytest.raises(ParseError, match=f"reaches node {PAIR_KEY_WIDTH}; "):
        SignedGraph(2**62, [(0, PAIR_KEY_WIDTH, 1)])


@pytest.mark.parametrize("nodes", [[-1, 1], [1, 2, 3]])
def test_induced_subgraph_refuses_nodes_outside_the_graph(nodes):
    # -1 stood for node 2 and kept the link (1, 2); 3 raised IndexError
    with pytest.raises(ValueError, match=r"^nodes outside 0\.\.2$"):
        SignedGraph(3, [(0, 1, 1), (1, 2, -1)]).induced_subgraph(nodes)


def _reference_subgraph(g, nodes):
    """The induced subgraph rebuilt from g's link tuples."""
    nodes = sorted(set(nodes))
    remap = {old: new for new, old in enumerate(nodes)}
    edges = sorted((remap[u], remap[v], s) for u, v, s in g.edges
                   if u in remap and v in remap)
    return SignedGraph(len(nodes), edges)


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


@pytest.mark.parametrize("seed", range(8))
def test_derived_graphs_match_the_tuple_built_graph(seed):
    rng = np.random.default_rng(seed)
    base = random_signed_graph(24, density=0.12, seed=seed)
    # links out of sorted order
    shuffled = [base.edges[k] for k in rng.permutation(base.num_edges)]
    g = SignedGraph(base.n, shuffled)
    hidden = rng.choice(g.num_edges, size=g.num_edges // 3, replace=False)
    signs = rng.choice([-1, 0, 1], size=g.num_edges)
    nodes = rng.choice(g.n, size=15, replace=False)

    _same_graph(g.mask(hidden), SignedGraph(
        g.n, [(u, v, 0 if k in set(hidden.tolist()) else s) for k, (u, v, s) in enumerate(g.edges)]))
    _same_graph(g.with_signs(signs), SignedGraph(
        g.n, [(u, v, int(t)) for (u, v, _), t in zip(g.edges, signs)]))
    sub = g.induced_subgraph(nodes)
    _same_graph(sub, _reference_subgraph(g, nodes.tolist()))
    _same_graph(largest_connected_component(g), _reference_lcc(g))
    _same_graph(largest_connected_component(sub), _reference_lcc(sub))
