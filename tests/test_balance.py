import numpy as np
import pytest

from signedattack import tape as tp
from signedattack.balance import (balance_ratio, balance_ratio_terms, balance_report,
                                  graph_polarization, polarization_term,
                                  row_correlations, triad_census, triad_traces)
from signedattack.errors import MetricUndefinedError
from signedattack.fextra import link_features, wedge_index
from signedattack.graph import SignedGraph
from signedattack.pole import transition_matrix
from signedattack.tape import Tape, grad_check
from balanceoracles import (dense_balance_ratio, dense_triad_trace, oracle_graph_polarization,
                            oracle_polarization_nodes, walk_pair)
from tracedpeak import traced_units
from synthgraphs import (all_positive_triangle, complete_graph, flipped, planted_polarized,
                         random_signed_graph, two_community, two_triangles_bridge)


def census_ratio(g):
    balanced, unbalanced, _ = triad_census(g)
    total = balanced + unbalanced
    return balanced / total if total else None


def test_all_positive_triangle():
    g = all_positive_triangle()
    assert balance_ratio(g) == 1.0
    assert triad_census(g) == (1, 0, (1, 0, 0, 0))


def test_one_negative_triangle():
    g = SignedGraph(3, [(0, 1, 1), (0, 2, -1), (1, 2, 1)])
    assert balance_ratio(g) == 0.0
    assert triad_census(g) == (0, 1, (0, 1, 0, 0))


def test_all_negative_triangle():
    g = SignedGraph(3, [(0, 1, -1), (0, 2, -1), (1, 2, -1)])
    assert triad_census(g) == (0, 1, (0, 0, 0, 1))


def test_path_plus_negative_triad_traces():
    # hand computation: single triad with one negative edge
    g = SignedGraph(4, [(0, 1, 1), (1, 2, 1), (0, 2, -1), (2, 3, 1)])
    A = g.adjacency()
    assert np.trace(A @ A @ A) == -6
    assert np.trace(np.abs(A) @ np.abs(A) @ np.abs(A)) == 6
    assert balance_ratio(g) == 0.0


def test_complete_graph_k4_census():
    assert triad_census(complete_graph(4))[0] == 4


def test_no_triads_error():
    g = SignedGraph(3, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(MetricUndefinedError):
        balance_ratio(g)


@pytest.mark.parametrize("seed", range(100))
def test_trace_formula_matches_census_oracle(seed):
    full = random_signed_graph(4 + seed % 27, density=0.2, seed=seed)
    hidden = np.random.default_rng(seed).permutation(full.num_edges)[:full.num_edges // 4]
    # hidden-sign edges are 0 in A, so both forms skip triangles through them
    for g in (full, full.mask(hidden)):
        balanced, unbalanced, _ = triad_census(g)
        total = balanced + unbalanced
        report = balance_report(g)
        assert (report.total_triads, report.balanced_triads) == (total, balanced)
        if total == 0:
            assert report.T is None
            with pytest.raises(MetricUndefinedError):
                balance_ratio(g)
            continue
        # denominator identity: 2 tr(|A|^3) = 12 * total
        A_abs = np.abs(g.adjacency())
        assert np.trace(A_abs @ A_abs @ A_abs) == 6 * total
        assert balance_ratio(g) == pytest.approx(balanced / total, abs=1e-12)


@pytest.mark.parametrize("seed", range(12))
def test_wedge_traces_equal_the_dense_traces(seed):
    full = (random_signed_graph(8 + 3 * seed, density=0.3, seed=seed) if seed % 2
            else two_community(20 + 4 * seed, 6, 0.2, seed=seed))
    hidden = np.random.default_rng(seed).permutation(full.num_edges)[:full.num_edges // 4]
    for g in (full, full.mask(hidden)):
        signs, A = g.signs(), g.adjacency()
        # both traces off one feature block of the signed graph
        X = link_features(signs, wedge_index(g))
        assert triad_traces(signs, X) == (dense_triad_trace(A), dense_triad_trace(np.abs(A)))
        want = dense_balance_ratio(g)
        if want is None:
            with pytest.raises(MetricUndefinedError):
                balance_ratio(g)
        else:
            assert balance_ratio(g) == want == balance_report(g).T


def test_balance_ratio_and_degrees_build_no_dense_adjacency_and_the_report_one(monkeypatch):
    # the triad traces are wedge sums and degrees a bincount; the walks of
    # the report are the one place that builds a dense A
    g = two_community(40, 6, 0.1, seed=1).mask([0, 3, 5])
    want = balance_ratio(g), balance_report(g).to_json_dict(), g.degrees()
    scatters = []
    sym_scatter = tp.sym_scatter

    def counting(*args):
        scatters.append(args)
        return sym_scatter(*args)

    monkeypatch.setattr(tp, "sym_scatter", counting)
    assert balance_ratio(g) == want[0]
    assert np.array_equal(g.degrees(), want[2])
    assert scatters == []
    assert balance_report(g).to_json_dict() == want[1]
    assert len(scatters) == 1


def test_polarization_holds_no_float_adjacency_through_its_walks():
    # the adjacency stays an int8 copy between the two walks, so the peak is
    # the signed walk plus one walk's working set, not a float A beside them.
    # The true peak is inside the second eigh, whose LAPACK workspace (about
    # 4 units) tracemalloc cannot see, so what is live as each eigh starts
    # (the generator, then the signed walk beside it) is bounded too.
    g = two_community(500, 12, seed=0)
    assert g.n == 500
    peak, at_eigh = traced_units(lambda: graph_polarization(g, 1.0), g.n, np.linalg, "eigh")
    assert peak <= 5.5
    assert len(at_eigh) == 2
    assert at_eigh[0] <= 1.25 and at_eigh[1] <= 2.25


def test_balance_ratio_is_the_ratio_of_the_feature_block_traces():
    graphs = [two_community(40, 6, 0.1, seed=1).mask([0, 3, 5]),
              random_signed_graph(14, density=0.35, seed=5), complete_graph(6)]
    for g in graphs:
        signs = g.signs()
        traces = triad_traces(signs, link_features(signs, wedge_index(g)))
        assert balance_ratio(g) == balance_ratio_terms(*traces)


def test_balance_invariant_under_relabeling():
    g = random_signed_graph(12, density=0.4, seed=1)
    perm = np.random.default_rng(0).permutation(g.n)
    edges = sorted((min(perm[u], perm[v]), max(perm[u], perm[v]), s)
                   for u, v, s in g.edges)
    h = SignedGraph(g.n, edges)
    assert balance_ratio(h) == pytest.approx(balance_ratio(g), abs=1e-12)


def test_single_flip_changes_T_by_triad_multiple():
    g = random_signed_graph(14, density=0.35, seed=5)
    balanced, unbalanced, _ = triad_census(g)
    total = balanced + unbalanced
    t0 = balance_ratio(g)
    u, v, _ = g.edges[0]
    t1 = balance_ratio(flipped(g, u, v))
    # T moves by an integer number of triads over the total
    assert (t1 - t0) * total == pytest.approx(round((t1 - t0) * total), abs=1e-9)


def test_polarization_all_positive_is_one():
    g = complete_graph(5)
    assert balance_report(g, 1.0).pol_nodes == pytest.approx([1.0] * g.n, abs=1e-9)
    assert graph_polarization(g, 1.0) == pytest.approx(1.0, abs=1e-9)


def test_polarization_single_edge_graph():
    g = SignedGraph(2, [(0, 1, 1)])
    assert graph_polarization(g, 1.0) == pytest.approx(1.0, abs=1e-9)


def test_pearson_of_negated_vector():
    # rows: negated, identical, constant unsigned row, constant signed row
    x = np.array([0.2, 0.5, 0.1, 0.9])
    M_abs = np.array([x, x, np.ones(4), x])
    M_sign = np.array([-x, x, x, np.ones(4)])
    corr, defined = row_correlations(M_sign, M_abs)
    assert defined.tolist() == [True, True, False, False]
    assert corr[:2] == pytest.approx([-1.0, 1.0])
    assert polarization_term(M_sign, M_abs) == pytest.approx(0.0)
    with pytest.raises(MetricUndefinedError):
        polarization_term(M_sign[2:], M_abs[2:])


def test_undefined_rows_leave_the_polarization_gradient_finite():
    x = np.array([0.2, 0.5, 0.1, 0.9])
    M_abs = np.array([x, np.ones(4)])
    t = Tape()
    M = t.leaf(np.array([-x, x]))
    t.backward(polarization_term(M, M_abs))
    G = M.grad_or_zero()
    assert np.isfinite(G).all()
    assert not G[1].any()


@pytest.mark.parametrize("seed", range(12))
def test_polarization_equals_the_per_node_oracle(seed):
    full = random_signed_graph(5 + seed * 3, density=0.3, seed=seed)
    hidden = np.random.default_rng(seed).permutation(full.num_edges)[:full.num_edges // 4]
    for g in (full, full.mask(hidden), two_community(20 + seed, 5, 0.1, seed=seed)):
        nodes = oracle_polarization_nodes(g, 1.0)
        assert graph_polarization(g, 1.0) == oracle_graph_polarization(g, 1.0)
        report = balance_report(g, t=1.0)
        assert (report.pol_nodes, report.pol_graph) == (nodes, oracle_graph_polarization(g, 1.0))


def test_two_triangle_bridge_polarization_high():
    g = two_triangles_bridge()
    assert graph_polarization(g, 1.0) > 0.5


def test_polarized_beats_random_signs_on_average():
    # needs real topological communities (dense inside, sparse across);
    # with a uniform topology the two are indistinguishable
    rng = np.random.default_rng(0)
    pol, rand = [], []
    for seed in range(20):
        g = planted_polarized(20, seed=seed)
        signs = [1 if rng.random() < 0.5 else -1 for _ in g.edges]
        pol.append(graph_polarization(g, 1.0))
        rand.append(abs(graph_polarization(g.with_signs(signs), 1.0)))
    assert np.mean(pol) > np.mean(rand)


def test_report_serializes(tmp_path):
    g = two_triangles_bridge()
    rep = balance_report(g, t=1.0)
    d = rep.to_json_dict()
    assert d["total_triads"] == 2
    assert d["balanced_triads"] == 2
    assert 0 <= d["T"] <= 1


def test_balance_terms_differentiable():
    # with respect to the sign vector, hidden signs included
    g = two_community(12, 5, 0.2, seed=2).mask([1, 4])
    signs = g.signs()
    index = wedge_index(g)
    tr_abs = triad_traces(signs, link_features(signs, index))[1]

    def f(s):
        return balance_ratio_terms(triad_traces(s, link_features(s, index))[0], tr_abs)

    assert grad_check(f, signs, h=1e-5) < 1e-5


def test_polarization_term_matches_reporting_value():
    g = two_community(10, 5, 0.1, seed=3)
    term = polarization_term(*walk_pair(g, 1.0))
    assert term == oracle_graph_polarization(g, 1.0)


def test_polarization_term_gradient():
    g = two_community(8, 4, 0.2, seed=4)
    A0 = g.adjacency()
    A_abs = np.abs(A0)
    d = g.degrees()
    M_abs = transition_matrix(A_abs, d, 1.0)

    def f(v):
        M = transition_matrix(v, d, 1.0)
        return polarization_term(M, M_abs)

    edge_entries = [(u, v) for u, v, _ in g.edges]
    assert grad_check(f, A0, h=1e-5, entries=edge_entries) < 1e-3
