import sys
import warnings

import numpy as np
import pytest

from signedattack import tape as tp
from signedattack.errors import NumericError
from signedattack.fextra import lr_predict, lr_train
from signedattack.graph import DEGREE_FLOOR, EdgeSplit, SignedGraph, split_edges
from signedattack.linalg import matrix_exp
from signedattack.pole import (autocovariance, cosine_normalize, factorization_steps,
                               pole_predict, transition_matrix)
from signedattack.tape import Tape, grad_check
from synthgraphs import two_community, two_triangles_bridge
from tracedpeak import traced_peak_units


def degree_weight_matrix(degrees):
    """W = D/sum(d) - d d^T / sum(d)^2, the walk weighting of the dense oracle."""
    d = np.maximum(np.asarray(degrees, dtype=float), DEGREE_FLOOR)
    total = d.sum()
    return np.diag(d) / total - np.outer(d, d) / total ** 2


def dense_autocovariance(M, degrees):
    """The whole n x n R = M^T W M, the oracle for ``autocovariance`` at pairs;
    polymorphic over tape Values."""
    return tp.transpose(M) @ degree_weight_matrix(degrees) @ M


def all_pairs(n):
    """(us, vs) over every ordered node pair, the diagonal included, row-major."""
    return np.divmod(np.arange(n * n), n)


def walk_autocovariance(A, degrees, us, vs, t=1.0):
    """(R_uv, R_uu, R_vv) of the walk over A at Markov time t, as ``pole_predict``
    composes them."""
    return autocovariance(transition_matrix(A, degrees, t), degrees, us, vs)


def pair_cosine(R, us, vs):
    """``cosine_normalize`` of the entries (us[k], vs[k]) of a whole matrix R."""
    return cosine_normalize(R[us, vs], R[us, us], R[vs, vs])


@pytest.mark.parametrize("t", [0.0, -1.0, np.nan])
def test_transition_matrix_rejects_nonpositive_time(t):
    g = two_community(6, 3, 0.0, seed=1)
    with pytest.raises(NumericError, match="Markov time must be positive"):
        transition_matrix(g.adjacency(), g.degrees(), t)


def test_all_positive_graph_sign_equals_abs():
    g = two_community(15, 5, 0.0, seed=0).with_signs([1] * two_community(15, 5, 0.0, seed=0).num_edges)
    d = g.degrees()
    assert np.allclose(transition_matrix(g.adjacency(), d, 1.0),
                       transition_matrix(np.abs(g.adjacency()), d, 1.0))


def test_small_time_is_near_identity():
    g = two_community(6, 3, 0.0, seed=1)
    M = transition_matrix(g.adjacency(), g.degrees(), 0.001)
    assert np.abs(M - np.eye(g.n)).max() < 0.01


def test_two_node_transition_closed_form():
    g = SignedGraph(2, [(0, 1, 1)])
    M = transition_matrix(g.adjacency(), g.degrees(), 1.0)
    assert M[0, 0] == pytest.approx(np.exp(-1) * np.cosh(1), abs=1e-10)
    assert M[0, 1] == pytest.approx(np.exp(-1) * np.sinh(1), abs=1e-10)


@pytest.mark.parametrize("t", [0.5, 1.0, 3.0])
def test_unsym_transition_matches_taylor_of_row_normalized_generator(t):
    # node 0 is all-hidden, so its degree is floored and its generator row
    # scale is 1/DEGREE_FLOOR
    g = two_community(14, 5, 0.2, seed=7)
    masked = g.mask([k for k, (u, v, _) in enumerate(g.edges) if 0 in (u, v)])
    A0, d, n = masked.adjacency(), masked.degrees(), g.n
    assert d[0] == DEGREE_FLOOR
    C = np.random.default_rng(0).standard_normal((n, n))

    def taylor(v):
        return matrix_exp(tp.mul(tp.add(tp.mul(v, np.outer(1.0 / d, np.ones(n))), -np.eye(n)), t))

    def sym_grad(walk):
        tape = Tape()
        v = tape.leaf(A0)
        tape.backward(tp.sum_(walk(v) * C))
        G = v.grad_or_zero()
        return G + G.T

    assert np.abs(transition_matrix(A0, d, t) - taylor(A0)).max() < 1e-12
    got, want = sym_grad(lambda v: transition_matrix(v, d, t)), sym_grad(taylor)
    for block in (np.s_[:, :], np.s_[1:, 1:]):
        assert np.abs(got[block] - want[block]).max() < 1e-12 * np.abs(want[block]).max()


def test_weight_matrix_annihilates_ones():
    # the walk over |A| maps the ones vector to itself and w sums to 1, so
    # every row of its R sums to 0, as W of the oracle annihilates the ones
    g = two_community(12, 4, 0.1, seed=2)
    ones = np.ones(g.n)
    assert abs(ones @ degree_weight_matrix(g.degrees()) @ ones) < 1e-12
    A = np.abs(g.adjacency())
    R = walk_autocovariance(A, g.degrees(), *all_pairs(g.n))[0].reshape(g.n, g.n)
    assert np.abs(R.sum(axis=1)).max() < 1e-12


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="before CPython 3.11 the caller's frame keeps a call's arguments "
                           "alive, so the walk generator cannot be freed before the product")
def test_a_plain_walk_frees_its_generator_before_the_product():
    # A, then the generator beside Q and the eigensolver's workspace, then
    # Q, Q e^Lambda and the product once the generator is gone
    g = two_community(500, 12, seed=0)
    assert traced_peak_units(lambda: transition_matrix(g.adjacency(), g.degrees(), 1.0),
                             g.n) <= 4.5


def test_autocovariance_symmetry():
    g = two_community(10, 4, 0.2, seed=3)
    us, vs = all_pairs(g.n)
    M = transition_matrix(g.adjacency(), g.degrees(), 1.0)
    assert np.array_equal(autocovariance(M, g.degrees(), us, vs)[0],
                          autocovariance(M, g.degrees(), vs, us)[0])


def test_autocovariance_sign_equals_abs_on_positive_graph():
    g = two_community(10, 4, 0.0, seed=4)
    g = g.with_signs([1] * g.num_edges)
    d = g.degrees()
    pairs = all_pairs(g.n)
    assert np.allclose(walk_autocovariance(g.adjacency(), d, *pairs)[0],
                       walk_autocovariance(np.abs(g.adjacency()), d, *pairs)[0])


def test_two_triangle_autocovariance_sign_pattern():
    g = two_triangles_bridge()
    within = np.array([(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    cross = np.array([(u, v) for u in range(3) for v in range(3, 6)])
    A, d = g.adjacency(), g.degrees()
    assert np.all(walk_autocovariance(A, d, *within.T)[0] > 0)
    neg_cross = np.count_nonzero(walk_autocovariance(A, d, *cross.T)[0] < 0)
    assert neg_cross > len(cross) / 2


def test_autocovariance_gradient():
    g = two_community(8, 4, 0.2, seed=5)
    A0 = g.adjacency()
    d = g.degrees()
    pairs = all_pairs(g.n)
    C = np.random.default_rng(0).standard_normal(g.n * g.n)

    def f(v):
        return tp.sum_(walk_autocovariance(v, d, *pairs)[0] * C)

    entries = [(u, v) for u, v, _ in g.edges]
    assert grad_check(f, A0, h=1e-5, entries=entries) < 1e-3


def normal_init(n, d, seed):
    return np.random.default_rng(seed).standard_normal((n, d))


def test_factorize_identity_converges():
    _, curve = factorization_steps(np.eye(8), normal_init(8, 8, 0), 500, 0.01)
    assert curve[-1] < 1e-3
    assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))


def test_factorize_zero_matrix_descends():
    _, curve = factorization_steps(np.zeros((6, 6)), normal_init(6, 3, 1), 50, 0.01)
    assert curve[-1] <= curve[0]


def test_factorize_rank2_psd():
    rng = np.random.default_rng(2)
    V = rng.standard_normal((10, 2))
    R = V @ V.T
    _, curve = factorization_steps(R, normal_init(10, 2, 3), 4000, 0.005)
    assert curve[-1] < 1e-4


def test_factorization_steps_tape_matches_plain():
    rng = np.random.default_rng(4)
    R0 = rng.standard_normal((6, 6))
    R0 = 0.5 * (R0 + R0.T)
    U0 = rng.standard_normal((6, 3))
    U_plain, curve = factorization_steps(R0, U0, 20, 0.01)
    t = Tape()
    Rv = t.leaf(R0)
    U_tape, curve_t = factorization_steps(Rv, U0, 20, 0.01)
    assert np.allclose(U_plain, tp._data(U_tape))
    assert curve == curve_t


def test_cosine_normalize_exact_factorization():
    # the diagonal normalizer is the row-norm cosine of any exact factor
    rng = np.random.default_rng(5)
    U = rng.standard_normal((7, 3))
    R = U @ U.T
    us, vs = all_pairs(7)
    R_cos, P = pair_cosine(R, us, vs)
    norms = np.linalg.norm(U, axis=1)
    expect = R[us, vs] / (norms[us] * norms[vs])
    assert np.abs(R_cos[us == vs] - 1.0).max() < 1e-12
    assert np.abs(R_cos - expect).max() < 1e-12
    assert P.min() >= 0.0 and P.max() <= 1.0


def test_cosine_normalize_autocovariance_matches_eigen_factor():
    g = two_community(30, 6, 0.1, seed=8)
    M = transition_matrix(g.adjacency(), g.degrees(), 1.0)
    R = dense_autocovariance(M, g.degrees())
    w, V = np.linalg.eigh(0.5 * (R + R.T))
    U = V * np.sqrt(np.clip(w, 0.0, None))
    norms = np.linalg.norm(U, axis=1)
    us, vs = all_pairs(g.n)
    R_cos, _ = cosine_normalize(*autocovariance(M, g.degrees(), us, vs))
    assert np.abs(R_cos - (U @ U.T)[us, vs] / (norms[us] * norms[vs])).max() < 1e-6


def test_cosine_normalize_clamps_large_entries():
    R = np.array([[4.0, -9.0], [-9.0, 4.0]])
    R_cos, P = pair_cosine(R, *all_pairs(2))
    assert np.array_equal(R_cos, [1.0, -1.0, -1.0, 1.0])
    assert np.array_equal(P, [1.0, 0.0, 0.0, 1.0])


def test_cosine_normalize_zero_row_is_finite():
    R = np.array([[0.0, 0.2], [0.2, 2.0]])
    R_cos, P = pair_cosine(R, *all_pairs(2))
    assert np.all(np.isfinite(R_cos))
    assert np.all(R_cos <= 1.0) and np.all(R_cos >= -1.0)


def test_pole_predict_all_positive_training():
    g = two_community(20, 6, 0.0, seed=6)
    g = g.with_signs([1] * g.num_edges)
    split = split_edges(g, 0.2, seed=0)
    probs = pole_predict(g.mask(split.test), split, 1.0)
    assert np.all(probs > 0.5)


def test_pole_predict_two_triangle_hidden_within_edge():
    g = two_triangles_bridge()
    from signedattack.graph import EdgeSplit

    # hide one within-triangle edge -> predicted positive
    k_within = g.edge_index(0, 1)
    rest = np.array([k for k in range(g.num_edges) if k != k_within])
    split = EdgeSplit(train=rest, test=np.array([k_within]),
                      hidden_signs=np.array([1]))
    p = pole_predict(g.mask(split.test), split, 1.0)
    assert p[0] > 0.5


def test_pole_similarity_probability_two_triangle_bridge():
    # hiding the bridge leaves a single-class training set, so the logistic
    # head cannot call anything negative; the normalized similarity
    # probability still does
    g = two_triangles_bridge()
    k_bridge = g.edge_index(2, 3)
    k_within = g.edge_index(0, 1)

    def similarity_probability(masked, u, v):
        A, d = masked.adjacency(), masked.degrees()
        _, P = cosine_normalize(*walk_autocovariance(A, d, np.array([u]), np.array([v])))
        return P[0]

    assert similarity_probability(g.mask([k_bridge]), 2, 3) < 0.5
    assert similarity_probability(g.mask([k_within]), 0, 1) > 0.5


def test_all_hidden_node_warns():
    # node 5 has one link; hiding its sign leaves it without a signed link
    g = SignedGraph(6, [(0, 1, 1), (0, 2, -1), (1, 2, 1), (2, 3, 1), (3, 4, -1), (4, 5, 1)])

    def split_hiding(*links):
        test = np.array([g.edge_index(u, v) for u, v in links])
        return EdgeSplit(train=np.setdiff1d(np.arange(g.num_edges), test), test=test,
                         hidden_signs=g.signs()[test])

    split = split_hiding((4, 5))
    with pytest.warns(RuntimeWarning, match="isolated"):
        pole_predict(g.mask(split.test), split, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        split = split_hiding((0, 1), (3, 4))
        pole_predict(g.mask(split.test), split, 1.0)


def test_pole_predict_scatters_the_adjacency_at_most_twice(monkeypatch):
    calls = []
    sym_scatter = tp.sym_scatter

    def counting(*args):
        calls.append(args)
        return sym_scatter(*args)

    monkeypatch.setattr(tp, "sym_scatter", counting)
    g = two_community(40, 8, 0.1, seed=1)
    split = split_edges(g, 0.2, seed=1)
    pole_predict(g.mask(split.test), split, 1.0)
    assert 1 <= len(calls) <= 2


def separate_walks_pole_predict(g, split, t):
    """The victim with the signed and unsigned adjacencies scattered on their own, ending in
    ``lr_predict(lr_train(...))`` on the training and test rows of the pairs."""
    us, vs = g.edge_array().T
    feats = []
    for A in (g.adjacency(), np.abs(g.adjacency())):
        M = transition_matrix(A, g.degrees(), t)
        feats.append(autocovariance(M, g.degrees(), us, vs)[0])
    y_train = (g.signs()[split.train] > 0).astype(float)
    model = lr_train(np.column_stack(feats)[split.train], y_train)
    return lr_predict(model, np.column_stack(feats)[split.test])


@pytest.mark.parametrize("seed", range(3))
def test_pole_predict_equals_separately_scattered_walks(seed):
    # the same probabilities bit for bit, so the same POLE AUC rows: the
    # victims' shared head is the plain logistic fit on the pairs' rows
    g = two_community(40 + 10 * seed, 6, 0.1, seed=seed)
    split = split_edges(g, 0.2, seed=seed)
    masked = g.mask(split.test)
    assert np.array_equal(pole_predict(masked, split, 1.0),
                          separate_walks_pole_predict(masked, split, 1.0))


def oracle_graphs():
    """(name, graph) pairs: seeded clean graphs, masked ones, and one with an all-hidden node."""
    cases = []
    for seed in range(2):
        g = two_community(30 + 10 * seed, 6, 0.1, seed=seed)
        cases.append((f"clean-{seed}", g))
        cases.append((f"masked-{seed}", g.mask(split_edges(g, 0.2, seed=seed).test)))
    g = SignedGraph(6, [(0, 1, 1), (0, 2, -1), (1, 2, 1), (2, 3, 1), (3, 4, -1), (4, 5, 1)])
    cases.append(("all-hidden-node", g.mask([g.edge_index(4, 5)])))
    return cases


ORACLE_GRAPHS = oracle_graphs()


@pytest.mark.parametrize("g", [g for _, g in ORACLE_GRAPHS], ids=[n for n, _ in ORACLE_GRAPHS])
def test_autocovariance_pairs_match_the_dense_oracle(g):
    # values and sign-vector gradients through the walk of R_uv, R_uu and
    # R_vv: the links, their ends' diagonals and a few pairs that are not links
    edge, d = g.edge_array(), g.degrees()
    rng = np.random.default_rng(g.n)
    extra = rng.integers(0, g.n, (8, 2))
    us = np.concatenate([edge[:, 0], edge[:, 0], edge[:, 1], extra[:, 0]])
    vs = np.concatenate([edge[:, 1], edge[:, 0], edge[:, 1], extra[:, 1]])
    c = rng.standard_normal((3, len(us)))
    C = np.zeros((g.n, g.n))
    for ck, (a, b) in zip(c, ((us, vs), (us, us), (vs, vs))):
        np.add.at(C, (a, b), ck)

    def run(objective):
        tape = Tape()
        s = tape.leaf(g.signs())
        M = transition_matrix(tp.sym_scatter(s, *edge.T, g.n), d, 1.0)
        tape.backward(objective(M))
        return s.grad_or_zero()

    got = run(lambda M: sum(tp.sum_(r * ck) for r, ck in zip(autocovariance(M, d, us, vs), c)))
    want = run(lambda M: tp.sum_(dense_autocovariance(M, d) * C))
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    R = dense_autocovariance(transition_matrix(g.adjacency(), d, 1.0), d)
    pairs = walk_autocovariance(g.adjacency(), d, us, vs)
    for r, entries in zip(pairs, (R[us, vs], R[us, us], R[vs, vs])):
        assert np.abs(r - entries).max() <= 1e-12 * np.abs(R).max()
