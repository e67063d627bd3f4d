import numpy as np
import pytest

from signedattack import tape as tp
from signedattack.errors import NumericError
from signedattack.graph import DEGREE_FLOOR, SignedGraph, split_edges
from signedattack.linalg import matrix_exp
from signedattack.pole import (WalkParams, autocovariance, cosine_normalize,
                               degree_weight_matrix, factorization_steps, pole_predict,
                               signed_transition, transition_matrix)
from signedattack.tape import Tape, grad_check
from synthgraphs import complete_graph, two_community, two_triangles_bridge


def cycle_graph(n, signs=None):
    signs = signs or [1] * n
    edges = sorted((min(i, (i + 1) % n), max(i, (i + 1) % n), signs[i]) for i in range(n))
    return SignedGraph(n, edges)


def test_walk_params_validation():
    with pytest.raises(NumericError):
        WalkParams(t=-1.0)
    with pytest.raises(NumericError):
        WalkParams(mode="bogus")


def test_all_positive_graph_sign_equals_abs():
    g = two_community(15, 5, 0.0, seed=0).with_signs([1] * two_community(15, 5, 0.0, seed=0).num_edges)
    p = WalkParams(t=1.0)
    assert np.allclose(signed_transition(g, p, True), signed_transition(g, p, False))


def test_small_time_is_near_identity():
    g = two_community(6, 3, 0.0, seed=1)
    M = signed_transition(g, WalkParams(t=0.001), True)
    assert np.abs(M - np.eye(g.n)).max() < 0.01


def test_two_node_transition_closed_form():
    g = SignedGraph(2, [(0, 1, 1)])
    M = signed_transition(g, WalkParams(t=1.0, mode="unsym"), True)
    assert M[0, 0] == pytest.approx(np.exp(-1) * np.cosh(1), abs=1e-10)
    assert M[0, 1] == pytest.approx(np.exp(-1) * np.sinh(1), abs=1e-10)


def test_sym_equals_unsym_on_regular_graphs():
    for n, signs in [(6, None), (8, [1, -1, 1, -1, 1, -1, 1, -1])]:
        g = cycle_graph(n, signs)
        a = signed_transition(g, WalkParams(t=1.0, mode="unsym"), True)
        b = signed_transition(g, WalkParams(t=1.0, mode="sym"), True)
        assert np.abs(a - b).max() < 1e-10


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
        v = tape.leaf(A0, requires_grad=True)
        tape.backward(tp.sum_(walk(v) * C))
        G = v.grad_or_zero()
        return G + G.T

    assert np.abs(transition_matrix(A0, d, t, "unsym") - taylor(A0)).max() < 1e-12
    got, want = sym_grad(lambda v: transition_matrix(v, d, t, "unsym")), sym_grad(taylor)
    for block in (np.s_[:, :], np.s_[1:, 1:]):
        assert np.abs(got[block] - want[block]).max() < 1e-12 * np.abs(want[block]).max()


def test_weight_matrix_annihilates_ones():
    g = two_community(12, 4, 0.1, seed=2)
    W = degree_weight_matrix(g.degrees())
    ones = np.ones(g.n)
    assert abs(ones @ W @ ones) < 1e-12


def test_autocovariance_symmetry_sym_mode():
    g = two_community(10, 4, 0.2, seed=3)
    R = autocovariance(g, WalkParams(t=1.0, mode="sym"), True)
    assert np.abs(R - R.T).max() < 1e-10


def test_autocovariance_sign_equals_abs_on_positive_graph():
    g = two_community(10, 4, 0.0, seed=4)
    g = g.with_signs([1] * g.num_edges)
    p = WalkParams(t=1.0)
    assert np.allclose(autocovariance(g, p, True), autocovariance(g, p, False))


def test_two_triangle_autocovariance_sign_pattern():
    g = two_triangles_bridge()
    R = autocovariance(g, WalkParams(t=1.0, mode="sym"), True)
    within = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    cross = [(u, v) for u in range(3) for v in range(3, 6)]
    assert all(R[u, v] > 0 for u, v in within)
    neg_cross = sum(R[u, v] < 0 for u, v in cross)
    assert neg_cross > len(cross) / 2


def test_autocovariance_gradient_sym_mode():
    g = two_community(8, 4, 0.2, seed=5)
    A0 = g.adjacency()
    d = g.degrees()
    W = degree_weight_matrix(d)
    C = np.random.default_rng(0).standard_normal((g.n, g.n))

    def f(v):
        M = transition_matrix(v, d, 1.0, "sym")
        R = tp.transpose(M) @ W @ M
        return tp.sum_(R * C)

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
    Rv = t.leaf(R0, requires_grad=True)
    U_tape, curve_t = factorization_steps(Rv, U0, 20, 0.01)
    assert np.allclose(U_plain, tp._data(U_tape))
    assert curve == curve_t


def test_cosine_normalize_exact_factorization():
    # the diagonal normalizer is the row-norm cosine of any exact factor
    rng = np.random.default_rng(5)
    U = rng.standard_normal((7, 3))
    R = U @ U.T
    R_cos, P = cosine_normalize(R)
    norms = np.linalg.norm(U, axis=1)
    expect = R / np.outer(norms, norms)
    assert np.abs(np.diag(R_cos) - 1.0).max() < 1e-12
    assert np.abs(R_cos - expect).max() < 1e-12
    assert P.min() >= 0.0 and P.max() <= 1.0


def test_cosine_normalize_autocovariance_matches_eigen_factor():
    g = two_community(30, 6, 0.1, seed=8)
    R = autocovariance(g, WalkParams(t=1.0, mode="unsym"), True)
    w, V = np.linalg.eigh(0.5 * (R + R.T))
    U = V * np.sqrt(np.clip(w, 0.0, None))
    norms = np.linalg.norm(U, axis=1)
    R_cos, _ = cosine_normalize(R)
    assert np.abs(R_cos - U @ U.T / np.outer(norms, norms)).max() < 1e-6


def test_cosine_normalize_clamps_large_entries():
    R = np.array([[4.0, -9.0], [-9.0, 4.0]])
    R_cos, P = cosine_normalize(R)
    assert np.array_equal(R_cos, [[1.0, -1.0], [-1.0, 1.0]])
    assert np.array_equal(P, [[1.0, 0.0], [0.0, 1.0]])


def test_cosine_normalize_zero_row_is_finite():
    R = np.array([[0.0, 0.2], [0.2, 2.0]])
    R_cos, P = cosine_normalize(R)
    assert np.all(np.isfinite(R_cos))
    assert np.all(R_cos <= 1.0) and np.all(R_cos >= -1.0)


def test_pole_predict_all_positive_training():
    g = two_community(20, 6, 0.0, seed=6)
    g = g.with_signs([1] * g.num_edges)
    split = split_edges(g, 0.2, seed=0)
    probs = pole_predict(g.mask(split.test), split, WalkParams(t=1.0), iters=300, seed=0)
    assert np.all(probs > 0.5)


def test_pole_predict_two_triangle_hidden_within_edge():
    g = two_triangles_bridge()
    from signedattack.graph import EdgeSplit

    # hide one within-triangle edge -> predicted positive
    k_within = g.edge_index(0, 1)
    rest = np.array([k for k in range(g.num_edges) if k != k_within])
    split = EdgeSplit(train=rest, test=np.array([k_within]),
                      hidden_signs=np.array([1]))
    p = pole_predict(g.mask(split.test), split, WalkParams(t=1.0), iters=500, seed=0)
    assert p[0] > 0.5


def test_pole_similarity_probability_two_triangle_bridge():
    # hiding the bridge leaves a single-class training set, so the logistic
    # head cannot call anything negative; the normalized similarity
    # probability still does
    g = two_triangles_bridge()
    k_bridge = g.edge_index(2, 3)
    k_within = g.edge_index(0, 1)

    masked = g.mask([k_bridge])
    R = autocovariance(masked, WalkParams(t=1.0, mode="sym"), True)
    _, P = cosine_normalize(R)
    assert P[2, 3] < 0.5

    masked = g.mask([k_within])
    R = autocovariance(masked, WalkParams(t=1.0, mode="sym"), True)
    _, P = cosine_normalize(R)
    assert P[0, 1] > 0.5
