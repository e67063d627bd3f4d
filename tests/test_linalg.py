import numpy as np
import pytest

from signedattack import linalg
from signedattack import tape as tp
from signedattack.errors import NumericError
from signedattack.linalg import matrix_exp, sym_eig, sym_matrix_exp, truncated_svd
from signedattack.tape import Tape, grad_check


def test_sym_eig_identity():
    lam, Q = sym_eig(np.eye(3))
    assert np.allclose(lam, np.ones(3))
    assert np.allclose(Q @ Q.T, np.eye(3))


def test_sym_eig_swap_matrix():
    lam, Q = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(lam, [-1.0, 1.0])
    r2 = 1.0 / np.sqrt(2.0)
    assert np.allclose(Q[:, 0], [r2, -r2])
    assert np.allclose(Q[:, 1], [r2, r2])


@pytest.mark.parametrize("seed", range(4))
def test_sym_eig_reconstruction(seed):
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((8, 8))
    S = 0.5 * (S + S.T)
    lam, Q = sym_eig(S)
    assert np.abs(Q.T @ Q - np.eye(8)).max() < 1e-8
    assert np.abs((Q * lam) @ Q.T - S).max() < 1e-7 * np.abs(S).max()


def test_matrix_exp_zero_and_diagonal():
    assert np.allclose(matrix_exp(np.zeros((3, 3))), np.eye(3))
    got = matrix_exp(np.diag([1.0, -1.0]))
    assert np.allclose(got, np.diag([np.e, 1.0 / np.e]), atol=1e-12)


def test_matrix_exp_two_node_walk():
    # generator -(I - D^-1 A) for one positive edge: D = I, closed form
    gen = -(np.eye(2) - np.array([[0.0, 1.0], [1.0, 0.0]]))
    M = matrix_exp(gen)
    assert abs(M[0, 0] - np.exp(-1) * np.cosh(1)) < 1e-10
    assert abs(M[0, 1] - np.exp(-1) * np.sinh(1)) < 1e-10


@pytest.mark.parametrize("seed", range(3))
def test_sym_matrix_exp_agrees_with_taylor(seed):
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((6, 6))
    S = 0.5 * (S + S.T)
    assert np.abs(sym_matrix_exp(S) - matrix_exp(S)).max() < 1e-8


def test_sym_matrix_exp_trace_gradient_identity():
    # d tr(exp(S)) / dS = exp(S)^T for symmetric S
    rng = np.random.default_rng(11)
    S = rng.standard_normal((5, 5))
    S = 0.5 * (S + S.T)
    t = Tape()
    s = t.leaf(S)
    t.backward(tp.sum_(sym_matrix_exp(s) * np.eye(5)))
    assert np.abs(s.grad - sym_matrix_exp(S).T).max() < 1e-6


@pytest.mark.parametrize("seed", range(5))
def test_sym_matrix_exp_finite_difference(seed):
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((5, 5))
    S = 0.5 * (S + S.T)
    C = rng.standard_normal((5, 5))

    def f(v):
        return tp.sum_(sym_matrix_exp(v) * C)

    assert grad_check(f, S, h=1e-5) < 1e-4


def test_sym_matrix_exp_degenerate_eigenvalues():
    # repeated eigenvalues hit the divided-difference limit branch
    S = np.diag([2.0, 2.0, -1.0])
    C = np.arange(9.0).reshape(3, 3)

    def f(v):
        return tp.sum_(sym_matrix_exp(v) * C)

    assert grad_check(f, S, h=1e-6) < 1e-4


def exp_and_vjp(S, C):
    """sym_matrix_exp(S) and the gradient of sum(sym_matrix_exp(S) * C) off one tape."""
    t = Tape()
    s = t.leaf(S)
    out = sym_matrix_exp(s)
    t.backward(tp.sum_(out * C))
    return tp._data(out), s.grad


def degenerate(seed):
    # eigenvalues 2, 2, 2, -1, -1, 0.5 in a seeded orthonormal basis
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((6, 6)))
    return (Q * [2.0, 2.0, 2.0, -1.0, -1.0, 0.5]) @ Q.T


@pytest.mark.parametrize("S", [degenerate(0), degenerate(1)]
                         + [np.random.default_rng(seed).standard_normal((n, n))
                            for seed, n in ((0, 5), (1, 12), (2, 40))],
                         ids=["degenerate-0", "degenerate-1", "n5", "n12", "n40"])
def test_sym_matrix_exp_equals_the_sign_fixed_eigenbasis_bit_for_bit(monkeypatch, S):
    # the eigenvector sign fix of sym_eig changes neither the exponential nor its adjoint
    S = 0.5 * (S + S.T)
    C = np.random.default_rng(7).standard_normal(S.shape)
    got = exp_and_vjp(S, C)
    lam, Q = sym_eig(S)
    assert not np.array_equal(Q, linalg._eigh(S)[1])  # the fix flips some eigenvector
    monkeypatch.setattr(linalg, "_eigh", lambda _: (lam, Q))
    want = exp_and_vjp(S, C)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_matrix_exp_gradient_on_tape():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 4)) * 0.8
    C = rng.standard_normal((4, 4))

    def f(v):
        return tp.sum_(matrix_exp(v) * C)

    assert grad_check(f, A, h=1e-5) < 1e-4


def test_truncated_svd_diagonal():
    U, s, V = truncated_svd(np.diag([3.0, 2.0, 1.0]), 2)
    assert np.allclose(s, [3.0, 2.0])


def test_truncated_svd_zero_matrix():
    U, s, V = truncated_svd(np.zeros((4, 4)), 2)
    assert np.allclose(s, 0.0)
    assert np.allclose(U.T @ U, np.eye(2))


@pytest.mark.parametrize("seed", range(3))
def test_truncated_svd_matches_gram_eig_oracle(seed):
    # oracle: singular values are sqrt eigenvalues of A^T A
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((20, 20))
    _, s, _ = truncated_svd(A, 5)
    lam = np.sort(sym_eig(A.T @ A)[0])[::-1]
    assert np.abs(s - np.sqrt(lam[:5])).max() < 1e-8
    assert np.all(np.diff(s) <= 1e-12)


def test_truncated_svd_column_residual():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((12, 12))
    U, s, V = truncated_svd(A, 4)
    res = A @ V - U * s
    assert np.abs(res).max() < 1e-6 * s[0]


def test_sym_eig_of_a_nan_matrix_raises_numeric_error():
    with pytest.raises(NumericError, match="^eigendecomposition failed"):
        sym_eig(np.full((3, 3), np.nan))
