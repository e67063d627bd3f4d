import inspect

import numpy as np
import pytest

from signedattack import tape as tp
from signedattack.errors import NumericError
from signedattack.fextra import logistic_theta
from signedattack.linalg import sym_matrix_exp
from signedattack.tape import Tape, grad_check
from densefeatures import bilinear_gather, colstack, inverse, log, relu, segment_sum


def mean_(a, axis=None, keepdims=False):
    """Mean over ``axis`` as a composite of ``tape.sum_`` and ``tape.mul``."""
    ad = tp._data(a)
    denom = ad.size if axis is None else ad.shape[axis]
    return tp.mul(tp.sum_(a, axis=axis, keepdims=keepdims), 1.0 / denom)


def test_sum_of_entries_gradient_is_ones():
    t = Tape()
    x = t.leaf(np.arange(6.0).reshape(2, 3))
    t.backward(tp.sum_(x))
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_grad_check_sum_exact():
    err = grad_check(lambda v: tp.sum_(v), np.random.default_rng(0).standard_normal((3, 3)))
    assert err < 1e-10


def test_grad_check_trace_cube():
    # d tr(X^3) / dX = 3 (X^2)^T
    X = np.random.default_rng(1).standard_normal((5, 5))
    t = Tape()
    x = t.leaf(X)
    t.backward(tp.sum_((x @ x) * tp.transpose(x)))
    assert np.allclose(x.grad, 3.0 * (X @ X).T)
    assert grad_check(lambda v: tp.sum_((v @ v) * tp.transpose(v)), X) < 1e-6


def test_unused_input_gradient_is_zero():
    t = Tape()
    x = t.leaf(np.ones((2, 2)))
    y = t.leaf(np.ones((2, 2)))
    t.backward(tp.sum_(x * x))
    assert np.array_equal(y.grad_or_zero(), np.zeros((2, 2)))


def test_backward_requires_scalar():
    t = Tape()
    x = t.leaf(np.ones((2, 2)))
    with pytest.raises(NumericError):
        t.backward(x * 2.0)


def test_constants_are_not_recorded():
    # every primitive accepts plain arrays, computes on them and records nothing
    t = Tape()
    a = np.ones((3, 3))
    out = tp.sigmoid(tp.matmul(a, a) * 2.0 + 1.0)
    assert not tp._is_value(out) and out.shape == (3, 3)
    assert len(t) == 0


@pytest.mark.parametrize("seed", range(5))
def test_grad_check_composite_ops(seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((4, 4))
    W = rng.standard_normal((4, 4))

    def f(v):
        h = relu(v @ W)
        s = tp.sigmoid(h - 0.3)
        return tp.sum_(log(s + 1.5) * 0.7) + mean_(v * v)

    assert grad_check(f, X) < 1e-4


def test_matmul_vector_cases():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((3, 4))
    x = rng.standard_normal(4)

    def f(v):
        return tp.sum_((v @ x) * (v @ x))

    assert grad_check(f, A) < 1e-5

    def g(v):
        return tp.sum_(A @ v)

    assert grad_check(g, x) < 1e-6


def test_gather_and_bilinear_gather():
    rng = np.random.default_rng(3)
    P = rng.standard_normal((5, 5))
    Q = rng.standard_normal((5, 5))
    us = np.array([0, 1, 2, 4])
    vs = np.array([3, 3, 0, 1])
    got = bilinear_gather(P, Q, us, vs)
    assert np.allclose(got, (P @ Q)[us, vs])

    def f(v):
        return tp.sum_(bilinear_gather(v, Q, us, vs) * np.array([1.0, -2.0, 0.5, 3.0]))

    assert grad_check(f, P) < 1e-5


def _row_scatter_vjp(P, Q, us, vs, g):
    """The former bilinear_gather backward: row-wise scatters of K x n blocks."""
    gp = np.zeros_like(P)
    np.add.at(gp, us, g[:, None] * Q[:, vs].T)
    gq = np.zeros_like(Q)
    np.add.at(gq.T, vs, g[:, None] * P[us, :])
    return gp, gq


def test_bilinear_gather_rectangular_with_repeated_pair():
    rng = np.random.default_rng(8)
    P = rng.standard_normal((4, 6))
    Q = rng.standard_normal((6, 3))
    us = np.array([0, 3, 1, 3, 2])
    vs = np.array([2, 0, 1, 0, 2])  # (3, 0) appears twice
    w = np.array([1.0, -2.0, 0.5, 3.0, -0.7])
    assert np.allclose(bilinear_gather(P, Q, us, vs), (P @ Q)[us, vs])

    t = Tape()
    p, q = t.leaf(P), t.leaf(Q)
    t.backward(tp.sum_(bilinear_gather(p, q, us, vs) * w))
    gp, gq = _row_scatter_vjp(P, Q, us, vs, w)
    assert np.allclose(p.grad, gp, rtol=1e-13, atol=1e-13)
    assert np.allclose(q.grad, gq, rtol=1e-13, atol=1e-13)

    assert grad_check(lambda v: tp.sum_(bilinear_gather(v, Q, us, vs) * w), P) < 1e-6
    assert grad_check(lambda v: tp.sum_(bilinear_gather(P, v, us, vs) * w), Q) < 1e-6


def test_bilinear_gather_same_value_on_both_sides():
    # the dense feature map passes A_plus as both operands
    rng = np.random.default_rng(9)
    X = rng.standard_normal((5, 5))
    us = np.array([0, 1, 4, 1, 2])
    vs = np.array([3, 3, 0, 3, 2])  # (1, 3) appears twice
    w = np.array([1.0, -2.0, 0.5, 3.0, 1.5])

    def f(v):
        return tp.sum_(bilinear_gather(v, v, us, vs) * w)

    t = Tape()
    x = t.leaf(X)
    t.backward(f(x))
    gp, gq = _row_scatter_vjp(X, X, us, vs, w)
    assert np.allclose(x.grad, gp + gq, rtol=1e-13, atol=1e-13)
    assert grad_check(f, X) < 1e-6


def test_backward_keeps_nodes_until_release():
    t = Tape()
    x = t.leaf(np.arange(4.0).reshape(2, 2))
    t.backward(tp.sum_(x @ x))
    assert len(t) == 2
    t.release()
    assert len(t) == 0
    assert np.array_equal(x.grad, np.array([[3.0, 7.0], [5.0, 9.0]]))


def test_clamp_gradient_masks_outside():
    t = Tape()
    x = t.leaf(np.array([-2.0, 0.0, 2.0]))
    t.backward(tp.sum_(tp.clamp(x, -1.0, 1.0)))
    assert np.array_equal(x.grad, np.array([0.0, 1.0, 0.0]))


def test_inverse_primitive_gradient():
    M = np.random.default_rng(4).standard_normal((4, 4)) + 4.0 * np.eye(4)
    C = np.random.default_rng(7).standard_normal((4, 4))

    def f(v):
        return tp.sum_(inverse(v) * C)

    assert grad_check(f, M) < 1e-5


def test_broadcasting_backward():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((4, 3))

    def f(v):
        centered = v - mean_(v, axis=1, keepdims=True)
        return tp.sum_(centered * centered)

    assert grad_check(f, X) < 1e-5


def test_prepend_ones():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((5, 2))

    def f(v):
        Z = tp.prepend_ones(v)
        return tp.sum_(Z * np.arange(15.0).reshape(5, 3))

    assert grad_check(f, X) < 1e-6


def test_reverse_pass_visits_each_node_once():
    # mul-by-2 via self-addition: adjoints would double if visited twice
    t = Tape()
    x = t.leaf(np.array([3.0]))
    y = x + x
    z = tp.sum_(y * y)
    t.backward(z)
    assert np.allclose(x.grad, 8.0 * x.data)


def test_the_logistic_fit_and_the_exponential_each_record_one_node():
    # the exponential recorded its input's symmetrization as three more nodes
    rng = np.random.default_rng(2)
    Z = np.column_stack([np.ones(12), rng.standard_normal((12, 3))])
    y = (rng.standard_normal(12) > 0).astype(float)
    S = rng.standard_normal((5, 5))
    for fused, x0, rest in ((logistic_theta, Z, (y,)), (sym_matrix_exp, S, ())):
        t = Tape()
        fused(t.leaf(x0), *rest)
        assert len(t) == 1, fused.__name__


# -- per-primitive adjoint table ----------------------------------------------

_rng = np.random.default_rng(11)
_A = _rng.standard_normal((3, 4))
_B = _rng.standard_normal((4, 2))
_x4 = _rng.standard_normal(4)
_x3 = _rng.standard_normal(3)
_pos = _rng.uniform(0.5, 2.0, (3, 4))
_row = _rng.uniform(0.5, 2.0, (1, 4))
_col = _rng.uniform(0.5, 2.0, (3, 1))
_M = _rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
_kinked = np.array([[-2.0, -0.5, 0.3, 0.8], [2.5, -1.5, 0.6, -0.2]])
_rows = np.array([0, 2, 0, 1])  # row 0 twice
_c5 = _rng.standard_normal(5)
_groups = np.array([0, 2, 0, 3])  # group 0 twice, group 1 empty, groups 4-5 trailing
_v5 = _rng.standard_normal(5)
_us = np.array([0, 2, 1])  # distinct off-diagonal pairs of a 4-node graph
_vs = np.array([1, 3, 3])


def _sym(x):
    out = np.zeros((4, 4))
    for a, u, v in zip(x, _us, _vs):
        out[u, v] = out[v, u] = a
    return out


def _inv(x):
    return np.linalg.inv(x)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


# (primitive, case id, op over one operand, numpy reference, operand value)
ADJOINT_CASES = [
    ("add", "full", lambda x: tp.add(x, _A), lambda x: x + _A, _pos),
    ("add", "row-broadcast", lambda x: tp.add(_A, x), lambda x: _A + x, _row),
    ("mul", "full", lambda x: tp.mul(x, _A), lambda x: x * _A, _pos),
    ("mul", "col-broadcast", lambda x: tp.mul(_A, x), lambda x: _A * x, _col),
    ("div", "numerator", lambda x: tp.div(x, _pos), lambda x: x / _pos, _A),
    ("div", "denominator", lambda x: tp.div(_A, x), lambda x: _A / x, _pos),
    ("div", "row-denominator", lambda x: tp.div(_A, x), lambda x: _A / x, _row),
    ("div", "col-denominator", lambda x: tp.div(_A, x), lambda x: _A / x, _col),
    ("div", "scalar-denominator", lambda x: tp.div(_A, x), lambda x: _A / x, np.array(1.7)),
    ("matmul", "left", lambda x: tp.matmul(x, _B), lambda x: x @ _B, _A),
    ("matmul", "right", lambda x: tp.matmul(_A, x), lambda x: _A @ x, _B),
    ("matmul", "matrix-vector-left", lambda x: tp.matmul(x, _x4), lambda x: x @ _x4, _A),
    ("matmul", "matrix-vector-right", lambda x: tp.matmul(_A, x), lambda x: _A @ x, _x4),
    ("matmul", "vector-matrix-left", lambda x: tp.matmul(x, _A), lambda x: x @ _A, _x3),
    ("matmul", "vector-matrix-right", lambda x: tp.matmul(_x3, x), lambda x: _x3 @ x, _A),
    ("transpose", "matrix", tp.transpose, lambda x: x.T, _A),
    ("log", "positive", log, np.log, _pos),
    ("sqrt", "positive", tp.sqrt, np.sqrt, _pos),
    ("relu", "both-signs", relu, lambda x: np.maximum(x, 0.0), _kinked),
    ("sigmoid", "matrix", tp.sigmoid, _sigmoid, _A),
    ("clamp", "both-sides", lambda x: tp.clamp(x, -1.0, 1.0),
     lambda x: np.clip(x, -1.0, 1.0), _kinked),
    ("sum_", "axis0", lambda x: tp.sum_(x, axis=0), lambda x: x.sum(axis=0), _A),
    ("sum_", "axis1", lambda x: tp.sum_(x, axis=1), lambda x: x.sum(axis=1), _A),
    ("sum_", "axis0-keepdims", lambda x: tp.sum_(x, axis=0, keepdims=True),
     lambda x: x.sum(axis=0, keepdims=True), _A),
    ("sum_", "axis1-keepdims", lambda x: tp.sum_(x, axis=1, keepdims=True),
     lambda x: x.sum(axis=1, keepdims=True), _A),
    ("mean_", "axis1-keepdims", lambda x: mean_(x, axis=1, keepdims=True),
     lambda x: x.sum(axis=1, keepdims=True) * (1.0 / x.shape[1]), _A),
    ("gather_rows", "repeated-row", lambda x: tp.gather_rows(x, _rows),
     lambda x: x[_rows], _A),
    ("sym_scatter", "three-links", lambda x: tp.sym_scatter(x, _us, _vs, 4), _sym, _x3),
    ("segment_sum", "repeated-empty-trailing", lambda x: segment_sum(x, _groups, 6),
     lambda x: np.array([x[0] + x[2], 0.0, x[1], x[3], 0.0, 0.0]), _x4),
    ("prepend_ones", "matrix", tp.prepend_ones,
     lambda x: np.column_stack([np.ones(x.shape[0]), x]), _B),
    ("colstack", "one-plain-column", lambda x: colstack([x, _c5, x]),
     lambda x: np.stack([x, _c5, x], axis=1), _v5),
    ("inverse", "well-conditioned", inverse, _inv, _M),
]


@pytest.mark.parametrize("name, case, op, ref, x0", ADJOINT_CASES,
                         ids=[f"{name}-{case}" for name, case, *_ in ADJOINT_CASES])
def test_primitive_adjoint(name, case, op, ref, x0):
    plain = op(x0)
    assert isinstance(plain, np.ndarray)
    assert np.array_equal(plain, ref(x0))
    # a random cotangent probes every output entry with its own weight
    w = np.random.default_rng(12).standard_normal(plain.shape)
    assert grad_check(lambda v: tp.sum_(op(v) * w), x0) < 1e-6


def test_every_public_primitive_has_an_adjoint_check():
    public = {name for name, fn in inspect.getmembers(tp, inspect.isfunction)
              if fn.__module__ == tp.__name__ and not name.startswith("_")}
    checked = {name for name, *_ in ADJOINT_CASES} | {"grad_check"}
    assert public - checked == set()


# -- gather adjoints against the np.add.at scatter ------------------------------

def add_at_scatter(a, index, g):
    """The former ``gather_rows`` adjoint: ``np.add.at`` into zeros, then accumulated fresh."""
    acc = np.zeros_like(a)
    np.add.at(acc, index, g)
    return acc + 0.0


def _gather_grad(op, x0, w):
    t = Tape()
    x = t.leaf(x0)
    t.backward(tp.sum_(op(x) * w))
    return x.grad_or_zero()


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("count", [0, 1, 40])
def test_gather_adjoints_equal_the_add_at_scatter(seed, count):
    # a few distinct positions drawn many times, so each sum depends on the order
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((4, 3))
    v = rng.standard_normal(5)
    rows = rng.integers(0, 4, count)
    picks = rng.integers(0, 5, count)

    w = rng.standard_normal(count)
    assert np.array_equal(_gather_grad(lambda x: tp.gather_rows(x, picks), v, w),
                          add_at_scatter(v, picks, w))
    w2 = rng.standard_normal((count, 3))
    assert np.array_equal(_gather_grad(lambda x: tp.gather_rows(x, rows), M, w2),
                          add_at_scatter(M, rows, w2))


def test_gather_rejects_negative_indices():
    M = np.zeros((3, 3))
    with pytest.raises(IndexError):
        tp.gather_rows(Tape().leaf(M), [2, -1])
