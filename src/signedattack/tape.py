"""Reverse-mode automatic differentiation over dense float64 arrays.

A :class:`Tape` records every primitive applied to its values, each of
which is differentiable; ``Tape.backward`` replays the records once in
reverse creation order (which is a valid reverse topological order) and
accumulates adjoints into the leaves. Plain arrays are constants and record
nothing, so the same model code serves both the plain forward evaluation
and the attack gradient path.

Every node is recorded by ``_apply``, the one recording rule: a forward
over the inputs' arrays plus one adjoint per input, reduced to that input's
shape. Given only plain ndarrays it returns the plain result, so the
primitives are polymorphic. ``sym_scatter`` builds a dense symmetric matrix
from one value per link, which is how the attacks and
``SignedGraph.adjacency`` turn a sign vector into A. The other primitives
are ``add``, ``mul``, ``div``, ``matmul``, ``transpose``, ``sqrt``,
``sigmoid``, ``clamp``, ``sum_``, ``gather_rows`` and ``prepend_ones``; the
POLE autocovariance reads the pairs' columns of a walk as two ``gather_rows``
(one per end) of one ``transpose``. The adjoint of ``gather_rows`` adds repeated rows up with
``np.bincount`` over row-major flat indices, which sums in index order as
``np.add.at`` does but without its per-element overhead.

Six ``_apply`` nodes live outside this module, each a whole stage that
would otherwise be a chain of small nodes: ``fextra.link_features`` (the
feature map), ``fextra.logistic_theta`` (the converged fit, whose adjoint
solves with the Hessian at the optimum), ``pole.transition_matrix``'s walk
generator (built in place in one array), ``linalg.sym_matrix_exp`` (the
symmetrization and the exponential, whose adjoint works in the eigenbasis),
``attacks._log_likelihood`` (the clipped log-likelihood) and
``attacks._ols_log_likelihood`` (the ``fextra-ols`` surrogate from the
feature block to the log-likelihood). Their adjoints add terms in the order
the composite's backward would, so gradients match it bit for bit.

``backward`` leaves the records in place. A caller that is done with the
gradients calls ``Tape.release``, as the greedy attack step does after each
flip: a tape and its nodes refer to each other, so without the release the
arrays of every step stay alive until a cyclic garbage-collection pass.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError


class Tape:
    """Ordered record of differentiable primitives for one loss evaluation."""

    def __init__(self):
        self._nodes = []

    def leaf(self, data) -> "Value":
        return Value(np.asarray(data, dtype=float), self)

    def __len__(self):
        return len(self._nodes)

    def release(self):
        """Drop the recorded nodes once their gradients have been read.

        Every recorded Value refers back to its tape, so a tape holding its
        nodes is a reference cycle that only the cyclic garbage collector
        frees; releasing it lets reference counting free the arrays at once.
        ``backward`` keeps the nodes, so they can still be inspected after it.
        """
        self._nodes = []

    def backward(self, loss: "Value"):
        """Accumulate d(loss)/d(leaf) into each leaf's ``.grad``.

        ``loss`` must be scalar. Each recorded node is visited exactly once,
        in reverse order of creation; inputs that never influenced the loss
        keep a zero gradient.
        """
        if loss.data.ndim != 0 and loss.data.size != 1:
            raise NumericError("backward requires a scalar loss")
        loss.grad = np.ones_like(loss.data)
        for node in reversed(self._nodes):
            if node.grad is None or node._vjp is None:
                continue
            node._vjp(node.grad)


class Value:
    """Array-valued node, either a leaf or the output of a primitive."""

    __slots__ = ("data", "tape", "grad", "_vjp")

    # keep numpy from absorbing Values in mixed expressions; binary ops then
    # fall back to the reflected dunders below
    __array_ufunc__ = None

    def __init__(self, data, tape):
        self.data = np.asarray(data, dtype=float)
        self.tape = tape
        self.grad = None
        self._vjp = None

    def grad_or_zero(self):
        return self.grad if self.grad is not None else np.zeros_like(self.data)

    def _accumulate(self, g):
        if self.grad is None:
            # a fresh array equal to 0 + g, signed zeros included; it also
            # copies read-only broadcast views
            self.grad = g + 0.0
        else:
            self.grad += g

    # -- operator sugar -----------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)


def _is_value(x):
    return isinstance(x, Value)


def _data(x):
    return x.data if _is_value(x) else np.asarray(x, dtype=float)


def _unbroadcast(g, shape):
    """Reduce gradient ``g`` back to ``shape`` after numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, size in enumerate(shape):
        if size == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def _apply(forward, vjps, *args):
    """Run ``forward`` on the inputs' arrays; record it if any input is a Value.

    ``vjps[i](g, out, *datas)`` maps the output adjoint, output array and
    input arrays to input i's adjoint. The closure holds the output array,
    not its Value, so a released tape leaves no reference cycle.
    """
    datas = [_data(x) for x in args]
    out = forward(*datas)
    tape = next((x.tape for x in args if _is_value(x)), None)
    if tape is None:
        return out

    def vjp(g):
        for x, d, rule in zip(args, datas, vjps):
            if _is_value(x):
                x._accumulate(_unbroadcast(rule(g, out, *datas), d.shape))

    node = Value(out, tape)
    node._vjp = vjp
    tape._nodes.append(node)
    return node


# -- primitives --------------------------------------------------------------

def add(a, b):
    return _apply(np.add, (lambda g, o, a, b: g, lambda g, o, a, b: g), a, b)


def mul(a, b):
    return _apply(np.multiply, (lambda g, o, a, b: g * b, lambda g, o, a, b: g * a), a, b)


def div(a, b):
    return _apply(np.divide, (lambda g, o, a, b: g / b,
                              lambda g, o, a, b: -g * a / (b * b)), a, b)


def _matmul_da(g, out, a, b):
    if b.ndim == 1:
        return np.outer(g, b) if a.ndim == 2 else g * b
    return g @ b.T if a.ndim == 2 else b @ g


def _matmul_db(g, out, a, b):
    if a.ndim == 1:
        return np.outer(a, g) if b.ndim == 2 else a * g
    return a.T @ g


def matmul(a, b):
    return _apply(np.matmul, (_matmul_da, _matmul_db), a, b)


def transpose(a):
    return _apply(np.transpose, (lambda g, o, a: g.T,), a)


def sqrt(a):
    return _apply(np.sqrt, (lambda g, o, a: g * 0.5 / o,), a)


def sigmoid(a):
    return _apply(lambda a: 1.0 / (1.0 + np.exp(-a)),
                  (lambda g, o, a: g * o * (1.0 - o),), a)


def clamp(a, lo, hi):
    """Clip to [lo, hi]; gradient passes through strictly inside the range."""
    return _apply(lambda a: np.clip(a, lo, hi),
                  (lambda g, o, a: g * ((a > lo) & (a < hi)),), a)


def sum_(a, axis=None, keepdims=False):
    def vjp(g, out, a):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, a.shape)

    return _apply(lambda a: a.sum(axis=axis, keepdims=keepdims), (vjp,), a)


def _nonnegative(index):
    """``index`` as an int array; a negative entry is rejected, not wrapped."""
    index = np.asarray(index, dtype=int)
    if index.size and index.min() < 0:
        raise IndexError(f"negative row index {index.min()}")
    return index


def _scatter(g, flat, shape):
    """Adjoints ``g`` added up at the row-major positions ``flat`` of an array of ``shape``.

    ``bincount`` adds in index order from +0.0, as ``np.add.at`` does, so a
    repeated position gets the same sum bit for bit.
    """
    return np.bincount(flat, weights=g.ravel(), minlength=int(np.prod(shape))).reshape(shape)


def gather_rows(a, rows):
    """Pick rows a[rows[k]] (entries, for a vector) in order."""
    rows = _nonnegative(rows)

    def vjp(g, out, a):
        width = int(np.prod(a.shape[1:]))  # 1 for a vector
        return _scatter(g, (rows[:, None] * width + np.arange(width)).ravel(), a.shape)

    return _apply(lambda a: a[rows], (vjp,), a)


def sym_scatter(a, us, vs, n):
    """The symmetric n x n matrix with out[us[k], vs[k]] = out[vs[k], us[k]] = a[k].

    Every other entry is 0. The pairs must be distinct and off the diagonal,
    as the links of a graph are; the adjoint of a[k] is g[us[k], vs[k]] +
    g[vs[k], us[k]].
    """
    us = np.asarray(us, dtype=int)
    vs = np.asarray(vs, dtype=int)

    def forward(a):
        out = np.zeros((n, n))
        out[us, vs] = a
        out[vs, us] = a
        return out

    return _apply(forward, (lambda g, o, a: g[us, vs] + g[vs, us],), a)


def prepend_ones(a):
    """Add an all-ones first column (the intercept)."""
    return _apply(lambda a: np.column_stack([np.ones(a.shape[0]), a]),
                  (lambda g, o, a: g[:, 1:],), a)


def grad_check(f, x0, h=1e-5, entries=None):
    """Max relative error between tape and central-difference gradients.

    ``f`` maps a leaf Value to a scalar Value; the central differences call
    it on plain arrays, which record nothing. ``entries`` optionally restricts
    the probed coordinates to a list of index tuples of ``x0``; by default
    every entry of ``x0`` is probed. The relative error uses denominator
    max(|g|, 1e-8) per entry.
    """
    x0 = np.asarray(x0, dtype=float)
    tape = Tape()
    x = tape.leaf(x0)
    out = f(x)
    tape.backward(out)
    g = x.grad_or_zero()

    if entries is None:
        entries = list(np.ndindex(*x0.shape)) if x0.ndim else [()]
    worst = 0.0
    for idx in entries:
        xp = x0.copy()
        xp[idx] += h
        fp = float(_data(f(xp)))
        xm = x0.copy()
        xm[idx] -= h
        fm = float(_data(f(xm)))
        fd = (fp - fm) / (2.0 * h)
        err = abs(fd - g[idx]) / max(abs(g[idx]), 1e-8)
        worst = max(worst, err)
    return worst
