"""Reverse-mode automatic differentiation over dense float64 arrays.

A :class:`Tape` records every primitive applied to values that require
gradients; ``Tape.backward`` replays the records once in reverse creation
order (which is a valid reverse topological order) and accumulates adjoints
into the leaves.  Values that do not require gradients pass through as thin
wrappers with no recording cost, so the same model code serves both the
plain forward evaluation and the attack gradient path.

``backward`` leaves the records in place. A caller that is done with the
gradients calls ``Tape.release``, as the greedy attack step does after each
flip: a tape and its nodes refer to each other, so without the release the
arrays of every step stay alive until a cyclic garbage-collection pass.

Most helpers in this module (``log``, ``relu``, ``gather`` ...) are
polymorphic: they accept either a :class:`Value` or a plain ndarray and
return the matching kind.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError


class Tape:
    """Ordered record of differentiable primitives for one loss evaluation."""

    def __init__(self):
        self._nodes = []

    def leaf(self, data, requires_grad=False) -> "Value":
        return Value(np.asarray(data, dtype=float), self, requires_grad)

    def constant(self, data) -> "Value":
        return Value(np.asarray(data, dtype=float), self, False)

    def _append(self, node):
        self._nodes.append(node)

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

    __slots__ = ("data", "tape", "requires_grad", "grad", "_vjp")

    # keep numpy from absorbing Values in mixed expressions; binary ops then
    # fall back to the reflected dunders below
    __array_ufunc__ = None

    def __init__(self, data, tape, requires_grad):
        self.data = np.asarray(data, dtype=float)
        self.tape = tape
        self.requires_grad = requires_grad
        self.grad = None
        self._vjp = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def T(self):
        return transpose(self)

    def grad_or_zero(self):
        return self.grad if self.grad is not None else np.zeros_like(self.data)

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
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

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean_(self, axis=axis, keepdims=keepdims)

    def item(self):
        return float(self.data)


def _is_value(x):
    return isinstance(x, Value)


def _data(x):
    return x.data if _is_value(x) else np.asarray(x, dtype=float)


def _tape_of(*xs):
    for x in xs:
        if _is_value(x):
            return x.tape
    return None


def _record(tape, data, vjp, needs_grad):
    out = Value(data, tape, needs_grad)
    if needs_grad and tape is not None:
        out._vjp = vjp
        tape._append(out)
    return out


def _needs(*xs):
    return any(_is_value(x) and x.requires_grad for x in xs)


def _unbroadcast(g, shape):
    """Reduce gradient ``g`` back to ``shape`` after numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, size in enumerate(shape):
        if size == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


# -- primitives --------------------------------------------------------------

def add(a, b):
    if not (_is_value(a) or _is_value(b)):
        return _data(a) + _data(b)
    ad, bd = _data(a), _data(b)
    out_data = ad + bd

    def vjp(g):
        if _is_value(a) and a.requires_grad:
            a._accumulate(_unbroadcast(g, ad.shape))
        if _is_value(b) and b.requires_grad:
            b._accumulate(_unbroadcast(g, bd.shape))

    return _record(_tape_of(a, b), out_data, vjp, _needs(a, b))


def mul(a, b):
    if not (_is_value(a) or _is_value(b)):
        return _data(a) * _data(b)
    ad, bd = _data(a), _data(b)
    out_data = ad * bd

    def vjp(g):
        if _is_value(a) and a.requires_grad:
            a._accumulate(_unbroadcast(g * bd, ad.shape))
        if _is_value(b) and b.requires_grad:
            b._accumulate(_unbroadcast(g * ad, bd.shape))

    return _record(_tape_of(a, b), out_data, vjp, _needs(a, b))


def div(a, b):
    if not (_is_value(a) or _is_value(b)):
        return _data(a) / _data(b)
    ad, bd = _data(a), _data(b)
    out_data = ad / bd

    def vjp(g):
        if _is_value(a) and a.requires_grad:
            a._accumulate(_unbroadcast(g / bd, ad.shape))
        if _is_value(b) and b.requires_grad:
            b._accumulate(_unbroadcast(-g * ad / (bd * bd), bd.shape))

    return _record(_tape_of(a, b), out_data, vjp, _needs(a, b))


def matmul(a, b):
    if not (_is_value(a) or _is_value(b)):
        return _data(a) @ _data(b)
    ad, bd = _data(a), _data(b)
    out_data = ad @ bd

    def vjp(g):
        if _is_value(a) and a.requires_grad:
            if bd.ndim == 1:
                a._accumulate(np.outer(g, bd) if ad.ndim == 2 else g * bd)
            else:
                a._accumulate(g @ bd.T if ad.ndim == 2 else bd @ g)
        if _is_value(b) and b.requires_grad:
            if ad.ndim == 1:
                b._accumulate(np.outer(ad, g) if bd.ndim == 2 else ad * g)
            else:
                b._accumulate(ad.T @ g if bd.ndim == 2 else ad.T @ g)

    return _record(_tape_of(a, b), out_data, vjp, _needs(a, b))


def transpose(a):
    if not _is_value(a):
        return _data(a).T
    out_data = a.data.T

    def vjp(g):
        if a.requires_grad:
            a._accumulate(g.T)

    return _record(a.tape, out_data, vjp, a.requires_grad)


def log(a):
    if not _is_value(a):
        return np.log(_data(a))
    out_data = np.log(a.data)

    def vjp(g):
        if a.requires_grad:
            a._accumulate(g / a.data)

    return _record(a.tape, out_data, vjp, a.requires_grad)


def exp(a):
    if not _is_value(a):
        return np.exp(_data(a))
    out_data = np.exp(a.data)

    def vjp(g):
        if a.requires_grad:
            a._accumulate(g * out_data)

    return _record(a.tape, out_data, vjp, a.requires_grad)


def sqrt(a):
    if not _is_value(a):
        return np.sqrt(_data(a))
    out_data = np.sqrt(a.data)

    def vjp(g):
        if a.requires_grad:
            a._accumulate(g * 0.5 / out_data)

    return _record(a.tape, out_data, vjp, a.requires_grad)


def relu(a):
    if not _is_value(a):
        return np.maximum(_data(a), 0.0)
    out_data = np.maximum(a.data, 0.0)
    pos = a.data > 0.0

    def vjp(g):
        if a.requires_grad:
            a._accumulate(g * pos)

    return _record(a.tape, out_data, vjp, a.requires_grad)


def sigmoid(a):
    if not _is_value(a):
        ad = _data(a)
        return 1.0 / (1.0 + np.exp(-ad))
    out_data = 1.0 / (1.0 + np.exp(-a.data))

    def vjp(g):
        if a.requires_grad:
            a._accumulate(g * out_data * (1.0 - out_data))

    return _record(a.tape, out_data, vjp, a.requires_grad)


def clamp(a, lo, hi):
    """Clip to [lo, hi]; gradient passes through strictly inside the range."""
    if not _is_value(a):
        return np.clip(_data(a), lo, hi)
    out_data = np.clip(a.data, lo, hi)
    inside = (a.data > lo) & (a.data < hi)

    def vjp(g):
        if a.requires_grad:
            a._accumulate(g * inside)

    return _record(a.tape, out_data, vjp, a.requires_grad)


def sum_(a, axis=None, keepdims=False):
    if not _is_value(a):
        return _data(a).sum(axis=axis, keepdims=keepdims)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if not a.requires_grad:
            return
        if axis is None:
            a._accumulate(np.broadcast_to(g, a.data.shape).copy())
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(gg, a.data.shape).copy())

    return _record(a.tape, out_data, vjp, a.requires_grad)


def mean_(a, axis=None, keepdims=False):
    ad = _data(a)
    if axis is None:
        denom = ad.size
    else:
        denom = ad.shape[axis]
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / denom)


def gather(a, rows, cols):
    """Pick entries a[rows[k], cols[k]] into a vector."""
    rows = np.asarray(rows, dtype=int)
    cols = np.asarray(cols, dtype=int)
    if not _is_value(a):
        return _data(a)[rows, cols]
    out_data = a.data[rows, cols]

    def vjp(g):
        if a.requires_grad:
            acc = np.zeros_like(a.data)
            np.add.at(acc, (rows, cols), g)
            a._accumulate(acc)

    return _record(a.tape, out_data, vjp, a.requires_grad)


def gather_rows(a, rows):
    rows = np.asarray(rows, dtype=int)
    if not _is_value(a):
        return _data(a)[rows]
    out_data = a.data[rows]

    def vjp(g):
        if a.requires_grad:
            acc = np.zeros_like(a.data)
            np.add.at(acc, rows, g)
            a._accumulate(acc)

    return _record(a.tape, out_data, vjp, a.requires_grad)


def bilinear_gather(p, q, us, vs):
    """Entries (p @ q)[us[k], vs[k]], one per link.

    The forward indexes the full product p @ q; the backward scatters the
    link adjoints into one dense matrix C (repeated (u, v) pairs add up)
    and accumulates C @ q^T into ``p`` and p^T @ C into ``q``. Every
    product goes to BLAS, O(n^3) per call, and no links x n temporary is
    built.
    """
    us = np.asarray(us, dtype=int)
    vs = np.asarray(vs, dtype=int)
    pd, qd = _data(p), _data(q)
    out_data = (pd @ qd)[us, vs]
    if not (_is_value(p) or _is_value(q)):
        return out_data

    def vjp(g):
        C = np.zeros((pd.shape[0], qd.shape[1]))
        np.add.at(C, (us, vs), g)
        if _is_value(p) and p.requires_grad:
            p._accumulate(C @ qd.T)
        if _is_value(q) and q.requires_grad:
            q._accumulate(pd.T @ C)

    return _record(_tape_of(p, q), out_data, vjp, _needs(p, q))


def prepend_ones(a):
    """Add an all-ones first column (the intercept)."""
    ad = _data(a)
    out_data = np.column_stack([np.ones(ad.shape[0]), ad])
    if not _is_value(a):
        return out_data

    def vjp(g):
        if a.requires_grad:
            a._accumulate(g[:, 1:])

    return _record(a.tape, out_data, vjp, a.requires_grad)


def colstack(cols):
    """Stack 1-d pieces as the columns of a matrix."""
    datas = [_data(c) for c in cols]
    out_data = np.stack(datas, axis=1)
    if not any(_is_value(c) for c in cols):
        return out_data

    def vjp(g):
        for j, c in enumerate(cols):
            if _is_value(c) and c.requires_grad:
                c._accumulate(g[:, j])

    return _record(_tape_of(*cols), out_data, vjp, _needs(*cols))


def inverse(a):
    """Matrix inverse as a recorded primitive (desk-scale solves)."""
    ad = _data(a)
    try:
        inv = np.linalg.inv(ad)
    except np.linalg.LinAlgError as e:
        raise NumericError(f"singular matrix in inverse: {e}") from e
    if not _is_value(a):
        return inv

    def vjp(g):
        if a.requires_grad:
            a._accumulate(-inv.T @ g @ inv.T)

    return _record(a.tape, inv, vjp, a.requires_grad)


def grad_check(f, x0, h=1e-5, entries=None):
    """Max relative error between tape and central-difference gradients.

    ``f`` maps a leaf Value to a scalar Value. ``entries`` optionally
    restricts the probed coordinates to a list of (i, j) index pairs;
    by default every entry of ``x0`` is probed. The relative error uses
    denominator max(|g|, 1e-8) per entry.
    """
    x0 = np.asarray(x0, dtype=float)
    tape = Tape()
    x = tape.leaf(x0, requires_grad=True)
    out = f(x)
    tape.backward(out)
    g = x.grad_or_zero()

    if entries is None:
        entries = list(np.ndindex(*x0.shape)) if x0.ndim else [()]
    worst = 0.0
    for idx in entries:
        xp = x0.copy()
        xp[idx] += h
        fp = float(_data(f(Tape().leaf(xp))))
        xm = x0.copy()
        xm[idx] -= h
        fm = float(_data(f(Tape().leaf(xm))))
        fd = (fp - fm) / (2.0 * h)
        err = abs(fd - g[idx]) / max(abs(g[idx]), 1e-8)
        worst = max(worst, err)
    return worst
