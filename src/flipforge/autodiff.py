"""Dense double-precision tensors with a reverse-mode tape, plus Adam.

Small by design: the networks built on top have a few hundred thousand
parameters at most, and all execution is deterministic single-threaded numpy.
Ops work with or without a tape; calling them on plain (untaped) tensors is
the fast path used during rollouts.

Each op records one vector-Jacobian product that returns the gradients of all
its taped inputs at once, so fused ops (``linear``, ``pair_linear``,
``group_max``) share their intermediate results.  The fused dense layers add
their bias and apply SiLU in place on the fresh product, and their backward
pass multiplies the saved slope in place: fresh row-sized temporaries cost
page faults.  Sums of rows into fewer rows (scatters, sparse products and the
gradients of gathers and max pools) go through ``np.bincount``, which adds in
input order exactly as ``np.add.at`` would, and is several times faster.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class Tape:
    """Ordered record of operations; creation order is the topological order.

    :func:`backward` consumes the records.
    """

    def __init__(self):
        self.records = []  # (out_id, input ids or None for untaped inputs, vjp)
        self.next_id = 0

    def fresh_id(self):
        self.next_id += 1
        return self.next_id

    def record(self, out_id, in_ids, vjp):
        self.records.append((out_id, in_ids, vjp))


class Tensor:
    __slots__ = ("data", "tape", "node_id")

    def __init__(self, data, tape=None, node_id=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.tape = tape
        self.node_id = node_id if node_id is not None else (tape.fresh_id() if tape else None)

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, taped={self.tape is not None})"


def constant(value):
    return Tensor(value)


def leaf(tape: Tape, value) -> Tensor:
    """A watched input; gradients accumulate at its node id."""
    return Tensor(value, tape=tape, node_id=tape.fresh_id())


def _tape_of(*tensors):
    tape = None
    for t in tensors:
        if t.tape is not None:
            if tape is not None and tape is not t.tape:
                raise ValueError("operands belong to different tapes")
            tape = t.tape
    return tape


def _emit(out_data, inputs, vjp):
    """Output tensor of an op; on a tape, records ``vjp``.

    ``vjp(g, needs)`` returns one gradient per input, where ``needs[i]`` says
    whether input ``i`` is taped (the others may be returned as None).
    """
    tape = _tape_of(*inputs)
    if tape is None:
        return Tensor(out_data)
    out = Tensor(out_data, tape=tape)
    needs = [t.tape is not None for t in inputs]
    in_ids = [t.node_id if t.tape is not None else None for t in inputs]
    tape.record(out.node_id, in_ids, lambda g: vjp(g, needs))
    return out


def _unbroadcast(grad, shape):
    """Sum gradient over axes that were broadcast in the forward op."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _sum_into(targets, values, size):
    """Zeros of length ``size`` plus each value at its flat target, in input order."""
    return np.bincount(targets.reshape(-1), weights=values.reshape(-1), minlength=size)


def segment_sum(values, index, size):
    """Rows of the (m, k) ``values`` summed into ``size`` rows by ``index``.

    Row ``e`` is added to output row ``index[e]``, in order of ``e``: the
    result is bit-identical to ``np.add.at(zeros, index, values)``.
    """
    k = values.shape[1]
    targets = index[:, None] * k + np.arange(k)
    return _sum_into(targets, values, size * k).reshape(size, k)


def add(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.data.shape, b.data.shape

    def vjp(g, needs):
        return (
            _unbroadcast(g, sa) if needs[0] else None,
            _unbroadcast(g, sb) if needs[1] else None,
        )

    return _emit(a.data + b.data, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.data.shape, b.data.shape

    def vjp(g, needs):
        return (
            _unbroadcast(g, sa) if needs[0] else None,
            -_unbroadcast(g, sb) if needs[1] else None,
        )

    return _emit(a.data - b.data, (a, b), vjp)


def neg(a: Tensor) -> Tensor:
    return _emit(-a.data, (a,), lambda g, needs: (-g,))


def mul(a: Tensor, b: Tensor) -> Tensor:
    x, y = a.data, b.data

    def vjp(g, needs):
        return (
            _unbroadcast(g * y, x.shape) if needs[0] else None,
            _unbroadcast(g * x, y.shape) if needs[1] else None,
        )

    return _emit(x * y, (a, b), vjp)


def scale(a: Tensor, factor: float) -> Tensor:
    return _emit(a.data * factor, (a,), lambda g, needs: (g * factor,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    x, y = a.data, b.data

    def vjp(g, needs):
        return (
            g @ y.T if needs[0] else None,
            x.T @ g if needs[1] else None,
        )

    return _emit(x @ y, (a, b), vjp)


def _stable_sigmoid(x):
    # 1 / (1 + e) for x >= 0 and e / (1 + e) below, with e = exp(-|x|), which
    # never overflows: the same expressions as the textbook split of x by
    # sign, with the numerator exp(min(x, 0)) in place of a mask
    den = np.abs(x)
    np.negative(den, out=den)
    np.exp(den, out=den)
    den += 1.0
    num = np.minimum(x, 0.0)
    np.exp(num, out=num)
    return np.divide(num, den, out=den)


def _silu_slope(z, sig):
    """Derivative of SiLU at ``z``, given ``sig = sigmoid(z)``: sig * (1 + z * (1 - sig))."""
    slope = np.subtract(1.0, sig)
    slope *= z
    slope += 1.0
    slope *= sig
    return slope


def _silu_in_place(z, taped):
    """Overwrites the fresh array ``z`` with SiLU(z); returns the slope if ``taped``, else None."""
    sig = _stable_sigmoid(z)
    slope = _silu_slope(z, sig) if taped else None
    z *= sig
    return slope


def linear(x: Tensor, w: Tensor, b: Tensor, silu: bool = False) -> Tensor:
    """``x @ w + b``, followed by SiLU when ``silu`` is set, as one op."""
    xd, wd, shape_b = x.data, w.data, b.data.shape
    out = xd @ wd
    out += b.data
    # SiLU's derivative, kept only for a backward pass
    slope = _silu_in_place(out, _tape_of(x, w, b) is not None) if silu else None

    def vjp(g, needs):
        # the slope serves one backward sweep, so it takes the product in place
        gz = g if slope is None else np.multiply(g, slope, out=slope)
        return (
            gz @ wd.T if needs[0] else None,
            xd.T @ gz if needs[1] else None,
            _unbroadcast(gz, shape_b) if needs[2] else None,
        )

    return _emit(out, (x, w, b), vjp)


def pair_linear(h: Tensor, own, nbr, extra: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``silu(concat([h[own], h[nbr], extra], axis=1) @ w + b)`` without the concat, as one op.

    A linear layer on the rows of an edge list splits by endpoint: the
    product is ``(h @ w[:k])[own] + (h @ w[k:2k])[nbr] + extra @ w[2k:]`` for
    ``h`` of width k, so the endpoint blocks multiply the n node rows rather
    than the E edge rows.  The gradient sums the edge rows onto the node rows
    first (``segment_sum``) and multiplies there too.  Nodes no edge touches
    get zero gradients.
    """
    hd, xd, wd, shape_b = h.data, extra.data, w.data, b.data.shape
    n, k = hd.shape
    w_own, w_nbr, w_extra = wd[:k], wd[k : 2 * k], wd[2 * k :]
    out = (hd @ w_own)[own]
    term = (hd @ w_nbr)[nbr]
    out += term
    out += np.matmul(xd, w_extra, out=term)
    out += b.data
    slope = _silu_in_place(out, _tape_of(h, extra, w, b) is not None)

    def vjp(g, needs):
        gz = np.multiply(g, slope, out=slope)
        by_own = segment_sum(gz, own, n)
        by_nbr = segment_sum(gz, nbr, n)
        grad_w = None
        if needs[2]:
            grad_w = np.concatenate([hd.T @ by_own, hd.T @ by_nbr, xd.T @ gz])
        return (
            by_own @ w_own.T + by_nbr @ w_nbr.T if needs[0] else None,
            gz @ w_extra.T if needs[1] else None,
            grad_w,
            _unbroadcast(gz, shape_b) if needs[3] else None,
        )

    return _emit(out, (h, extra, w, b), vjp)


def silu(a: Tensor) -> Tensor:
    x = a.data
    out = _stable_sigmoid(x)
    slope = _silu_slope(x, out) if a.tape is not None else None
    out *= x
    return _emit(out, (a,), lambda g, needs: (np.multiply(g, slope, out=slope),))


def sigmoid(a: Tensor) -> Tensor:
    out = _stable_sigmoid(a.data)
    return _emit(out, (a,), lambda g, needs: (g * (out * (1.0 - out)),))


def log(a: Tensor) -> Tensor:
    x = a.data
    return _emit(np.log(x), (a,), lambda g, needs: (g / x,))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _emit(out, (a,), lambda g, needs: (g * out,))


def square(a: Tensor) -> Tensor:
    x = a.data
    return _emit(x * x, (a,), lambda g, needs: (g * 2.0 * x,))


def tensor_sum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    shape = a.data.shape

    def vjp(g, needs):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return _emit(a.data.sum(axis=axis, keepdims=keepdims), (a,), vjp)


def concat(tensors, axis=0) -> Tensor:
    out = np.concatenate([t.data for t in tensors], axis=axis)
    bounds = np.cumsum([0] + [t.data.shape[axis] for t in tensors])
    ndim = out.ndim

    def vjp(g, needs):
        grads = []
        for need, lo, hi in zip(needs, bounds[:-1], bounds[1:]):
            sl = [slice(None)] * ndim
            sl[axis] = slice(lo, hi)
            grads.append(g[tuple(sl)] if need else None)
        return grads

    return _emit(out, tuple(tensors), vjp)


@dataclass(frozen=True)
class SparseMatrix:
    """Constant COO matrix; never differentiated through its entries.

    Products sum the entries' terms in stored order (``segment_sum``).
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    shape: tuple

    @classmethod
    def from_coo(cls, rows, cols, vals, shape):
        return cls(
            rows=np.asarray(rows, dtype=np.int64),
            cols=np.asarray(cols, dtype=np.int64),
            vals=np.asarray(vals, dtype=np.float64),
            shape=tuple(shape),
        )

    def apply(self, dense):
        return segment_sum(self.vals[:, None] * dense[self.cols], self.rows, self.shape[0])

    def apply_transpose(self, dense):
        return segment_sum(self.vals[:, None] * dense[self.rows], self.cols, self.shape[1])


def sparse_matmul(matrix: SparseMatrix, x: Tensor) -> Tensor:
    return _emit(matrix.apply(x.data), (x,), lambda g, needs: (matrix.apply_transpose(g),))


def gather_rows(a: Tensor, index) -> Tensor:
    """Rows ``a[index]`` of a matrix; the gradient sums back into the source rows."""
    size = a.data.shape[0]
    return _emit(a.data[index], (a,), lambda g, needs: (segment_sum(g, index, size),))


def scatter_rows(a: Tensor, index, size: int) -> Tensor:
    """``size`` rows, row ``i`` the sum of the rows ``a[e]`` with ``index[e] == i``."""
    return _emit(segment_sum(a.data, index, size), (a,), lambda g, needs: (g[index],))


def group_max(a: Tensor, groups) -> Tensor:
    """Per-column max of ``a`` over each row group; shape (groups, columns).

    ``groups`` is a (G, m) index array, one group per row.  A group with
    fewer than m members is padded by repeating its first member, which
    changes neither its max nor where its gradient goes.  The gradient routes
    entirely to the first argmax row of each group and column.
    """
    groups = np.asarray(groups, dtype=np.int64)
    if groups.ndim != 2 or groups.shape[1] == 0:
        raise ValueError("empty pooling group")
    n, k = a.data.shape
    block = a.data[groups]  # (G, m, k)
    first = block.argmax(axis=1)  # (G, k)
    out = np.take_along_axis(block, first[:, None, :], axis=1)[:, 0, :]

    def vjp(g, needs):
        source = np.take_along_axis(groups, first, axis=1)  # (G, k) rows
        return (_sum_into(source * k + np.arange(k), g, n * k).reshape(n, k),)

    return _emit(out, (a,), vjp)


def _segment_totals(x, bounds):
    """Per segment ``bounds[i]:bounds[i + 1]`` of ``x``, its ``sum()``, repeated over the segment.

    Each total is numpy's own sum of that slice, so one segment adds exactly
    as ``x.sum()`` does.
    """
    totals = [x[lo:hi].sum() for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())]
    return np.repeat(totals, np.diff(bounds))


def softmax_masked(a: Tensor, segments=None) -> Tensor:
    """Softmax over each segment of a column vector.

    ``segments`` are the k+1 boundaries of k consecutive runs of the entries,
    each normalized on its own (default: one run).  Each run is shifted by
    its max, exponentiated and divided by its own sum, so a single run
    computes ``e = exp(z - z.max())`` and ``e / e.sum()``.
    """
    flat = a.data.reshape(-1)
    bounds = np.array([0, flat.size]) if segments is None else np.asarray(segments, dtype=np.int64)
    sizes = np.diff(bounds)
    if sizes.size == 0 or sizes.min() <= 0 or bounds[0] != 0 or bounds[-1] != flat.size:
        raise ValueError("empty softmax segment")
    z = flat - np.repeat(np.maximum.reduceat(flat, bounds[:-1]), sizes)
    e = np.exp(z)
    p = e / _segment_totals(e, bounds)
    shape = a.data.shape

    def vjp(g, needs):
        gm = np.asarray(g).reshape(-1)
        return ((p * (gm - _segment_totals(gm * p, bounds))).reshape(shape),)

    return _emit(p.reshape(shape), (a,), vjp)


def minimum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise min; the subgradient routes to ``a`` on ties."""
    take_a = a.data <= b.data
    sa, sb = a.data.shape, b.data.shape

    def vjp(g, needs):
        return (
            _unbroadcast(g * take_a, sa) if needs[0] else None,
            _unbroadcast(g * ~take_a, sb) if needs[1] else None,
        )

    return _emit(np.where(take_a, a.data, b.data), (a, b), vjp)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    gate = (a.data >= lo) & (a.data <= hi)
    return _emit(np.clip(a.data, lo, hi), (a,), lambda g, needs: (g * gate,))


def backward(tape: Tape, loss: Tensor):
    """Reverse accumulation from a scalar loss; returns node id -> gradient.

    The sweep consumes the tape: each record is dropped once its gradients
    are passed on, so the activations it saved are freed during the sweep.
    A consumed tape raises ``ValueError`` on a second sweep.
    """
    if loss.tape is not tape:
        raise ValueError("loss does not belong to this tape")
    if loss.data.size != 1:
        raise ValueError("loss must be scalar")
    if tape.records is None:
        raise ValueError("the tape was consumed by an earlier backward pass")
    records, tape.records = tape.records, None
    grads = {loss.node_id: np.ones_like(loss.data)}
    while records:
        out_id, in_ids, vjp = records.pop()
        g = grads.pop(out_id, None)
        if g is None:
            continue
        for in_id, contrib in zip(in_ids, vjp(g)):
            if in_id is None:
                continue
            if in_id in grads:
                grads[in_id] = grads[in_id] + contrib
            else:
                grads[in_id] = contrib
    return grads


@dataclass
class Parameter:
    """Named value with Adam moment accumulators."""

    name: str
    value: np.ndarray
    m: np.ndarray = field(default=None)
    v: np.ndarray = field(default=None)
    step: int = 0

    def __post_init__(self):
        self.value = np.asarray(self.value, dtype=np.float64)
        if self.m is None:
            self.m = np.zeros_like(self.value)
        if self.v is None:
            self.v = np.zeros_like(self.value)


def adam_step(params, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Bias-corrected Adam update, in place, for params with entries in grads."""
    for p in params:
        g = grads.get(p.name)
        if g is None:
            continue
        g = np.asarray(g, dtype=np.float64)
        if g.shape != p.value.shape:
            raise ValueError(f"gradient shape mismatch for {p.name}")
        p.step += 1
        p.m = beta1 * p.m + (1.0 - beta1) * g
        p.v = beta2 * p.v + (1.0 - beta2) * (g * g)
        mhat = p.m / (1.0 - beta1**p.step)
        vhat = p.v / (1.0 - beta2**p.step)
        p.value = p.value - lr * mhat / (np.sqrt(vhat) + eps)
