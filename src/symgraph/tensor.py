"""Dense float64 tensors with taped reverse-mode differentiation and SGD.

The tape (``Tape``) records one step per primitive op, in execution order.
``backward`` replays the steps in reverse and accumulates gradients into the
``grad`` buffers of every ``Parameter`` the loss depends on.  Training
records one tape per mini-batch: the batch's graphs are one disjoint union,
so every op works on whole (rows, features) matrices, and ``scatter_add``
does the per-edge and per-graph sums.

All ops accept an optional ``tape``; with ``tape=None`` they are plain
numpy computations, which is what evaluation uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError, TrainingError


def _as_f64(data):
    arr = np.asarray(data, dtype=np.float64)
    return arr


class Tensor:
    """A dense float64 array, optionally attached to a differentiation tape.

    ``node_id`` is None for constants; traced tensors carry the id of the
    tape step that produced them (or of their watch registration).
    """

    __slots__ = ("data", "node_id")

    def __init__(self, data, node_id=None):
        self.data = _as_f64(data)
        # a nan or inf makes the sum non-finite; so can overflow, so recheck
        if not math.isfinite(self.data.sum()) and not np.isfinite(self.data).all():
            raise DomainError("tensor contains non-finite values")
        self.node_id = node_id

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, traced={self.node_id is not None})"


def _wrap(data, node_id=None) -> Tensor:
    """A Tensor over an array already known to be finite (a parameter's
    value), without the scan ``Tensor.__init__`` runs on every op output."""
    t = Tensor.__new__(Tensor)
    t.data, t.node_id = data, node_id
    return t


@dataclass
class Parameter:
    """A trainable tensor with an accumulating gradient buffer."""

    value: np.ndarray
    name: str
    grad: np.ndarray = field(default=None)

    def __post_init__(self):
        self.value = _as_f64(self.value)
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        assert self.grad.shape == self.value.shape

    def zero_grad(self):
        self.grad[...] = 0.0


class _Step:
    __slots__ = ("out_id", "in_ids", "back")

    def __init__(self, out_id, in_ids, back):
        self.out_id = out_id
        self.in_ids = in_ids
        self.back = back  # grad_out -> list of grads aligned with in_ids


class Tape:
    """Ordered record of primitive ops; inputs of every step precede it."""

    def __init__(self):
        self.steps = []
        self.params = {}  # node_id -> Parameter
        self._next = 0

    def _new_id(self):
        self._next += 1
        return self._next

    def watch(self, param: Parameter) -> Tensor:
        """Register a parameter and return its traced tensor."""
        nid = self._new_id()
        self.params[nid] = param
        return _wrap(param.value, nid)

    def record(self, out_data, inputs, back) -> Tensor:
        """Create the output tensor for a step, tracing it when needed."""
        if any(x.node_id is not None for x in inputs):
            out = Tensor(out_data, node_id=self._new_id())
            self.steps.append(_Step(out.node_id, [x.node_id for x in inputs], back))
            return out
        return Tensor(out_data)


def _emit(tape, out_data, inputs, back):
    if tape is None:
        return Tensor(out_data)
    return tape.record(out_data, inputs, back)


# ---------------------------------------------------------------------------
# primitive ops


def _unbroadcast(g, shape):
    """Sum a broadcast gradient back down to an operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _broadcast_check(op, a, b):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise DimensionError(f"{op} shapes disagree: {a.shape} {b.shape}") from None


def linear(x: Tensor, w: Tensor, tape: Tape = None) -> Tensor:
    """``x @ w.T``: the rows of x (or the vector x) through an (out, in)
    weight, without copying the weight's transpose; the one matrix product
    of the tape."""
    xd, wd = x.data, w.data
    if xd.ndim not in (1, 2) or wd.ndim != 2:
        raise DimensionError(f"linear needs rows and a matrix: {x.shape}, {w.shape}")
    if xd.shape[-1] != wd.shape[1]:
        raise DimensionError(f"linear widths disagree: {x.shape} through {w.shape}")

    def back(g):
        x2 = xd.reshape(-1, xd.shape[-1])
        g2 = np.reshape(g, (x2.shape[0], wd.shape[0]))
        return [(g2 @ wd).reshape(xd.shape), g2.T @ x2]

    return _emit(tape, xd @ wd.T, [x, w], back)


def add(a: Tensor, b: Tensor, tape: Tape = None) -> Tensor:
    """Elementwise sum with numpy broadcasting (e.g. a (m,) bias over (n, m))."""
    _broadcast_check("add", a, b)
    sa, sb = a.shape, b.shape
    return _emit(tape, a.data + b.data, [a, b],
                 lambda g: [_unbroadcast(g, sa), _unbroadcast(g, sb)])


def mul(a: Tensor, b: Tensor, tape: Tape = None) -> Tensor:
    """Elementwise product with numpy broadcasting (e.g. an (n, 1) column of
    row weights over (n, m))."""
    _broadcast_check("mul", a, b)
    ad, bd = a.data, b.data
    return _emit(tape, ad * bd, [a, b],
                 lambda g: [_unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)])


def scale(a: Tensor, c: float, tape: Tape = None) -> Tensor:
    return _emit(tape, a.data * c, [a], lambda g: [g * c])


def add_const(a: Tensor, c: float, tape: Tape = None) -> Tensor:
    return _emit(tape, a.data + c, [a], lambda g: [g])


def relu(a: Tensor, tape: Tape = None) -> Tensor:
    mask = a.data > 0
    return _emit(tape, np.maximum(a.data, 0.0), [a], lambda g: [g * mask])


def sigmoid(a: Tensor, tape: Tape = None) -> Tensor:
    y = 1.0 / (1.0 + np.exp(-a.data))
    return _emit(tape, y, [a], lambda g: [g * y * (1.0 - y)])


def log(a: Tensor, tape: Tape = None) -> Tensor:
    ad = a.data
    return _emit(tape, np.log(ad), [a], lambda g: [g / ad])


def softmax(a: Tensor, tape: Tape = None) -> Tensor:
    """Stable softmax over the last axis (max subtraction): a vector, or each
    row of a matrix."""
    if a.data.ndim not in (1, 2) or a.data.shape[-1] < 1:
        raise DomainError(f"softmax needs nonempty rows, got shape {a.shape}")
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    return _emit(tape, y, [a],
                 lambda g: [y * (g - np.sum(g * y, axis=-1, keepdims=True))])


def sum_all(a: Tensor, tape: Tape = None) -> Tensor:
    shp = a.data.shape
    return _emit(tape, a.data.sum(), [a], lambda g: [np.broadcast_to(g, shp).copy()])


def concat(parts, tape: Tape = None) -> Tensor:
    """Concatenate along the last axis: vectors end to end, or matrices with
    equal row counts side by side."""
    lead = parts[0].shape[:-1]
    for p in parts:
        if p.data.ndim not in (1, 2) or p.shape[:-1] != lead:
            raise DimensionError(
                f"concat parts disagree: {[q.shape for q in parts]}")
    offs = np.cumsum([0] + [p.shape[-1] for p in parts])

    def back(g):
        return [g[..., offs[i]:offs[i + 1]] for i in range(len(parts))]

    return _emit(tape, np.concatenate([p.data for p in parts], axis=-1), list(parts), back)


def scatter_rows(values, rows, n):
    """``out[rows[e]] += values[e]`` for every row e of ``values``, into n rows
    (plain numpy; ``scatter_add`` is the taped op).

    One bincount over flat (row, column) slots: summing happens in the order
    of ``values``, so results are reproducible bit for bit.
    """
    width = values.shape[1]
    slots = (rows[:, None] * width + np.arange(width)).ravel()
    return np.bincount(slots, weights=values.ravel(),
                       minlength=n * width).reshape(n, width)


def segment_mean(values, rows, n):
    """Mean of the rows of ``values`` sent to each of n output rows (row e
    goes to ``rows[e]``); an output row that nothing reaches is zero.  Sums
    run in the order of ``values``, as in ``scatter_rows``."""
    counts = np.maximum(np.bincount(rows, minlength=n), 1)
    return scatter_rows(values, rows, n) / counts[:, None]


def scatter_add(x: Tensor, dst, src, weight, n_out: int, tape: Tape = None) -> Tensor:
    """Weighted edge-list sum of rows: ``out[dst[e]] += weight[e] * x[src[e]]``
    into ``n_out`` rows.

    ``dst``, ``src`` and ``weight`` are equal-length arrays; pairs may repeat
    and rows no pair reaches are zero.  With row-normalized in-edges it is a
    GCN mean aggregation; with graph ids as ``dst``, every node as ``src``
    and unit weights it is a per-graph sum readout.
    """
    xd = x.data
    if xd.ndim != 2:
        raise DimensionError(f"scatter_add needs a matrix, got shape {x.shape}")
    dst = np.asarray(dst, dtype=np.intp)
    src = np.asarray(src, dtype=np.intp)
    w = np.asarray(weight, dtype=np.float64)[:, None]
    if not dst.shape == src.shape == w.shape[:1] or dst.ndim != 1:
        raise DimensionError(
            f"edge arrays disagree: {dst.shape}, {src.shape}, {w.shape[:1]}")
    n_in = xd.shape[0]
    if dst.size and (dst.min() < 0 or dst.max() >= n_out
                     or src.min() < 0 or src.max() >= n_in):
        raise DimensionError(f"edge index out of range for {n_in} -> {n_out} rows")
    out = scatter_rows(xd[src] * w, dst, n_out)
    return _emit(tape, out, [x], lambda g: [scatter_rows(g[dst] * w, src, n_in)])


# ---------------------------------------------------------------------------
# reverse pass and optimizer


def backward(tape: Tape, loss: Tensor):
    """Accumulate d(loss)/d(param) into every watched parameter's grad.

    Replaying twice (without a new forward) accumulates twice the gradient.
    """
    if loss.data.ndim != 0:
        raise DomainError(f"loss must be scalar, got shape {loss.shape}")
    if loss.node_id is None:
        return  # loss depends on no traced input; all grads are zero
    grads = {loss.node_id: np.ones(())}
    for step in reversed(tape.steps):
        g = grads.pop(step.out_id, None)  # every consumer of it came later
        if g is None:
            continue
        for in_id, gin in zip(step.in_ids, step.back(g)):
            if in_id is None:
                continue
            if in_id in grads:
                grads[in_id] = grads[in_id] + gin
            else:
                grads[in_id] = gin
    for nid, param in tape.params.items():
        if nid in grads:
            param.grad += grads[nid]


def sgd_step(params, lr: float):
    """value <- value - lr * grad for every parameter, then zero the grads."""
    params = list(params)
    for p in params:
        if not np.all(np.isfinite(p.grad)):
            raise TrainingError(f"non-finite gradient for parameter '{p.name}'")
    for p in params:
        p.value -= lr * p.grad
        p.zero_grad()
