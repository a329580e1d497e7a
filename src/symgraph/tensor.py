"""Dense float64 tensors with taped reverse-mode differentiation and SGD.

The tape (``Tape``) records one step per primitive op, in execution order.
``backward`` replays the steps in reverse and hands every ``Parameter`` the
loss depends on its gradient.  Training records one tape per mini-batch:
the batch's graphs are one disjoint union, so every op works on whole
(rows, features) matrices.

A training step makes seven passes over each parameter-sized array.  The
backward pass writes a weight's gradient once (``linear``'s product), and
the parameter adopts that array as its ``grad`` instead of adding it into a
zeroed buffer.  ``sgd_step`` checks that it is finite (one pass), scales it
in place by the learning rate, which carries the batch mean too (two), and
subtracts it from the value (three), then drops it: the parameter's
``grad`` becomes a read-only view of zeros, and no pass fills a buffer with
zeros.  A gradient that is held (writable, as a new ``Parameter``'s zeros
are, or one adopted and not yet stepped) accumulates: replaying a tape
twice gives twice the gradient.  ``linear``'s backward computes no
gradient for an input that is not traced, such as the encoder's packed
inputs.

There are nine primitives: ``linear`` (a product with an optional bias),
``relu`` and ``sigmoid``; ``scatter_add``, the per-edge sums over an
``Edges`` list; ``segment_sum``, the per-graph sums as products with blocks
of a dense weight matrix; ``pair_attention`` and ``pair_concat``, the whole
attention or concat fusion of two graph vectors; and the two fused losses,
``softmax_cross_entropy`` and ``sigmoid_cross_entropy``.

An ``Edges`` list is range-checked once and applied as exact gathers in
"rounds", the jagged-diagonal layout of sparse kernels (Saad, 1989): round
k adds the k-th edge of every output row that has one, so no row repeats
within a round and each row sums its edges in edge order, bit for bit as a
loop over the edges from zero would (but for the sign of a zero: round 0
starts a row at its first term, so a -0.0 term stays -0.0).  Its rounds are
built when it is made, and those of its transposed list, which the
backward pass applies, on first use; both are kept with it.

All primitives accept an optional ``tape``; with ``tape=None`` they are
plain numpy computations, which is what evaluation uses.  ``softmax`` (the
softmax head's scores) and ``segment_mean`` (packing's means) are never
taped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError, TrainingError


class Tensor:
    """A dense float64 array, optionally attached to a differentiation tape.

    ``node_id`` is None for constants; traced tensors carry the id of the
    tape step that produced them (or of their watch registration).
    """

    __slots__ = ("data", "node_id")

    def __init__(self, data, node_id=None):
        self.data = np.asarray(data, dtype=np.float64)
        # Sum of squares: a nan or inf makes it non-finite, and np.vdot (no
        # ufunc) warns of no overflow, where a sum warns on 1e308 + 1e308 and
        # inf - inf.  It overflows past |x| ~ 1e154, so then recheck elementwise.
        flat = self.data.ravel("K")  # a view, also of a transpose
        if not math.isfinite(np.vdot(flat, flat)) and not np.isfinite(self.data).all():
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
    """A trainable tensor and its gradient.

    ``grad`` starts as a writable buffer of zeros.  ``zero_grad`` drops it:
    it then reads as zeros through a read-only view, and the next
    ``backward`` adopts the array it computed instead of adding into it.
    """

    value: np.ndarray
    name: str
    grad: np.ndarray = field(default=None)
    # the dropped gradient, made once rather than at every step
    _zeros: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.value = np.asarray(self.value, dtype=np.float64)
        self._zeros = np.broadcast_to(np.float64(0.0), self.value.shape)
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        assert self.grad.shape == self.value.shape

    @property
    def holds_grad(self) -> bool:
        """Whether ``grad`` is a held (writable) array, not a dropped one."""
        return self.grad.flags.writeable

    def zero_grad(self):
        """Drop the gradient: ``grad`` reads as zeros, and no pass writes them."""
        self.grad = self._zeros


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


def _broadcast_check(op, a, b):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise DimensionError(f"{op} shapes disagree: {a.shape} {b.shape}") from None


def linear(x: Tensor, w: Tensor, tape: Tape = None, bias: Tensor = None) -> Tensor:
    """``x @ w.T``, plus ``bias`` when given: the rows of x (or the vector x)
    through an (out, in) weight, without copying the weight's transpose;
    the one matrix product of the tape.  Its backward pass skips the
    product of an input that is not traced."""
    xd, wd = x.data, w.data
    if xd.ndim not in (1, 2) or wd.ndim != 2:
        raise DimensionError(f"linear needs rows and a matrix: {x.shape}, {w.shape}")
    if xd.shape[-1] != wd.shape[1]:
        raise DimensionError(f"linear widths disagree: {x.shape} through {w.shape}")
    if bias is not None and bias.shape != wd.shape[:1]:
        raise DimensionError(f"linear bias {bias.shape} does not fit {w.shape}")

    def back(g):  # no product for an untraced x or w: its gradient is None
        x2 = xd.reshape(-1, xd.shape[-1])
        g2 = np.reshape(g, (x2.shape[0], wd.shape[0]))
        grads = [None if x.node_id is None else (g2 @ wd).reshape(xd.shape),
                 None if w.node_id is None else g2.T @ x2]
        return grads if bias is None else grads + [g2.sum(axis=0)]

    out = xd @ wd.T
    if bias is None:
        return _emit(tape, out, [x, w], back)
    out += bias.data
    return _emit(tape, out, [x, w, bias], back)


def relu(a: Tensor, tape: Tape = None) -> Tensor:
    out = np.maximum(a.data, 0.0)
    return _emit(tape, out, [a], lambda g: [g * (out > 0)])  # out > 0 iff a > 0


def sigmoid(a: Tensor, tape: Tape = None) -> Tensor:
    with np.errstate(over="ignore"):  # exp(-x) is inf below x ~ -709; 1 / inf is 0
        y = 1.0 / (1.0 + np.exp(-a.data))
    return _emit(tape, y, [a], lambda g: [g * y * (1.0 - y)])


def softmax(a: Tensor) -> Tensor:
    """Stable softmax over the last axis (max subtraction): a vector, or each
    row of a matrix.  Untaped: the softmax head's scores, which no loss
    reads (the loss is ``softmax_cross_entropy`` of the logits)."""
    if a.data.ndim not in (1, 2) or a.data.shape[-1] < 1:
        raise DomainError(f"softmax needs nonempty rows, got shape {a.shape}")
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return Tensor(e / e.sum(axis=-1, keepdims=True))


def pair_attention(a: Tensor, b: Tensor, w: Tensor = None, tape: Tape = None):
    """Softmax attention over two vectors, or over each pair of rows of two
    matrices: scores ``s_k = v_k . u_k`` for v = (a, b), where u_k is v_k
    itself (a squared norm) or the score vector ``w``; ``alpha`` the
    max-shifted softmax of (s_a, s_b); output ``alpha_a * a + alpha_b * b``.
    Returns (output, alpha), alpha's last axis ordered (a, b).

    One step on the tape.  Its backward pass, for the output gradient g:
    ``d_k = g . v_k``, ``ds_k = alpha_k * (d_k - sum_j alpha_j * d_j)``;
    v_k gets ``alpha_k * g + ds_k * (2 * v_k or w)``, and w gets
    ``sum ds_k * v_k`` over both inputs and every row.
    """
    ad, bd = a.data, b.data
    if ad.ndim not in (1, 2) or ad.shape != bd.shape or (
            w is not None and w.shape != ad.shape[-1:]):
        raise DimensionError(f"attention inputs disagree: {a.shape}, {b.shape}"
                             + ("" if w is None else f", score vector {w.shape}"))
    pair = np.array([ad, bd])  # (2, [rows,] width): k = 0 is a, 1 is b
    s = np.einsum("k...i,k...i->k...", pair, pair) if w is None else pair @ w.data
    e = np.exp(s - s.max(axis=0))
    alpha = e / e.sum(axis=0)  # (2, [rows])
    weights = alpha[..., None]

    def back(g):
        d = np.einsum("k...i,...i->k...", pair, g)
        ds = (alpha * (d - (alpha * d).sum(axis=0)))[..., None]
        grads = weights * g + ds * (2.0 * pair if w is None else w.data)
        if w is None:
            return [grads[0], grads[1]]
        return [grads[0], grads[1], (ds * pair).reshape(-1, ad.shape[-1]).sum(axis=0)]

    out = weights[0] * ad + weights[1] * bd
    return _emit(tape, out, [a, b] if w is None else [a, b, w], back), alpha.T


def softmax_cross_entropy(z: Tensor, targets, tape: Tape = None) -> Tensor:
    """Soft-target cross-entropy of logits, summed over rows:
    ``sum t * (logsumexp(z) - z)``, from max-shifted logits, so it has no cap
    and its gradient ``(softmax(z) * sum t - t) * g`` (``p - t`` for targets
    that sum to 1) does not vanish when the softmax saturates."""
    t = np.asarray(targets, dtype=np.float64)
    _broadcast_check("softmax_cross_entropy", z, t)
    shifted = z.data - z.data.max(axis=-1, keepdims=True)
    log_p = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    mass = t.sum(axis=-1, keepdims=True)
    return _emit(tape, -np.sum(t * log_p), [z],
                 lambda g: [(np.exp(log_p) * mass - t) * g])


def sigmoid_cross_entropy(z: Tensor, targets, tape: Tape = None) -> Tensor:
    """Binary cross-entropy of each logit, summed; with y = targets > 0 it is
    ``max(z, 0) - y * z + log1p(exp(-|z|))``, which overflows nowhere, and
    its gradient is ``(sigmoid(z) - y) * g``."""
    zd, y = z.data, (np.asarray(targets) > 0).astype(np.float64)
    _broadcast_check("sigmoid_cross_entropy", z, y)
    e = np.exp(-np.abs(zd))  # in (0, 1]
    p = np.where(zd >= 0, 1.0, e) / (1.0 + e)  # sigmoid(z)
    out = np.sum(np.maximum(zd, 0.0) - y * zd + np.log1p(e))
    return _emit(tape, out, [z], lambda g: [(p - y) * g])


def pair_concat(a: Tensor, b: Tensor, tape: Tape = None) -> Tensor:
    """``[a ; b ; a * b]`` along the last axis, for two vectors or two
    matrices of the same shape: concat fusion as one step.  Its backward
    pass, for the output gradient ``[g0 ; g1 ; g2]``, is ``g0 + g2 * b``
    for a and ``g1 + g2 * a`` for b."""
    ad, bd = a.data, b.data
    if ad.ndim not in (1, 2) or ad.shape != bd.shape:
        raise DimensionError(f"pair_concat inputs disagree: {a.shape}, {b.shape}")
    m = ad.shape[-1]

    def back(g):
        g0, g1, g2 = g[..., :m], g[..., m:2 * m], g[..., 2 * m:]
        return [g0 + g2 * bd, g1 + g2 * ad]

    return _emit(tape, np.concatenate([ad, bd, ad * bd], axis=-1), [a, b], back)


def segment_mean(values, rows, n):
    """Mean of the rows of ``values`` sent to each of n output rows (row e
    goes to ``rows[e]``); an output row that nothing reaches is zero.
    Plain numpy, for packing's means.

    One bincount over flat (row, column) slots: sums run in the order of
    ``values``, so results are reproducible bit for bit.
    """
    width = values.shape[1]
    slots = (rows[:, None] * width + np.arange(width)).ravel()
    sums = np.bincount(slots, weights=values.ravel(), minlength=n * width)
    counts = np.maximum(np.bincount(rows, minlength=n), 1)
    return sums.reshape(n, width) / counts[:, None]


def _row_ids(ids, n: int) -> np.ndarray:
    """``ids`` as an index array, refused unless each is one of n rows."""
    ids = np.asarray(ids, dtype=np.intp)
    # as unsigned, a negative id is past every n: one max checks both ends
    if ids.ndim != 1 or (ids.size and ids.view(np.uintp).max() >= n):
        raise DimensionError(f"edge indices must be a vector of ids below {n}")
    return ids


class Edges:
    """A weighted edge list from ``n_in`` rows into ``n_out`` rows: the sum
    ``out[dst[e]] += weight[e] * x[src[e]]`` that ``scatter_add`` applies.

    ``dst``, ``src`` and ``weight`` are equal-length arrays; pairs may repeat
    and rows no edge reaches are zero.  The indices are range-checked and the
    rounds built here, once.
    """

    __slots__ = ("dst", "src", "weight", "n_out", "n_in", "rounds", "_transposed")

    def __init__(self, dst, src, weight, n_out: int, n_in: int):
        self.dst, self.src = _row_ids(dst, n_out), _row_ids(src, n_in)
        self.weight = np.asarray(weight, dtype=np.float64)
        if not self.dst.shape == self.src.shape == self.weight.shape:
            raise DimensionError(f"edge arrays disagree: {self.dst.shape}, "
                                 f"{self.src.shape}, {self.weight.shape}")
        self.n_out, self.n_in, self._transposed = n_out, n_in, None
        self.rounds = _rounds(self.dst, self.src, self.weight, n_out)

    @property
    def transposed(self) -> "Edges":
        """The same edges from the out rows back to the in rows: the list
        whose sum is the backward pass of this one's, built on first use."""
        if self._transposed is None:
            self._transposed = Edges(self.src, self.dst, self.weight, self.n_in, self.n_out)
        return self._transposed

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The (n_out, width) edge sum of the (n_in, width) rows ``x``."""
        rounds = self.rounds
        out = None if rounds and rounds[0][0] is None else np.zeros((self.n_out, x.shape[1]))
        for rows, srcs, w in rounds:
            terms = x.take(srcs, axis=0)
            terms *= w
            if rows is None:  # round 0, one term for each row in order
                out = terms
            else:  # no row repeats within a round
                sums = out.take(rows, axis=0)
                sums += terms
                out[rows] = sums
        return out


def _rounds(dst, src, weight, n_out: int) -> list:
    """(rows, sources, weight column) of each round of an edge list, in row
    order within a round; ``rows`` is None when round 0 holds every out row
    in order, so that round is a plain gather."""
    if dst.size == n_out and (dst == np.arange(n_out)).all():  # an edge per row, in order
        return [(None, src, weight[:, None])]
    order = dst.argsort(kind="stable")  # by row, in edge order within a row
    counts = np.bincount(dst, minlength=n_out)
    rank = np.arange(dst.size) - (counts.cumsum() - counts).repeat(counts)
    order = order[rank.argsort(kind="stable")]  # by round, then by row
    ends = np.bincount(rank).cumsum().tolist()
    rows, srcs, w = dst.take(order), src.take(order), weight.take(order)[:, None]
    rounds = [(rows[a:b], srcs[a:b], w[a:b]) for a, b in zip([0] + ends, ends)]
    if ends and ends[0] == n_out:
        rounds[0] = (None,) + rounds[0][1:]
    return rounds


def scatter_add(x: Tensor, edges: Edges, tape: Tape = None) -> Tensor:
    """Weighted edge-list sum of rows over ``edges``:
    ``out[dst[e]] += weight[e] * x[src[e]]`` into ``edges.n_out`` rows.

    With row-normalized in-edges it is a GCN mean aggregation.  Its backward
    pass is the sum over the transposed edges.
    """
    if x.data.ndim != 2 or x.shape[0] != edges.n_in:
        raise DimensionError(f"scatter_add needs {edges.n_in} rows, got shape {x.shape}")
    return _emit(tape, edges.apply(x.data), [x], lambda g: [edges.transposed.apply(g)])


# Out rows per block of ``segment_sum``.  A block's weight matrix is dense,
# so the blocks hold SEGMENT_BLOCK entries per input row in all: time and
# memory grow linearly with the rows at any segment count.  Smaller blocks
# multiply fewer zeros, larger ones cost fewer calls.  Forward plus backward
# (one BLAS thread, best of 7) at 8 / 16 / 32 / 64: 32 graphs of 30 classes
# at width 512, 0.95 / 1.37 / 1.74 / 1.81 ms; 341 graphs of 3 classes at
# width 128, 0.61 / 0.54 / 0.58 / 0.91 ms; 1,024 one-class graphs at width
# 128, 1.38 / 1.00 / 0.94 / 1.20 ms.
SEGMENT_BLOCK = 16


def segment_sum(x: Tensor, weight, segment, n: int, tape: Tape = None) -> Tensor:
    """``out[segment[i]] += weight[i] * x[i]`` into n rows.  With graph ids
    as ``segment`` and node counts as weights, it is the per-graph sum
    readout of class rows.

    Each block of SEGMENT_BLOCK out rows is one product ``C @ x[run]``,
    where C is the dense (out rows, run rows) matrix of the weights, and its
    backward pass is ``C.T @ g``.  So past one block, ``segment`` must not
    decrease: each block's rows are then one run.
    """
    xd = x.data
    segment, weight = _row_ids(segment, n), np.asarray(weight, dtype=np.float64)
    if xd.ndim != 2 or not segment.shape == weight.shape == xd.shape[:1]:
        raise DimensionError(f"segment_sum needs a segment and a weight per row: "
                             f"{x.shape}, {segment.shape}, {weight.shape}")
    if n <= SEGMENT_BLOCK:  # one block, whose rows may come in any order
        spans = [(0, 0, segment.size)]
    elif (segment[1:] < segment[:-1]).any():
        raise DimensionError("segment ids must not decrease")
    else:
        starts = range(0, n, SEGMENT_BLOCK)
        cuts = np.searchsorted(segment, [*starts, n]).tolist()  # each block's rows
        spans = zip(starts, cuts, cuts[1:])
    blocks = []  # (first out row, first row, end row, weight matrix)
    for s0, r0, r1 in spans:
        c = np.zeros((min(SEGMENT_BLOCK, n - s0), r1 - r0))
        c[segment[r0:r1] - s0, np.arange(r1 - r0)] = weight[r0:r1]
        blocks.append((s0, r0, r1, c))
    outs = [c @ xd[r0:r1] for _, r0, r1, c in blocks]

    def back(g):
        gx = np.empty(xd.shape)
        for s0, r0, r1, c in blocks:
            np.matmul(c.T, g[s0:s0 + len(c)], out=gx[r0:r1])
        return [gx]

    return _emit(tape, outs[0] if len(outs) == 1 else np.concatenate(outs), [x], back)


# ---------------------------------------------------------------------------
# reverse pass and optimizer


def backward(tape: Tape, loss: Tensor):
    """Give every watched parameter the loss depends on d(loss)/d(param).

    A parameter that holds its gradient (``Parameter.holds_grad``) adds this
    one into it, so replaying twice (without a new forward) gives twice the
    gradient.  A parameter whose gradient was dropped adopts the array the
    replay computed for it, the sum of its contributions when it feeds more
    than one op; an array that is a view of another is copied first, so no
    two parameters' gradients share memory.  A step's ``back`` returns None
    for an input whose gradient it does not compute; only untraced inputs
    may get None.
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
        g = grads.get(nid)
        if g is None:
            continue
        if param.holds_grad:
            param.grad += g
        elif g.flags.owndata and g.shape == param.value.shape:
            param.grad = g
        else:
            param.grad = np.broadcast_to(g, param.value.shape).copy()


def sgd_step(params, lr: float):
    """value <- value - lr * grad for every parameter that holds a gradient,
    then drop the gradients (``Parameter.zero_grad``); a parameter whose
    gradient was dropped, one the loss did not reach, is left as it is.
    Every gradient is checked before any value changes, and the update runs
    in place in the gradient array: one pass to check it, and one each to
    scale it and to subtract it."""
    params = [p for p in params if p.holds_grad]
    for p in params:
        flat = p.grad.ravel("K")  # the finite test of Tensor.__init__
        if not math.isfinite(np.vdot(flat, flat)) and not np.isfinite(p.grad).all():
            raise TrainingError(f"non-finite gradient for parameter '{p.name}'")
    for p in params:
        p.grad *= lr
        p.value -= p.grad
        p.zero_grad()
