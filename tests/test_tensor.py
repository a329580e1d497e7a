import ast
import inspect
import tracemalloc

import numpy as np
import pytest

from oracles import attention_ref, finite_difference, matmul_ref, scatter_add_ref
from symgraph import tensor as T
from symgraph.errors import DimensionError, DomainError, TrainingError
from symgraph.tensor import Parameter, Tape, Tensor, backward, sgd_step


def _weights(shape):
    """Fixed, distinct, nonzero weights of a shape."""
    return np.cos(1.0 + np.arange(int(np.prod(shape)))).reshape(shape)


def _total(x: Tensor, tape: Tape = None, weights=None) -> Tensor:
    """``sum(weights * x)`` (all weights 1 by default) as one test-local step
    on the tape: the tape has no reduction of its own besides the losses."""
    c = np.ones(x.shape) if weights is None else weights
    out = np.sum(c * x.data)
    if tape is None:
        return Tensor(out)
    return tape.record(out, [x], lambda g: [g * c])


def _square(x: Tensor, tape: Tape = None) -> Tensor:
    """``x * x`` elementwise: the last third of ``pair_concat(x, x)``, whose
    gradient to x is ``2 * g * x``."""
    m = x.shape[-1]
    keep = np.zeros((m, 3 * m))
    keep[:, 2 * m:] = np.eye(m)
    return T.linear(T.pair_concat(x, x, tape), Tensor(keep), tape)


class TestMatmul:
    """Matrix products.  ``linear`` (``x @ w.T``) is the tape's one product
    primitive, so the product checks run on it."""

    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.linear(a, Tensor(np.eye(2)))
        np.testing.assert_array_equal(out.data, a.data)

    def test_projector(self):
        p = Tensor([[1.0, 0.0], [0.0, 0.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal(T.linear(b, p).data, [[5.0, 0.0], [7.0, 0.0]])

    def test_against_triple_loop(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(2, 4))
        got = T.linear(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(got, matmul_ref(a, b.T), atol=1e-12)

    def test_matrix_vector(self, rng):
        a = rng.normal(size=(3, 4))
        x = rng.normal(size=4)
        np.testing.assert_allclose(T.linear(Tensor(x), Tensor(a)).data, a @ x)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_identity_exact(self, rng):
        a = rng.normal(size=(5, 5))
        assert np.array_equal(T.linear(Tensor(a), Tensor(np.eye(5))).data, a)


class TestRelu:
    def test_basic(self):
        np.testing.assert_array_equal(T.relu(Tensor([-1.0, 0.0, 2.0])).data,
                                      [0.0, 0.0, 2.0])

    def test_all_negative(self):
        out = T.relu(Tensor([[-3.0, -1.0], [-0.5, -2.0]]))
        assert np.all(out.data == 0.0)

    def test_gradient_at_plus_minus_three(self):
        for x0, expected in [(3.0, 1.0), (-3.0, 0.0)]:
            tape = Tape()
            p = Parameter(np.array(x0), "x")
            # relu works on arrays; wrap the scalar as a 1-vector
            xt = tape.watch(Parameter(np.array([x0]), "x"))
            loss = _total(T.relu(xt, tape), tape)
            backward(tape, loss)
            num = finite_difference(lambda v: max(v[0], 0.0), np.array([x0]))
            assert tape.params[xt.node_id].grad[0] == pytest.approx(expected)
            assert num[0] == pytest.approx(expected, abs=1e-6)
            assert p.grad == 0.0  # unrelated parameter untouched


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(T.softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])

    def test_analytic_third_two_thirds(self):
        out = T.softmax(Tensor([0.0, np.log(2.0)]))
        np.testing.assert_allclose(out.data, [1 / 3, 2 / 3], atol=1e-15)

    def test_large_inputs_no_overflow(self):
        out = T.softmax(Tensor([1000.0, 1000.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            T.softmax(Tensor(np.zeros(0)))

    def test_simplex_and_shift_invariance(self, rng):
        for _ in range(50):
            x = rng.normal(scale=5, size=rng.integers(1, 9))
            y = T.softmax(Tensor(x)).data
            assert np.all(y >= 0)
            assert abs(y.sum() - 1.0) <= 1e-12
            shifted = T.softmax(Tensor(x + 17.3)).data
            np.testing.assert_allclose(shifted, y, atol=1e-12)


class TestSigmoid:
    def test_large_negative_input_is_zero_without_warning(self):
        # exp(800) overflows to inf, and 1 / (1 + inf) is the right 0.0; the
        # suite turns numpy's overflow warning into an error
        assert T.sigmoid(Tensor([-800.0])).data[0] == 0.0
        assert T.sigmoid(Tensor([800.0])).data[0] == 1.0


class TestBackward:
    def test_sum_of_squares(self):
        tape = Tape()
        w = Parameter(np.array([1.0, 2.0]), "w")
        wt = tape.watch(w)
        loss = _total(_square(wt, tape), tape)
        backward(tape, loss)
        np.testing.assert_allclose(w.grad, [2.0, 4.0])

    def test_unreachable_parameter_untouched(self):
        tape = Tape()
        w = Parameter(np.array([1.0, 2.0]), "w")
        tape.watch(w)
        c = Tensor([3.0, 4.0])
        loss = _total(_square(c, tape), tape)
        backward(tape, loss)
        np.testing.assert_array_equal(w.grad, [0.0, 0.0])

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        wt = tape.watch(Parameter(np.array([1.0, 2.0]), "w"))
        with pytest.raises(DomainError):
            backward(tape, _square(wt, tape))

    def test_double_replay_doubles_gradient(self):
        tape = Tape()
        w = Parameter(np.array([1.0, 2.0]), "w")
        wt = tape.watch(w)
        loss = _total(_square(wt, tape), tape)
        backward(tape, loss)
        once = w.grad.copy()
        backward(tape, loss)
        np.testing.assert_array_equal(w.grad, 2.0 * once)

    def test_input_used_twice_in_one_op(self):
        tape = Tape()
        w = Parameter(np.array([3.0]), "w")
        wt = tape.watch(w)
        loss = _total(T.linear(wt, Tensor([[1.0]]), tape, wt), tape)  # w * 1 + w
        backward(tape, loss)
        assert w.grad[0] == pytest.approx(2.0)


class TestSgdStep:
    def test_basic_update(self):
        p = Parameter(np.array([5.0]), "w")
        p.grad[:] = 2.0
        sgd_step([p], 0.1)
        assert p.value[0] == pytest.approx(4.8)
        assert p.grad[0] == 0.0

    def test_zero_lr(self):
        p = Parameter(np.array([5.0]), "w")
        p.grad[:] = 2.0
        sgd_step([p], 0.0)
        assert p.value[0] == 5.0

    def test_two_steps_on_quadratic(self):
        # loss (w-3)^2 from w=0, lr=0.25: grad 2(w-3) -> w=1.5 then 2.25
        p = Parameter(np.array([0.0]), "w")
        for expected in (1.5, 2.25):
            tape = Tape()
            wt = tape.watch(p)
            diff = T.linear(wt, Tensor([[1.0]]), tape, Tensor([-3.0]))
            loss = _total(_square(diff, tape), tape)
            backward(tape, loss)
            sgd_step([p], 0.25)
            assert p.value[0] == pytest.approx(expected)

    def test_non_finite_grad_aborts_with_name(self):
        p = Parameter(np.array([1.0]), "mlp.w1")
        p.grad[:] = np.nan
        with pytest.raises(TrainingError, match="mlp.w1"):
            sgd_step([p], 0.1)
        assert p.value[0] == 1.0  # step aborted, value unchanged

    def test_huge_finite_gradient_is_not_refused(self):
        # its sum of squares overflows, so the elementwise recheck decides
        p = Parameter(np.array([5.0, 1.0]), "w")
        p.grad[:] = 1e200
        sgd_step([p], 0.5)
        np.testing.assert_array_equal(p.value, [5.0 - 5e199, 1.0 - 5e199])
        assert not p.grad.any()

    def test_nan_in_a_later_parameter_changes_no_parameter(self):
        first, second = Parameter(np.array([1.0, 2.0]), "a"), Parameter(np.zeros(2), "b")
        first.grad[:] = 3.0
        second.grad[:] = [0.0, np.nan]
        with pytest.raises(TrainingError, match="'b'"):
            sgd_step([first, second], 0.1)
        np.testing.assert_array_equal(first.value, [1.0, 2.0])
        np.testing.assert_array_equal(first.grad, [3.0, 3.0])


# Below this analytic gradient, the rounding noise of an eps=1e-6 central
# difference (about 1e-16 * |loss| / eps) is no longer small beside the 1e-6
# floor of the relative error, so those coordinates take a Richardson
# extrapolation of two wider central differences, (4 D(h/2) - D(h)) / 3: its
# truncation error is O(h^4) and its rounding noise 1e3 times smaller.
TINY_GRAD = 1e-5


def _check_grad(build, shapes, rng, tol=1e-4):
    """Analytic vs central-difference gradients for a composite op."""
    values = [rng.normal(size=s) for s in shapes]
    params = [Parameter(v.copy(), f"p{i}") for i, v in enumerate(values)]
    tape = Tape()
    loss = build([tape.watch(p) for p in params], tape)
    backward(tape, loss)

    for k, p in enumerate(params):
        def f(x, k=k):
            args = [Tensor(v if i != k else x) for i, v in enumerate(values)]
            return float(build(args, None).data)

        num = finite_difference(f, values[k].copy(), eps=1e-6)
        tiny = np.abs(p.grad) < TINY_GRAD
        if tiny.any():
            wide, half = (finite_difference(f, values[k].copy(), eps=h) for h in (1e-3, 5e-4))
            num = np.where(tiny, (4.0 * half - wide) / 3.0, num)
        err = np.abs(p.grad - num) / (np.abs(p.grad) + np.abs(num) + 1e-6)
        assert err.max() < tol, f"param {k}: max rel err {err.max():.2e}"


class TestGradientsAgainstFiniteDifferences:
    def test_matmul_chain(self, rng):
        def build(args, tape):
            a, b, c = args
            h = T.relu(T.linear(a, b, tape), tape)
            return _total(T.relu(T.linear(h, c, tape), tape), tape)

        _check_grad(build, [(4, 3), (5, 3), (2, 5)], rng)

    def test_softmax_log_pipeline(self, rng):
        # -sum log softmax(x), once a softmax, a log and a sum on the tape, is
        # the fused loss with every target 1; behind a product, so the
        # logits' gradient flows on into a weight
        x = rng.normal(size=6)
        want = -np.log(T.softmax(Tensor(x)).data).sum()
        assert T.softmax_cross_entropy(Tensor(x), np.ones(6)).item() == \
            pytest.approx(want, rel=1e-12)

        def build(args, tape):
            w, h = args
            return T.softmax_cross_entropy(T.linear(h, w, tape), np.ones(6), tape)

        _check_grad(build, [(6, 3), (3,)], rng)

    def test_attention_style_composition(self, rng):
        # row-wise attention over a batch of 3, its output beside u in a
        # concat fusion, then a biased head: u reaches the loss two ways
        def build(args, tape):
            u, v, w, b = args
            fused, _ = T.pair_attention(u, v, None, tape)
            both = T.pair_concat(fused, u, tape)
            return _total(T.sigmoid(T.linear(both, w, tape, b), tape), tape)

        _check_grad(build, [(3, 5), (3, 5), (2, 15), (2,)], rng)

    def test_neighbor_mean_and_readout(self, rng):
        # in-neighbor lists [[1, 2], [0], [2, 2, 1]] as an edge list (the
        # repeat counts twice), then a sum readout of rows {0}, {1, 2}
        dst = np.array([0, 0, 1, 2, 2, 2])
        src = np.array([1, 2, 0, 2, 2, 1])
        weight = 1.0 / np.array([2.0, 2.0, 1.0, 3.0, 3.0, 3.0])

        neighbors = T.Edges(dst, src, weight, 3, 3)

        def build(args, tape):
            (s,) = args
            agg = T.scatter_add(s, neighbors, tape)
            per_graph = T.segment_sum(agg, np.ones(3), [0, 1, 1], 2, tape)
            return _total(_square(per_graph, tape), tape)

        _check_grad(build, [(3, 4)], rng)

    def test_concat_transpose_bias(self, rng):
        def build(args, tape):
            w, x, b = args
            y = T.linear(x, w, tape, b)  # w @ x + b
            return _total(T.relu(T.pair_concat(y, b, tape), tape), tape)

        _check_grad(build, [(4, 3), (3,), (4,)], rng)

    def test_random_compositions(self, rng):
        # random deep chains over small dims
        for trial in range(10):
            depth = int(rng.integers(2, 5))
            dim = int(rng.integers(2, 8))

            def build(args, tape, depth=depth, dim=dim):
                (x,) = args
                cur = x
                for d in range(depth):
                    cur = T.relu(T.linear(cur, Tensor(np.eye(dim) * 0.7 + 0.1),
                                          tape), tape)
                return _total(_square(cur, tape), tape)

            _check_grad(build, [(dim,)], rng)


def _weighted(op):
    """A build that reduces ``op``'s output by ``_weights``, so each output
    entry gets its own upstream gradient (a plain sum gives softmax none)."""
    def build(args, tape):
        out = op(args, tape)
        return _total(out, tape, _weights(out.shape))
    return build


_EDGES = (np.array([0, 0, 1, 2, 2]), np.array([1, 2, 0, 2, 1]),
          np.array([0.5, 0.5, 1.0, 2.0, -1.0]))  # dst, src, weight
# in-lists sorted by row that reach every row: round 0 is a gather of every
# row, then two more rounds
_SORTED = (np.array([0, 0, 1, 2, 2, 2]), np.array([1, 2, 0, 2, 2, 1]),
           np.array([0.5, 0.5, 1.0, 2.0, -1.0, 0.25]))
# 1,000 one-node graphs, with an empty graph after every 100th: 1,010 out
# rows, so several blocks of ``segment_sum``
_ONE_NODE_GRAPHS = np.arange(1000) + np.arange(1000) // 100
_SOFT_TARGETS = np.array([[0.0, 2.0, 0.5, 0.0], [1.0, 0.0, 0.0, 0.0],
                          [0.25, 0.25, 0.25, 0.25]])  # rows that sum to 2.5, 1, 1

# taped primitive -> cases of (shapes of its traced operands, build to a scalar)
PRIMITIVE_CASES = {
    "linear": [
        ([(4, 3), (5, 3)], _weighted(lambda a, t: T.linear(a[0], a[1], t))),
        ([(3,), (5, 3)], _weighted(lambda a, t: T.linear(a[0], a[1], t))),
        ([(4, 3), (5, 3), (5,)], _weighted(lambda a, t: T.linear(a[0], a[1], t, a[2]))),
        ([(3,), (5, 3), (5,)], _weighted(lambda a, t: T.linear(a[0], a[1], t, a[2]))),
    ],
    "relu": [([(3, 4)], _weighted(lambda a, t: T.relu(a[0], t)))],
    "sigmoid": [([(3, 4)], _weighted(lambda a, t: T.sigmoid(a[0], t)))],
    "scatter_add": [
        ([(3, 4)], _weighted(lambda a, t: T.scatter_add(a[0], T.Edges(*_EDGES, 4, 3), t))),
        ([(3, 4)], _weighted(lambda a, t: T.scatter_add(  # an edge per row, in order
            a[0], T.Edges([0, 1, 2], [2, 0, 2], [1.5, -2.0, 0.5], 3, 3), t))),
        ([(3, 4)], _weighted(lambda a, t: T.scatter_add(
            a[0], T.Edges(*_SORTED, 3, 3), t))),
    ],
    "segment_sum": [
        ([(5, 3)], _weighted(lambda a, t: T.segment_sum(  # graphs 1 and 4 empty
            a[0], [2.0, 1.0, 3.0, 1.0, 0.5], [0, 0, 2, 2, 3], 5, t))),
        ([(1000, 1)], _weighted(lambda a, t: T.segment_sum(
            a[0], 1.0 + np.arange(1000) % 3, _ONE_NODE_GRAPHS, 1010, t))),
    ],
    "pair_attention": [  # squared-norm and learned scores, on rows and on vectors
        ([(3, 4), (3, 4)], _weighted(lambda a, t: T.pair_attention(a[0], a[1], None, t)[0])),
        ([(5,), (5,)], _weighted(lambda a, t: T.pair_attention(a[0], a[1], None, t)[0])),
        ([(3, 4), (3, 4), (4,)], _weighted(lambda a, t: T.pair_attention(*a, t)[0])),
        ([(5,), (5,), (5,)], _weighted(lambda a, t: T.pair_attention(*a, t)[0])),
    ],
    "pair_concat": [
        ([(3, 4), (3, 4)], _weighted(lambda a, t: T.pair_concat(a[0], a[1], t))),
        ([(5,), (5,)], _weighted(lambda a, t: T.pair_concat(a[0], a[1], t))),
    ],
    "softmax_cross_entropy": [
        ([(3, 4)], lambda a, t: T.softmax_cross_entropy(a[0], _SOFT_TARGETS, t)),
        ([(4,)], lambda a, t: T.softmax_cross_entropy(a[0], _SOFT_TARGETS[0], t)),
    ],
    "sigmoid_cross_entropy": [
        ([(3, 4)], lambda a, t: T.sigmoid_cross_entropy(a[0], _SOFT_TARGETS, t)),
        ([(4,)], lambda a, t: T.sigmoid_cross_entropy(a[0], _SOFT_TARGETS[0], t)),
    ],
}


def _emitters(module):
    """Names of the module's functions that call ``_emit``: its taped primitives."""
    tree = ast.parse(inspect.getsource(module))
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)
            and any(isinstance(call, ast.Call)
                    and getattr(call.func, "id", None) == "_emit"
                    for call in ast.walk(node))}


class TestPrimitiveGradients:
    def test_table_covers_every_taped_primitive(self):
        # a new primitive fails here until it has a finite-difference case
        assert set(PRIMITIVE_CASES) == _emitters(T)

    @pytest.mark.parametrize("name,i", [(name, i) for name, cases in PRIMITIVE_CASES.items()
                                        for i in range(len(cases))])
    def test_matches_finite_differences(self, rng, name, i):
        shapes, build = PRIMITIVE_CASES[name][i]
        _check_grad(build, shapes, rng)


class TestScatterAdd:
    def test_matches_edge_loop(self, rng):
        x = rng.normal(size=(5, 3))
        dst = rng.integers(0, 4, size=9)
        src = rng.integers(0, 5, size=9)
        w = rng.normal(size=9)
        want = np.zeros((4, 3))
        for d, s, c in zip(dst, src, w):
            want[d] += c * x[s]
        got = T.scatter_add(Tensor(x), T.Edges(dst, src, w, 4, 5)).data
        np.testing.assert_array_equal(got, want)  # each row summed in edge order

    def test_unreached_rows_are_zero(self):
        edges = T.Edges([0, 2], [0, 1], [1.0, 1.0], 4, 2)
        out = T.scatter_add(Tensor(np.ones((2, 3))), edges).data
        np.testing.assert_array_equal(out[[1, 3]], np.zeros((2, 3)))
        empty = T.Edges([], [], [], 2, 0)
        assert T.scatter_add(Tensor(np.zeros((0, 3))), empty).shape == (2, 3)

    def test_out_of_range_index_rejected(self):
        # a huge id is refused like any other, without memory sized by it
        for dst, src in (([0], [2]), ([1], [0]), ([-1], [0]), ([0], [-1]),
                         ([10**12], [0]), ([0], [-10**12])):
            with pytest.raises(DimensionError, match="below"):
                T.Edges(dst, src, [1.0], 1, 2)
        with pytest.raises(DimensionError, match="disagree"):
            T.Edges([0, 0], [0], [1.0, 1.0], 1, 2)
        with pytest.raises(DimensionError, match="needs 2 rows"):
            T.scatter_add(Tensor(np.ones((3, 3))), T.Edges([0], [1], [1.0], 1, 2))


def _random_edges(rng, n_out, n_in, in_lists):
    """A random edge list with 0 to 8 edges per out row and repeated pairs:
    shuffled, or (``in_lists``) sorted by row with every row reached, as
    (dst, src, weight)."""
    counts = rng.integers(1 if in_lists else 0, 9, size=n_out)
    dst = np.repeat(np.arange(n_out), counts)
    src = rng.integers(0, n_in, size=dst.size)
    src[1::3] = src[0:-1:3]  # repeated sources, and so repeated pairs
    weight = rng.normal(size=dst.size)
    if not in_lists:
        order = rng.permutation(dst.size)
        return dst[order], src[order], weight[order]
    return dst, src, weight


class TestEdgesAgainstBincount:
    """Rounds of gathers against the bincount over (edge, column) slots,
    bit for bit, forward and backward."""

    @pytest.mark.parametrize("in_lists", [False, True])
    def test_forward_and_backward_bit_equal(self, rng, in_lists):
        for trial in range(20):
            n_out, n_in = int(rng.integers(0, 7)), int(rng.integers(1, 7))
            dst, src, weight = _random_edges(rng, n_out, n_in, in_lists)
            edges = T.Edges(dst, src, weight, n_out, n_in)
            x = Parameter(rng.normal(size=(n_in, 5)), "x")
            g = rng.normal(size=(n_out, 5))  # the gradient of the output
            tape = Tape()
            out = T.scatter_add(tape.watch(x), edges, tape)
            assert np.array_equal(out.data, scatter_add_ref(x.value, dst, src, weight, n_out))
            backward(tape, _total(out, tape, g))
            assert np.array_equal(x.grad, scatter_add_ref(g, src, dst, weight, n_in))

    def test_rows_of_one_edge_are_one_gather(self, rng):
        # every row reached once, in row order: a single round that gathers
        edges = T.Edges([0, 1, 2], [2, 0, 2], [1.0, 2.0, 3.0], 3, 3)
        assert len(edges.rounds) == 1 and edges.rounds[0][0] is None
        # as many edges as rows, but not one per row: rounds as usual
        x = rng.normal(size=(3, 4))
        for dst in ([0, 0, 2], [2, 0, 1]):
            got = T.Edges(dst, [2, 0, 1], [1.0, 2.0, 3.0], 3, 3).apply(x)
            assert np.array_equal(got, scatter_add_ref(x, dst, [2, 0, 1], [1.0, 2.0, 3.0], 3))


class TestSegmentSum:
    """The block products against the bincount over (edge, column) slots,
    forward and backward."""

    @staticmethod
    def segments(rng, n):
        """Non-decreasing graph ids of 0 to 4 rows each: some graphs empty."""
        return np.repeat(np.arange(n), rng.integers(0, 5, size=n))

    def test_matches_bincount_reference(self, rng):
        for n in (0, 1, 5, T.SEGMENT_BLOCK, 3 * T.SEGMENT_BLOCK + 7, 200):
            seg = self.segments(rng, n)
            weight = rng.integers(1, 6, size=seg.size).astype(float)
            x = Parameter(rng.normal(size=(seg.size, 4)), "x")
            g = rng.normal(size=(n, 4))
            tape = Tape()
            out = T.segment_sum(tape.watch(x), weight, seg, n, tape)
            want = scatter_add_ref(x.value, seg, np.arange(seg.size), weight, n)
            np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)
            assert not out.data[np.bincount(seg, minlength=n) == 0].any()  # empty graphs
            backward(tape, _total(out, tape, g))
            np.testing.assert_allclose(
                x.grad, scatter_add_ref(g, np.arange(seg.size), seg, weight, seg.size),
                rtol=0, atol=1e-12)

    def test_one_row_graphs_use_memory_linear_in_rows(self, rng):
        # one (graphs, rows) matrix would be 4096 * 4096 * 8 bytes = 128 MiB
        n = 4096
        x = Parameter(rng.normal(size=(n, 8)), "x")
        tracemalloc.start()
        try:
            tape = Tape()
            out = T.segment_sum(tape.watch(x), np.ones(n), np.arange(n), n, tape)
            backward(tape, _total(out, tape))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(out.data, x.value)
        np.testing.assert_array_equal(x.grad, np.ones((n, 8)))
        # x, out, the gradients and SEGMENT_BLOCK * n block entries: under 2 MiB
        assert peak < 4 * 2**20, peak

    def test_bad_segments_rejected(self):
        x = Tensor(np.ones((3, 2)))
        for seg, n in (([0, 1, 3], 3), ([-1, 0, 0], 2)):
            with pytest.raises(DimensionError, match="below"):
                T.segment_sum(x, np.ones(3), seg, n)
        with pytest.raises(DimensionError, match="weight per row"):
            T.segment_sum(x, np.ones(2), [0, 0, 1], 2)
        n = T.SEGMENT_BLOCK + 1  # past one block, rows must come in segment order
        with pytest.raises(DimensionError, match="decrease"):
            T.segment_sum(x, np.ones(3), [0, n - 1, 1], n)
        # within one block, any order sums the same
        got = T.segment_sum(Tensor([[1.0], [2.0], [4.0]]), [1.0, 1.0, 1.0], [1, 0, 1], 2)
        np.testing.assert_array_equal(got.data, [[2.0], [5.0]])


class TestPairAttention:
    @pytest.mark.parametrize("learned", [False, True])
    def test_rows_match_vector_reference(self, rng, learned):
        a, b = rng.normal(size=(6, 5)), rng.normal(size=(6, 5))
        w = rng.normal(size=5) if learned else None
        out, alpha = T.pair_attention(Tensor(a), Tensor(b), None if w is None else Tensor(w))
        assert out.shape == (6, 5) and alpha.shape == (6, 2)
        for i in range(6):
            fused, want = attention_ref(a[i], b[i], w)
            np.testing.assert_allclose(out.data[i], fused, rtol=0, atol=1e-12)
            np.testing.assert_allclose(alpha[i], want, rtol=0, atol=1e-12)
            one, one_alpha = T.pair_attention(Tensor(a[i]), Tensor(b[i]),
                                              None if w is None else Tensor(w))
            np.testing.assert_allclose(one.data, fused, rtol=0, atol=1e-12)
            assert one_alpha.shape == (2,)

    def test_shapes_must_agree(self):
        with pytest.raises(DimensionError, match="disagree"):
            T.pair_attention(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3))))
        with pytest.raises(DimensionError, match="score vector"):
            T.pair_attention(Tensor(np.ones(3)), Tensor(np.ones(3)), Tensor(np.ones(4)))


class TestLinear:
    def test_matches_matmul_with_transposed_weight(self, rng):
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(5, 3))
        np.testing.assert_allclose(T.linear(Tensor(x), Tensor(w)).data,
                                   matmul_ref(x, w.T), atol=1e-12)

    def test_width_mismatch(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(5, 2\)"):
            T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((5, 2))))

    def test_bias_added_to_every_row(self, rng):
        x, w, b = rng.normal(size=(4, 3)), rng.normal(size=(5, 3)), rng.normal(size=5)
        got = T.linear(Tensor(x), Tensor(w), bias=Tensor(b)).data
        assert np.array_equal(got, x @ w.T + b)
        with pytest.raises(DimensionError, match="bias"):
            T.linear(Tensor(x), Tensor(w), bias=Tensor(np.zeros(3)))


class TestPairConcat:
    def test_matches_concatenation(self, rng):
        for shape in ((3, 4), (5,)):
            a, b = rng.normal(size=shape), rng.normal(size=shape)
            got = T.pair_concat(Tensor(a), Tensor(b)).data
            assert np.array_equal(got, np.concatenate([a, b, a * b], axis=-1))

    def test_shapes_must_agree(self):
        with pytest.raises(DimensionError, match="disagree"):
            T.pair_concat(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3))))
        with pytest.raises(DimensionError, match="disagree"):
            T.pair_concat(Tensor(np.ones((1, 2, 3))), Tensor(np.ones((1, 2, 3))))


class TestTensorInvariants:
    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            Tensor([1.0, np.nan])
        with pytest.raises(DomainError):
            Tensor([np.inf])

    @pytest.mark.parametrize("values", [[np.nan], [1.0, np.inf], [[2.0], [-np.inf]],
                                        [np.inf, -np.inf]])
    def test_every_non_finite_kind_rejected(self, values):
        with pytest.raises(DomainError):
            Tensor(values)
        bias = np.array(values, float).ravel()
        with pytest.raises(DomainError):
            T.linear(Tensor(np.zeros(1)), Tensor(np.zeros((bias.size, 1))), bias=T._wrap(bias))

    def test_finite_values_accepted(self):
        assert Tensor([1e308, 1e308]).shape == (2,)  # their sum would overflow
        assert Tensor(2.5).item() == 2.5
        assert Tensor(np.zeros((0, 3))).shape == (0, 3)
        assert Tensor([]).shape == (0,)

    def test_shape_data_consistency(self, rng):
        t = Tensor(rng.normal(size=(3, 4)))
        assert t.data.size == 12 and t.shape == (3, 4)


class TestUntracedInputs:
    def test_linear_computes_no_gradient_for_an_untraced_input(self, rng):
        xv, wv, bv = rng.normal(size=(4, 3)), rng.normal(size=(2, 3)), rng.normal(size=2)
        g = rng.normal(size=(4, 2))
        grads = {}
        for traced in (False, True):
            tape = Tape()
            w, b = Parameter(wv, "w"), Parameter(bv, "b")
            x = tape.watch(Parameter(xv, "x")) if traced else Tensor(xv)
            T.linear(x, tape.watch(w), tape, tape.watch(b))
            back = tape.steps[-1].back(g)
            assert (back[0] is None) == (not traced)
            grads[traced] = back[1:]
        for untraced, traced in zip(grads[False], grads[True]):
            assert np.array_equal(untraced, traced)

    def test_backward_with_an_untraced_input_gives_the_weight_gradient(self, rng):
        xv, wv = rng.normal(size=(4, 3)), rng.normal(size=(2, 3))
        tape = Tape()
        w = Parameter(wv, "w")
        w.zero_grad()  # dropped: backward adopts the product it computes
        loss = _total(T.linear(Tensor(xv), tape.watch(w), tape), tape)
        backward(tape, loss)
        np.testing.assert_array_equal(w.grad, np.ones((4, 2)).T @ xv)
