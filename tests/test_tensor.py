import numpy as np
import pytest

from oracles import finite_difference, matmul_ref
from symgraph import tensor as T
from symgraph.errors import DimensionError, DomainError, TrainingError
from symgraph.tensor import Parameter, Tape, Tensor, backward, sgd_step


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
            loss = T.sum_all(T.relu(xt, tape), tape)
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


class TestBackward:
    def test_sum_of_squares(self):
        tape = Tape()
        w = Parameter(np.array([1.0, 2.0]), "w")
        wt = tape.watch(w)
        loss = T.sum_all(T.mul(wt, wt, tape), tape)
        backward(tape, loss)
        np.testing.assert_allclose(w.grad, [2.0, 4.0])

    def test_unreachable_parameter_untouched(self):
        tape = Tape()
        w = Parameter(np.array([1.0, 2.0]), "w")
        tape.watch(w)
        c = Tensor([3.0, 4.0])
        loss = T.sum_all(T.mul(c, c, tape), tape)
        backward(tape, loss)
        np.testing.assert_array_equal(w.grad, [0.0, 0.0])

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        wt = tape.watch(Parameter(np.array([1.0, 2.0]), "w"))
        with pytest.raises(DomainError):
            backward(tape, T.mul(wt, wt, tape))

    def test_double_replay_doubles_gradient(self):
        tape = Tape()
        w = Parameter(np.array([1.0, 2.0]), "w")
        wt = tape.watch(w)
        loss = T.sum_all(T.mul(wt, wt, tape), tape)
        backward(tape, loss)
        once = w.grad.copy()
        backward(tape, loss)
        np.testing.assert_array_equal(w.grad, 2.0 * once)

    def test_input_used_twice_in_one_op(self):
        tape = Tape()
        w = Parameter(np.array([3.0]), "w")
        wt = tape.watch(w)
        loss = T.sum_all(T.add(wt, wt, tape), tape)
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
            diff = T.add_const(wt, -3.0, tape)
            loss = T.sum_all(T.mul(diff, diff, tape), tape)
            backward(tape, loss)
            sgd_step([p], 0.25)
            assert p.value[0] == pytest.approx(expected)

    def test_non_finite_grad_aborts_with_name(self):
        p = Parameter(np.array([1.0]), "mlp.w1")
        p.grad[:] = np.nan
        with pytest.raises(TrainingError, match="mlp.w1"):
            sgd_step([p], 0.1)
        assert p.value[0] == 1.0  # step aborted, value unchanged


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
        err = np.abs(p.grad - num) / (np.abs(p.grad) + np.abs(num) + 1e-6)
        assert err.max() < tol, f"param {k}: max rel err {err.max():.2e}"


class TestGradientsAgainstFiniteDifferences:
    def test_matmul_chain(self, rng):
        def build(args, tape):
            a, b, c = args
            h = T.relu(T.linear(a, b, tape), tape)
            return T.sum_all(T.relu(T.linear(h, c, tape), tape), tape)

        _check_grad(build, [(4, 3), (5, 3), (2, 5)], rng)

    def test_softmax_log_pipeline(self, rng):
        def build(args, tape):
            (x,) = args
            p = T.softmax(x, tape)
            return T.scale(T.sum_all(T.log(T.add_const(p, 1e-12, tape), tape), tape),
                           -1.0, tape)

        _check_grad(build, [(6,)], rng)

    def test_attention_style_composition(self, rng):
        # row-wise attention over a batch of 3: column scores, row softmax,
        # and (3, 1) weight columns broadcast over the (3, 5) rows
        ones = Tensor(np.ones((1, 5)))

        def build(args, tape):
            u, v = args
            su = T.linear(T.mul(u, u, tape), ones, tape)
            sv = T.linear(T.mul(v, v, tape), ones, tape)
            alpha = T.softmax(T.concat([su, sv], tape), tape)
            a_u = T.linear(alpha, Tensor([[1.0, 0.0]]), tape)
            a_v = T.linear(alpha, Tensor([[0.0, 1.0]]), tape)
            fused = T.add(T.mul(a_u, u, tape), T.mul(a_v, v, tape), tape)
            return T.sum_all(T.sigmoid(fused, tape), tape)

        _check_grad(build, [(3, 5), (3, 5)], rng)

    def test_neighbor_mean_and_readout(self, rng):
        # in-neighbor lists [[1, 2], [0], [2, 2, 1]] as an edge list (the
        # repeat counts twice), then a sum readout of rows {0}, {1, 2}
        dst = np.array([0, 0, 1, 2, 2, 2])
        src = np.array([1, 2, 0, 2, 2, 1])
        weight = 1.0 / np.array([2.0, 2.0, 1.0, 3.0, 3.0, 3.0])

        def build(args, tape):
            (s,) = args
            agg = T.scatter_add(s, dst, src, weight, 3, tape)
            per_graph = T.scatter_add(agg, [0, 1, 1], np.arange(3), np.ones(3), 2, tape)
            return T.sum_all(T.mul(per_graph, per_graph, tape), tape)

        _check_grad(build, [(3, 4)], rng)

    def test_concat_transpose_bias(self, rng):
        def build(args, tape):
            w, x, b = args
            y = T.linear(x, w, tape)  # w @ x
            return T.sum_all(T.relu(T.add(T.concat([y, y], tape),
                                          T.concat([b, b], tape), tape), tape), tape)

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
                return T.sum_all(T.mul(cur, cur, tape), tape)

            _check_grad(build, [(dim,)], rng)


class TestScatterAdd:
    def test_matches_edge_loop(self, rng):
        x = rng.normal(size=(5, 3))
        dst = rng.integers(0, 4, size=9)
        src = rng.integers(0, 5, size=9)
        w = rng.normal(size=9)
        want = np.zeros((4, 3))
        for d, s, c in zip(dst, src, w):
            want[d] += c * x[s]
        got = T.scatter_add(Tensor(x), dst, src, w, 4).data
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_unreached_rows_are_zero(self):
        out = T.scatter_add(Tensor(np.ones((2, 3))), [0, 2], [0, 1], [1.0, 1.0], 4).data
        np.testing.assert_array_equal(out[[1, 3]], np.zeros((2, 3)))
        assert T.scatter_add(Tensor(np.zeros((0, 3))), [], [], [], 2).shape == (2, 3)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(DimensionError):
            T.scatter_add(Tensor(np.ones((2, 3))), [0], [2], [1.0], 1)
        with pytest.raises(DimensionError):
            T.scatter_add(Tensor(np.ones((2, 3))), [1], [0], [1.0], 1)


class TestLinear:
    def test_matches_matmul_with_transposed_weight(self, rng):
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(5, 3))
        np.testing.assert_allclose(T.linear(Tensor(x), Tensor(w)).data,
                                   matmul_ref(x, w.T), atol=1e-12)

    def test_width_mismatch(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(5, 2\)"):
            T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((5, 2))))

    def test_gradient(self, rng):
        def build(args, tape):
            x, w = args
            return T.sum_all(T.relu(T.linear(x, w, tape), tape), tape)

        _check_grad(build, [(4, 3), (5, 3)], rng)


class TestTensorInvariants:
    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            Tensor([1.0, np.nan])
        with pytest.raises(DomainError):
            Tensor([np.inf])

    @pytest.mark.parametrize("values", [[np.nan], [1.0, np.inf], [[2.0], [-np.inf]],
                                        [np.inf, -np.inf]])
    @pytest.mark.filterwarnings("ignore:invalid value")  # inf + -inf in the sum
    def test_every_non_finite_kind_rejected(self, values):
        with pytest.raises(DomainError):
            Tensor(values)
        with pytest.raises(DomainError):
            T.add(Tensor(np.zeros(np.shape(values))), T._wrap(np.array(values, float)))

    def test_finite_values_accepted(self):
        with np.errstate(over="ignore"):  # the sum overflows; every value is finite
            assert Tensor([1e308, 1e308]).shape == (2,)
        assert Tensor(2.5).item() == 2.5
        assert Tensor(np.zeros((0, 3))).shape == (0, 3)
        assert Tensor([]).shape == (0,)

    def test_shape_data_consistency(self, rng):
        t = Tensor(rng.normal(size=(3, 4)))
        assert t.data.size == 12 and t.shape == (3, 4)
