"""Tensor engine tests: forward oracles, adjoint checks, tape behavior."""

import gc
import math
import weakref

import numpy as np
import pytest

from crossdoc import autodiff as ad
from crossdoc.errors import ContractError, NumericError, ShapeError

from oracles import key_bias


def rand(rng, *shape):
    return ad.Tensor(rng.normal(size=shape), requires_grad=True)


def gelu_of(x):
    """``gelu``'s dense node with an identity weight and a zero bias: GELU
    of ``x`` elementwise."""
    n = x.shape[-1]
    return ad.gelu(x, ad.Tensor(np.eye(n, dtype=x.data.dtype)),
                   ad.Tensor(np.zeros(n, dtype=x.data.dtype)))


class TestMatmul:
    def test_identity(self):
        a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(ad.Tensor(np.eye(2)), a)
        np.testing.assert_array_equal(out.data, a.data)

    def test_zeros(self):
        out = ad.matmul(ad.Tensor(np.eye(2)), ad.Tensor(np.zeros((2, 2))))
        np.testing.assert_array_equal(out.data, np.zeros((2, 2)))

    def test_hand_evaluated_product(self):
        """[[1,2],[3,4]] @ [[5,6],[7,8]], evaluated by hand with scalar arithmetic."""
        out = ad.matmul(ad.Tensor([[1.0, 2.0], [3.0, 4.0]]), ad.Tensor([[5.0, 6.0], [7.0, 8.0]]))
        np.testing.assert_array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])

    def test_associativity(self):
        """(A @ B) @ C == A @ (B @ C) within 1e-9 on random small tensors."""
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b, c = rng.normal(size=(3, 4)), rng.normal(size=(4, 5)), rng.normal(size=(5, 2))
            lhs = ad.matmul(ad.matmul(ad.Tensor(a), ad.Tensor(b)), ad.Tensor(c)).data
            rhs = ad.matmul(ad.Tensor(a), ad.matmul(ad.Tensor(b), ad.Tensor(c))).data
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))

    def test_batched_right_operand_rejected(self):
        with pytest.raises(ShapeError, match=r"\(4, 2, 6\) @ \(4, 6, 3\)"):
            ad.matmul(ad.Tensor(np.ones((4, 2, 6))), ad.Tensor(np.ones((4, 6, 3))))

    @pytest.mark.parametrize("shape", [(3, 1), (1, 3), (4,), ()])
    def test_bias_of_another_shape_rejected(self, shape):
        with pytest.raises(ShapeError, match="bias must have shape"):
            ad.matmul(ad.Tensor(np.ones((2, 5))), ad.Tensor(np.ones((5, 3))),
                      ad.Tensor(np.ones(shape)))

    def test_batched_broadcast(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 3, 5))
        w = rng.normal(size=(5, 2))
        out = ad.matmul(ad.Tensor(a), ad.Tensor(w))
        np.testing.assert_allclose(out.data, a @ w)

    @pytest.mark.parametrize("left_shape", [(4, 3, 5), (2, 3, 4, 5)])
    def test_stack_times_matrix_matches_broadcast_formula(self, left_shape):
        """A stack times one matrix runs as single 2-d GEMMs.  Its forward and
        both adjoints equal numpy's broadcast formula up to float64
        summation-order error (rtol 1e-12, far above the ~1e-15 seen): the
        weight gradient is sum over the batch of swapaxes(a) @ g."""
        rng = np.random.default_rng(2)
        a = rand(rng, *left_shape)
        w = rand(rng, 5, 6)
        g = rng.normal(size=left_shape[:-1] + (6,))
        out = ad.matmul(a, w)
        ad.backward(ad.tensor_sum(ad.mul(out, ad.Tensor(g))))
        np.testing.assert_allclose(out.data, a.data @ w.data, rtol=1e-12)
        np.testing.assert_allclose(a.grad, g @ w.data.T, rtol=1e-12)
        batch_axes = tuple(range(len(left_shape) - 2))
        expected_w = (np.swapaxes(a.data, -1, -2) @ g).sum(axis=batch_axes)
        np.testing.assert_allclose(w.grad, expected_w, rtol=1e-12)

    def test_non_contiguous_stack_times_matrix(self):
        """A transposed (non-contiguous) stack goes through the same path."""
        rng = np.random.default_rng(3)
        x = rand(rng, 3, 5, 4)
        w = rand(rng, 5, 2)
        xt = ad.transpose_last2(x)
        assert not xt.data.flags.c_contiguous
        out = ad.matmul(xt, w)
        ad.backward(ad.tensor_sum(out))
        np.testing.assert_allclose(out.data, np.swapaxes(x.data, -1, -2) @ w.data, rtol=1e-12)
        np.testing.assert_allclose(x.grad, np.swapaxes(np.ones((3, 4, 2)) @ w.data.T, -1, -2),
                                   rtol=1e-12)
        np.testing.assert_allclose(w.grad, (x.data @ np.ones((3, 4, 2))).sum(axis=0), rtol=1e-12)


class TestSoftmax:
    def test_uniform_on_equal_inputs(self):
        out = ad.softmax_last(ad.Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_analytically_forced_ratio(self):
        """softmax([ln 2, 0]) = [2/3, 1/3] since exp(ln 2) = 2."""
        out = ad.softmax_last(ad.Tensor([math.log(2.0), 0.0]))
        np.testing.assert_allclose(out.data, [2 / 3, 1 / 3], atol=1e-15)

    def test_no_overflow_on_large_logits(self):
        out = ad.softmax_last(ad.Tensor([1000.0, 0.0]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        out = ad.softmax_last(ad.Tensor(rng.normal(size=(5, 7)) * 10))
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(out.data >= 0)

    def test_shift_invariance(self):
        """Adding a constant to a row does not change its softmax."""
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 6))
        base = ad.softmax_last(ad.Tensor(x)).data
        shifted = ad.softmax_last(ad.Tensor(x + 123.456)).data
        np.testing.assert_allclose(base, shifted, atol=1e-12)

    def test_neg_inf_entries_get_zero_weight(self):
        x = np.array([1.0, -np.inf, 2.0])
        out = ad.softmax_last(ad.Tensor(x))
        assert out.data[1] == 0.0
        np.testing.assert_allclose(out.data.sum(), 1.0, atol=1e-12)

    def test_all_masked_row_rejected(self):
        with pytest.raises(ContractError):
            ad.softmax_last(ad.Tensor([-np.inf, -np.inf]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "pos_inf"])
    def test_non_finite_entry_is_a_numeric_error(self, bad):
        with pytest.raises(NumericError, match="softmax_last"):
            ad.softmax_last(ad.Tensor([[0.0, 1.0], [bad, 0.0]]))


class TestElementwise:
    def test_mul_by_zero(self):
        out = ad.mul(ad.Tensor([1.0, 2.0, 3.0]), ad.Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 0.0])

    def test_add_zero_identity(self):
        x = np.array([1.5, -2.0, 7.0])
        out = ad.add(ad.Tensor(x), ad.Tensor(0.0))
        np.testing.assert_array_equal(out.data, x)

    def test_exp_log_inverse_pair(self):
        out = ad.exp(ad.log(ad.Tensor([2.0, 5.0])))
        np.testing.assert_allclose(out.data, [2.0, 5.0], atol=1e-12)

    def test_log_nonpositive_rejected(self):
        with pytest.raises(NumericError):
            ad.log(ad.Tensor([1.0, 0.0]))
        with pytest.raises(NumericError):
            ad.log(ad.Tensor([-1.0]))


ERF_EDGES = np.array([
    np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0),
    np.nextafter(-1.0, 0.0), -1.0, np.nextafter(-1.0, -2.0),
    6.0, -6.0, 0.0, -0.0, 1e300, -1e300,
])


def ulp_gap(a, b):
    """Units in the last place between float64 arrays of the same signs."""
    assert np.array_equal(np.signbit(a), np.signbit(b))
    return np.abs(a.view(np.int64) - b.view(np.int64))


class TestErf:
    """``gelu``'s numpy erf against the stdlib's (libm's) ``math.erf``."""

    def test_within_4_ulp_of_libm(self):
        x = np.concatenate([np.linspace(-7.0, 7.0, 140_001), ERF_EDGES])
        expected = np.array([math.erf(v) for v in x])
        assert ulp_gap(ad._erf(x), expected).max() <= 4

    def test_zero_keeps_its_sign(self):
        out = ad._erf(np.array([0.0, -0.0]))
        assert out.tolist() == [0.0, 0.0]
        assert np.signbit(out).tolist() == [False, True]

    def test_infinities_and_nan(self):
        out = ad._erf(np.array([np.inf, -np.inf, np.nan]))
        assert out[:2].tolist() == [1.0, -1.0]
        assert np.isnan(out[2])

    def test_float32_input_returns_float32(self):
        x = np.linspace(-3.0, 3.0, 61, dtype=np.float32)
        out = ad._erf(x)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, ad._erf(x.astype(np.float64)).astype(np.float32))
        assert gelu_of(ad.Tensor(x)).data.dtype == np.float32

    def test_layout_of_the_input_does_not_matter(self):
        x = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        np.testing.assert_array_equal(ad._erf(x.T), ad._erf(x).T)
        np.testing.assert_array_equal(ad._erf(x[:, ::2]), ad._erf(x)[:, ::2])

    def test_edge_inputs_raise_no_floating_point_error(self):
        with np.errstate(all="raise"):
            ad._erf(np.concatenate([ERF_EDGES, [np.inf, -np.inf, np.nan]]))


class TestDtype:
    def test_float32_data_stays_float32(self):
        x = np.arange(6, dtype=np.float32).reshape(2, 3)
        t = ad.Tensor(x)
        assert t.data is x

    @pytest.mark.parametrize("value", [
        [1, 2, 3], np.arange(3), 2, [0.5, 1.5], np.ones(2, np.float16), np.ones(2, np.float64),
    ], ids=["int_list", "int_array", "int", "float_list", "float16", "float64"])
    def test_everything_else_becomes_float64(self, value):
        t = ad.Tensor(value)
        assert t.data.dtype == np.float64
        np.testing.assert_array_equal(t.data, np.asarray(value, dtype=np.float64))

    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div, ad.matmul],
                             ids=["add", "sub", "mul", "div", "matmul"])
    @pytest.mark.parametrize("constant_first", [False, True])
    def test_float64_constant_widens_neither_node_nor_grad(self, op, constant_first):
        """The node takes its differentiable input's float32, and the
        parent's gradient stays float32.  The node is the float64 value
        rounded; the gradient may also round float32 intermediates."""
        rng = np.random.default_rng(7)
        x64 = rng.normal(size=(3, 3))
        const = ad.Tensor(rng.normal(size=(3, 3)) + 4.0)  # float64, away from zero
        x = ad.Tensor(x64.astype(np.float32), requires_grad=True)
        operands = (const, x) if constant_first else (x, const)
        out = op(*operands)
        assert out.data.dtype == np.float32
        ad.backward(ad.tensor_sum(out))
        assert x.grad.dtype == np.float32

        wide = ad.Tensor(x.data.astype(np.float64), requires_grad=True)
        ref = op(*((const, wide) if constant_first else (wide, const)))
        ad.backward(ad.tensor_sum(ref))
        np.testing.assert_array_equal(out.data, ref.data.astype(np.float32))
        np.testing.assert_allclose(x.grad, wide.grad, rtol=1e-6)

    def test_python_scalar_keeps_float32(self):
        x = ad.Tensor(np.ones(3, np.float32), requires_grad=True)
        out = ad.scale(x, 0.5)
        assert out.data.dtype == np.float32
        ad.backward(ad.tensor_sum(out))
        assert x.grad.dtype == np.float32


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = ad.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        ad.backward(ad.tensor_sum(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_analytic_quadratic(self):
        """d/dx sum(x * x) = 2x, so grad at [1, 2] is [2, 4]."""
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        ad.backward(ad.tensor_sum(ad.mul(x, x)))
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_non_scalar_loss_rejected(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            ad.backward(ad.mul(x, x))

    def test_accumulation_across_multiple_uses(self):
        """A tensor consumed twice receives the sum of both adjoints."""
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        y = ad.add(ad.tensor_sum(ad.mul(x, x)), ad.tensor_sum(ad.scale(x, 3.0)))
        ad.backward(y)
        np.testing.assert_array_equal(x.grad, [2.0 + 3.0, 4.0 + 3.0])

    def test_grads_finite_after_backward(self):
        rng = np.random.default_rng(4)
        x = rand(rng, 3, 4)
        w = rand(rng, 4, 2)
        b = rand(rng, 2)
        loss = ad.tensor_sum(ad.gelu(x, w, b))
        ad.backward(loss)
        assert np.all(np.isfinite(x.grad))
        assert np.all(np.isfinite(w.grad))
        assert np.all(np.isfinite(b.grad))


class TestMakeNode:
    """The one node constructor: parents, then one adjoint that gives every
    parent's contribution at once."""

    def test_adjoint_runs_once_per_backward_for_three_parents(self):
        a, b, c = (ad.Tensor([1.0, 2.0], requires_grad=True) for _ in range(3))
        calls = []

        def adjoint(g):
            calls.append(g)
            return g, 2.0 * g, 3.0 * g

        node = ad._make_node(a.data + 2.0 * b.data + 3.0 * c.data, "affine", (a, b, c), adjoint)
        assert node._parents == (a, b, c)
        ad.backward(ad.tensor_sum(node))
        assert len(calls) == 1
        for parent, factor in ((a, 1.0), (b, 2.0), (c, 3.0)):
            np.testing.assert_array_equal(parent.grad, [factor, factor])

    def test_a_constant_parent_is_not_recorded_and_gets_no_grad(self):
        constant = ad.Tensor([3.0, 4.0])
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        node = ad._make_node(constant.data * x.data, "mul", (constant, x),
                             lambda g: (g * x.data, g * constant.data))
        assert node._parents == (x,)
        ad.backward(ad.tensor_sum(node))
        assert constant.grad is None
        np.testing.assert_array_equal(x.grad, [3.0, 4.0])
        only_constants = ad._make_node(constant.data, "scale", (constant,), lambda g: (g,))
        assert not only_constants.requires_grad and only_constants._parents == ()

    @pytest.mark.parametrize("count", [1, 3])
    def test_an_adjoint_giving_the_wrong_number_of_contributions_raises(self, count):
        x, y = (ad.Tensor([1.0, 2.0], requires_grad=True) for _ in range(2))
        node = ad._make_node(x.data + y.data, "add", (x, y), lambda g: (g,) * count)
        with pytest.raises(ValueError):
            ad.backward(ad.tensor_sum(node))


class TestGradTape:
    def test_replay_visits_each_node_exactly_once(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        y = ad.mul(x, x)
        z = ad.add(y, y)
        loss = ad.tensor_sum(z)

        counts = {}
        for node in (y, z, loss):
            orig = node._backward

            def wrapped(node=node, orig=orig):
                counts[id(node)] = counts.get(id(node), 0) + 1
                orig()

            node._backward = wrapped
        ad.backward(loss)
        assert all(c == 1 for c in counts.values())
        assert len(counts) == 3

    def test_clear_drops_leaf_grads(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        tape = ad.backward(ad.tensor_sum(ad.mul(x, x)))
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])
        tape.clear()
        assert x.grad is None

    def test_backward_after_clear_repeats_leaf_grads(self):
        """A second backward over a fresh graph after clear() gives the same
        leaf grads as the first."""
        rng = np.random.default_rng(13)
        x = rand(rng, 3, 4, 5)
        w = rand(rng, 5, 2)

        def leaf_grads():
            loss = ad.tensor_sum(ad.gelu(ad.scale(x, 0.5), w, ad.Tensor(np.zeros(2))))
            tape = ad.backward(loss)
            grads = x.grad.copy(), w.grad.copy()
            tape.clear()
            return grads

        first, second = leaf_grads(), leaf_grads()
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])

    def test_tape_holds_exactly_the_leaves_reached(self):
        """Constants are not recorded; intermediates keep no grad, parents
        or adjoint once backward has run."""
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        w = ad.Tensor([3.0, 4.0], requires_grad=True)
        c = ad.Tensor([5.0, 6.0])
        inner = ad.mul(ad.add(x, c), w)
        loss = ad.tensor_sum(inner)
        tape = ad.backward(loss)
        assert {id(n) for n in tape.nodes} == {id(x), id(w)}
        assert len(tape.nodes) == 2
        for node in (inner, loss):
            assert node.grad is None and node._parents == ()
            assert node._backward is ad._noop

    def test_backward_frees_the_graph_without_the_cyclic_gc(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        gc.disable()
        try:
            hidden = ad.exp(x)
            alive = weakref.ref(hidden.data)
            loss = ad.tensor_sum(ad.mul(hidden, hidden))
            del hidden
            ad.backward(loss)
            del loss
            assert alive() is None
        finally:
            gc.enable()

    def test_backward_frees_each_intermediate_once_its_adjoint_has_run(self):
        """While the caller still holds the loss, an intermediate that only
        the graph held is gone by the time the leaf below it is reached."""
        w = ad.Tensor([1.0, 2.0], requires_grad=True)
        gc.disable()
        try:
            hidden = ad.exp(w)
            alive = weakref.ref(hidden.data)
            loss = ad.tensor_sum(ad.scale(hidden, 3.0))
            del hidden
            freed_when_w_arrived = []
            w.grad_hook = lambda: freed_when_w_arrived.append(alive() is None)
            ad.backward(loss)
            assert freed_when_w_arrived == [True]
        finally:
            gc.enable()

    def test_second_backward_over_a_consumed_graph_rejected(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        loss = ad.tensor_sum(ad.exp(x))
        ad.backward(loss)
        with pytest.raises(ContractError, match="consumed"):
            ad.backward(loss)

    @pytest.mark.parametrize("add_first", [True, False])
    def test_shared_gradient_array_is_never_written_in_place(self, add_first):
        """``add`` hands one array to both inputs; ``a``'s later contribution
        from ``mul`` must not change ``b``'s grad."""
        a = ad.Tensor([1.0, 2.0], requires_grad=True)
        b = ad.Tensor([3.0, 4.0], requires_grad=True)
        c = ad.Tensor([5.0, 7.0])
        terms = [ad.add(a, b), ad.mul(a, c)]
        y = ad.add(*terms) if add_first else ad.add(*reversed(terms))
        ad.backward(ad.tensor_sum(y))
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])
        np.testing.assert_array_equal(a.grad, [6.0, 8.0])


class TestGradHook:
    def test_hook_sees_the_final_gradient_of_a_leaf_used_twice(self):
        """``x`` feeds the last op and the first one; its hook runs once,
        after both contributions are summed."""
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        seen = []
        x.grad_hook = lambda: seen.append(x.grad.copy())
        deep = ad.exp(ad.scale(x, 3.0))
        ad.backward(ad.tensor_sum(ad.mul(deep, x)))
        assert len(seen) == 1
        e = np.exp(3.0 * np.array([1.0, 2.0]))
        np.testing.assert_array_equal(seen[0], x.grad)
        np.testing.assert_allclose(x.grad, e + 3.0 * e * np.array([1.0, 2.0]), rtol=1e-12)

    def test_hook_runs_right_after_the_last_adjoint_that_feeds_it(self):
        """A leaf used only by the final op is handed its gradient before the
        chain below that op is walked."""
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        w = ad.Tensor([3.0, 4.0], requires_grad=True)
        grads_of_x_when_w_arrived = []
        w.grad_hook = lambda: grads_of_x_when_w_arrived.append(x.grad)
        chain = ad.exp(ad.scale(ad.exp(x), 0.5))
        ad.backward(ad.tensor_sum(ad.mul(chain, w)))
        assert grads_of_x_when_w_arrived == [None]
        assert x.grad is not None

    def test_hook_may_take_the_gradient(self):
        """A hook that drops ``grad`` leaves the leaf without one; the tape
        still lists the leaf."""
        w = ad.Tensor([3.0, 4.0], requires_grad=True)
        taken = []

        def take():
            taken.append(w.grad)
            w.grad = None

        w.grad_hook = take
        tape = ad.backward(ad.tensor_sum(ad.mul(w, w)))
        assert w.grad is None
        np.testing.assert_array_equal(taken[0], [6.0, 8.0])
        assert [id(n) for n in tape.nodes] == [id(w)]

    def test_each_leaf_comes_right_before_its_first_consumer(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        w = ad.Tensor([3.0, 4.0], requires_grad=True)
        b = ad.Tensor([5.0, 6.0], requires_grad=True)
        h = ad.exp(x)
        y = ad.add(ad.mul(h, w), b)
        loss = ad.tensor_sum(y)
        order = ad._topo_order(loss)
        ids = [id(n) for n in order]
        assert ids == [id(x), id(h), id(w), id(y._parents[0]), id(b), id(y), id(loss)]


class TestFiniteDiffOracle:
    def test_sum_has_zero_error(self):
        rng = np.random.default_rng(5)
        err = ad.finite_diff_check(ad.tensor_sum, rand(rng, 3, 3))
        assert err < 1e-10

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ContractError):
            ad.finite_diff_check(ad.tensor_sum, ad.Tensor([1.0], requires_grad=True), step=0.0)

    def test_rejects_non_scalar_target(self):
        with pytest.raises(ContractError):
            ad.finite_diff_check(lambda t: t, ad.Tensor([1.0, 2.0], requires_grad=True))


# Every exported op, checked against central differences on randomized shapes.
ONE = ad.Tensor(1.0)
OP_CASES = [
    ("add", lambda x, c: ad.tensor_sum(ad.mul(ad.add(x, c), ad.add(x, c)))),
    ("sub", lambda x, c: ad.tensor_sum(ad.mul(ad.sub(x, c), ad.sub(x, c)))),
    ("mul", lambda x, c: ad.tensor_sum(ad.mul(x, c))),
    ("div", lambda x, c: ad.tensor_sum(ad.div(x, ad.add(ad.mul(c, c), ONE)))),
    ("div_denom", lambda x, c: ad.tensor_sum(ad.div(c, ad.add(ad.mul(x, x), ONE)))),
    ("neg", lambda x, c: ad.tensor_sum(ad.mul(ad.neg(x), c))),
    ("scale", lambda x, c: ad.tensor_sum(ad.scale(x, 2.5))),
    ("exp", lambda x, c: ad.tensor_sum(ad.exp(ad.scale(x, 0.3)))),
    ("log", lambda x, c: ad.tensor_sum(ad.log(ad.add(ad.mul(x, x), ONE)))),
    ("sqrt", lambda x, c: ad.tensor_sum(ad.sqrt(ad.add(ad.mul(x, x), ONE)))),
    ("gelu", lambda x, c: ad.tensor_sum(ad.mul(gelu_of(x), c))),
    ("sum_axis", lambda x, c: ad.tensor_sum(ad.mul(ad.tensor_sum(x, axis=-1, keepdims=True), ONE))),
    ("softmax_last", lambda x, c: ad.tensor_sum(ad.mul(ad.softmax_last(x), c))),
    ("logsumexp_last", lambda x, c: ad.tensor_sum(ad.logsumexp_last(x))),
    ("transpose_last2", lambda x, c: ad.tensor_sum(ad.mul(ad.transpose_last2(x), ad.transpose_last2(c)))),
    ("reshape", lambda x, c: ad.tensor_sum(ad.exp(ad.reshape(x, (-1,)))),),
    ("narrow", lambda x, c: ad.tensor_sum(ad.exp(ad.narrow(x, -1, 1, 3))),),
    ("concat", lambda x, c: ad.tensor_sum(ad.exp(ad.concat([x, x], axis=-1))),),
]


class TestGradientsMatchFiniteDifferences:
    """Adjoint of every exported op vs the central-difference oracle, < 1e-4."""

    @pytest.mark.parametrize("name,fn", OP_CASES, ids=[c[0] for c in OP_CASES])
    def test_op(self, name, fn):
        rng = np.random.default_rng(hash(name) % 2**32)
        for shape in [(4,), (3, 5), (4, 8, 8)]:
            if name in ("transpose_last2",) and len(shape) < 2:
                continue
            x = rand(rng, *shape)
            c = ad.Tensor(rng.normal(size=shape))
            err = ad.finite_diff_check(lambda t: fn(t, c), x)
            assert err < 1e-4, f"{name} on {shape}: rel err {err}"

    def test_matmul(self):
        rng = np.random.default_rng(6)
        b = ad.Tensor(rng.normal(size=(5, 4)))
        x = rand(rng, 3, 5)
        err = ad.finite_diff_check(lambda t: ad.tensor_sum(ad.mul(ad.matmul(t, b), ad.matmul(t, b))), x)
        assert err < 1e-4
        # right operand too
        a = ad.Tensor(rng.normal(size=(3, 5)))
        w = rand(rng, 5, 4)
        err = ad.finite_diff_check(lambda t: ad.tensor_sum(ad.exp(ad.scale(ad.matmul(a, t), 0.2))), w)
        assert err < 1e-4

    @pytest.mark.parametrize("left_shape", [(3, 2, 5), (2, 3, 2, 5)])
    def test_stack_times_matrix(self, left_shape):
        """(B..., n, k) @ (k, m), checked with respect to each operand."""
        rng = np.random.default_rng(len(left_shape))
        a_const = ad.Tensor(rng.normal(size=left_shape))
        w_const = ad.Tensor(rng.normal(size=(5, 4)))
        x = rand(rng, *left_shape)
        w = rand(rng, 5, 4)

        def f_left(t):
            return ad.tensor_sum(ad.mul(ad.matmul(t, w_const), ad.matmul(t, w_const)))

        def f_right(t):
            return ad.tensor_sum(ad.exp(ad.scale(ad.matmul(a_const, t), 0.2)))

        assert ad.finite_diff_check(f_left, x) < 1e-4
        assert ad.finite_diff_check(f_right, w) < 1e-4

    @pytest.mark.parametrize("edge", [0, 1, 2], ids=["x", "w", "bias"])
    def test_matmul_with_bias(self, edge):
        """``x @ w + bias`` over a (2, 3, 5) stack, one operand probed at a
        time; the bias adjoint sums the output gradient over the rows."""
        rng = np.random.default_rng(9)
        values = [rng.normal(size=(2, 3, 5)), rng.normal(size=(5, 4)), rng.normal(size=4)]
        c = ad.Tensor(rng.normal(size=(2, 3, 4)))

        def f(t):
            operands = [t if i == edge else ad.Tensor(v) for i, v in enumerate(values)]
            return ad.tensor_sum(ad.mul(gelu_of(ad.matmul(*operands)), c))

        assert ad.finite_diff_check(f, ad.Tensor(values[edge], requires_grad=True)) < 1e-4

    def test_broadcast_add(self):
        rng = np.random.default_rng(8)
        x = rand(rng, 4)
        big = ad.Tensor(rng.normal(size=(3, 4)))
        err = ad.finite_diff_check(lambda t: ad.tensor_sum(ad.exp(ad.add(big, t))), x)
        assert err < 1e-4

    def test_broadcast_to(self):
        rng = np.random.default_rng(9)
        x = rand(rng, 1, 4)
        err = ad.finite_diff_check(
            lambda t: ad.tensor_sum(ad.exp(ad.broadcast_to(t, (3, 4)))), x
        )
        assert err < 1e-4

    def test_gather_rows(self):
        rng = np.random.default_rng(10)
        table = rand(rng, 6, 3)
        idx = np.array([[0, 2, 2], [5, 1, 0]])
        err = ad.finite_diff_check(
            lambda t: ad.tensor_sum(ad.exp(ad.gather_rows(t, idx))), table
        )
        assert err < 1e-4

    def test_composite_chain(self):
        """A composite of many ops still matches finite differences."""
        rng = np.random.default_rng(11)
        w = ad.Tensor(rng.normal(size=(8, 8)))
        x = rand(rng, 4, 8, 8)

        def f(t):
            h = ad.matmul(t, w)
            h = ad.softmax_last(ad.scale(h, 0.5))
            return ad.tensor_sum(ad.log(ad.add(h, ad.Tensor(0.1))))

        assert ad.finite_diff_check(f, x) < 1e-4


def _attention_operands(rng, lead, masked, q_rows=3, k_rows=4, width=6):
    q = rng.normal(size=lead + (q_rows, width))
    k = rng.normal(size=lead + (k_rows, width))
    v = rng.normal(size=lead + (k_rows, width))
    bias = None
    if masked:
        keep = rng.random(lead + (k_rows,)) > 0.4
        keep[..., 0] = True
        bias = key_bias(keep)
    return {"q": q, "k": k, "v": v}, bias


class TestFusedOps:
    """The fused layer-norm, attention and contrastive nodes: every edge's
    adjoint against central differences, < 1e-4."""

    @pytest.mark.parametrize("shape", [(6,), (3, 6), (2, 3, 5)], ids=["1d", "2d", "3d"])
    @pytest.mark.parametrize("edge, with_residual", [
        ("h", False), ("gamma", False), ("beta", False), ("weight", False), ("bias", False),
        ("h", True), ("gamma", True), ("beta", True), ("residual", True),
        ("weight", True), ("bias", True),
    ], ids=["x", "gamma", "beta", "weight", "bias", "x+res", "gamma+res", "beta+res", "residual",
            "weight+res", "bias+res"])
    def test_layer_norm_last(self, edge, with_residual, shape):
        """The post-norm node's edges: ``h`` is ``shape`` and projects to one
        more column than it has, so a transposed weight adjoint shows."""
        rng = np.random.default_rng(30)
        out_shape = shape[:-1] + (shape[-1] + 1,)
        d = out_shape[-1]
        args = {"h": rng.normal(size=shape), "weight": rng.normal(size=(shape[-1], d)),
                "bias": rng.normal(size=d), "gamma": rng.normal(size=d), "beta": rng.normal(size=d)}
        target = ad.Tensor(rng.normal(size=out_shape))
        if with_residual:
            args["residual"] = rng.normal(size=out_shape)

        def f(t):
            inputs = {name: t if name == edge else ad.Tensor(a) for name, a in args.items()}
            return ad.tensor_sum(ad.mul(ad.layer_norm_last(**inputs, eps=1e-5), target))

        assert ad.finite_diff_check(f, ad.Tensor(args[edge], requires_grad=True)) < 1e-4

    def test_layer_norm_last_with_x_as_its_own_residual(self):
        """``h`` is also the residual: its two contributions, through the
        weight and directly, are summed out of place."""
        rng = np.random.default_rng(36)
        weight, bias = ad.Tensor(rng.normal(size=(5, 5))), ad.Tensor(rng.normal(size=5))
        gamma, beta = ad.Tensor(rng.normal(size=5)), ad.Tensor(rng.normal(size=5))
        target = ad.Tensor(rng.normal(size=(3, 5)))

        def f(t):
            out = ad.layer_norm_last(t, weight, bias, gamma, beta, 1e-5, residual=t)
            return ad.tensor_sum(ad.mul(out, target))

        assert ad.finite_diff_check(f, ad.Tensor(rng.normal(size=(3, 5)), requires_grad=True)) < 1e-4

    def test_layer_norm_last_residual_of_another_shape_rejected(self):
        x = ad.Tensor(np.ones((3, 4)))
        weight, bias = ad.Tensor(np.eye(4)), ad.Tensor(np.zeros(4))
        gamma, beta = ad.Tensor(np.ones(4)), ad.Tensor(np.zeros(4))
        with pytest.raises(ShapeError, match=r"residual \(4,\) does not match \(3, 4\)"):
            ad.layer_norm_last(x, weight, bias, gamma, beta, 1e-5, residual=ad.Tensor(np.ones(4)))

    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    @pytest.mark.parametrize("lead", [(), (2,)], ids=["2d", "3d"])
    @pytest.mark.parametrize("edge", ["q", "k", "v"])
    def test_attention_heads(self, edge, lead, masked):
        rng = np.random.default_rng(31)
        args, bias = _attention_operands(rng, lead, masked)
        target = ad.Tensor(rng.normal(size=args["q"].shape))

        def f(t):
            inputs = {name: t if name == edge else ad.Tensor(a) for name, a in args.items()}
            context, _ = ad.attention_heads(**inputs, num_heads=2, key_bias=bias)
            return ad.tensor_sum(ad.mul(context, target))

        assert ad.finite_diff_check(f, ad.Tensor(args[edge], requires_grad=True)) < 1e-4

    def test_attention_heads_with_every_edge_from_one_input(self):
        """q, k and v all depend on x, so the q and k edges share one
        softmax adjoint within the same backward."""
        rng = np.random.default_rng(32)
        x = ad.Tensor(rng.normal(size=(2, 4, 6)), requires_grad=True)
        target = ad.Tensor(rng.normal(size=(2, 4, 6)))

        def f(t):
            context, _ = ad.attention_heads(t, ad.scale(t, 0.7), ad.exp(ad.scale(t, 0.3)), 3)
            return ad.tensor_sum(ad.mul(context, target))

        assert ad.finite_diff_check(f, x) < 1e-4

    def test_attention_heads_weights_are_the_masked_softmax(self):
        rng = np.random.default_rng(33)
        args, bias = _attention_operands(rng, (2,), masked=True)
        _, weights = ad.attention_heads(*map(ad.Tensor, args.values()), 2, bias)
        assert weights.shape == (2, 2, 3, 4)  # (batch, heads, q_rows, k_rows)
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-12)
        masked = np.broadcast_to(np.isinf(bias)[:, None, None, :], weights.shape)
        assert np.all(weights[masked] == 0.0)

    def test_attention_heads_all_masked_row_rejected(self):
        """One sample masks every key; the other sample's rows are finite."""
        rng = np.random.default_rng(34)
        args, _ = _attention_operands(rng, (2,), masked=False)
        bias = key_bias([[True] * 4, [False] * 4])
        with pytest.raises(ContractError, match="no finite entry"):
            ad.attention_heads(*map(ad.Tensor, args.values()), 2, bias)

    @pytest.mark.parametrize("bias_shape", [(3,), (2, 5)], ids=["short", "long"])
    def test_attention_heads_key_bias_of_another_length_rejected(self, bias_shape):
        """The bias's last axis must be the key rows (4); the error names both shapes."""
        rng = np.random.default_rng(37)
        args, _ = _attention_operands(rng, (2,), masked=False)
        with pytest.raises(ShapeError, match=rf"key bias \({bias_shape[0]}.*keys \(2, 4, 6\)"):
            ad.attention_heads(*map(ad.Tensor, args.values()), 2, np.zeros(bias_shape))

    def test_contrastive_sum(self):
        rng = np.random.default_rng(35)
        labels = np.array([0, 0, 1, 1, 1, 2])
        pos = (labels[:, None] == labels[None, :]).astype(float)
        np.fill_diagonal(pos, 0.0)
        weights = pos / np.maximum(pos.sum(axis=1, keepdims=True), 1.0)
        sim = ad.Tensor(rng.uniform(-1.0, 1.0, size=(6, 6)), requires_grad=True)
        f = lambda t: ad.contrastive_sum(t, weights, 0.2)
        assert ad.finite_diff_check(f, sim) < 1e-4


def _matmul_then_layer_norm(h, weight, bias, gamma, beta, eps, residual):
    """The post-norm step as two nodes: a ``matmul`` node, then a layer norm
    node with the closed-form adjoint over ``x + residual``.  The reference
    that ``layer_norm_last`` must equal to the bit."""
    x = ad.matmul(h, weight, bias)
    s = x.data + residual.data
    d = s.shape[-1]
    mu = s.sum(axis=-1, keepdims=True) * (1.0 / d)
    centered = s - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) * (1.0 / d)
    std = np.sqrt(var + eps)
    xhat = centered / std
    inv = 1.0 / std
    gam = gamma.data

    def adjoint(g):
        gg = g * gam
        ds = inv * (gg - gg.mean(axis=-1, keepdims=True)
                    - xhat * (gg * xhat).mean(axis=-1, keepdims=True))
        return ds, g * xhat, g, ds

    return ad._make_node(xhat * gam + beta.data, "layer_norm", (x, gamma, beta, residual), adjoint)


def _matmul_then_gelu(x, weight, bias):
    """``gelu(x @ weight + bias)`` as two nodes, a ``matmul`` node and a
    GELU node that keeps its input and CDF and forms the derivative in its
    adjoint.  The reference that ``gelu`` must equal to the bit."""
    x = ad.matmul(x, weight, bias)
    s = x.data
    cdf = 0.5 * (1.0 + ad._erf(s * ad._INV_SQRT2))

    def adjoint(g):
        pdf = np.exp(-0.5 * s * s) * ad._INV_SQRT2PI
        return (g * (cdf + s * pdf),)

    return ad._make_node(s * cdf, "gelu", (x,), adjoint)


def _patches_chain(patches, weight, bias, cls_row, positions):
    """``embed_patches`` as the ``matmul``, ``broadcast_to``, ``concat`` and
    ``add`` nodes it replaces."""
    cls = ad.broadcast_to(cls_row, patches.shape[:-2] + cls_row.shape)
    return ad.add(ad.concat([cls, ad.matmul(patches, weight, bias)], axis=-2), positions)


def _tokens_chain(table, indices, positions):
    """``embed_tokens`` as the ``gather_rows`` and ``add`` nodes it replaces."""
    return ad.add(ad.gather_rows(table, indices), positions)


def _backward_through(out, target, upstream):
    """Backward from ``upstream * sum(out * target)``: the gradient reaching
    ``out`` is ``upstream * target``.  Returns the tape."""
    return ad.backward(ad.scale(ad.tensor_sum(ad.mul(out, target)), upstream))


@pytest.mark.parametrize("upstream", [1.0, -2.5])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
class TestFusedNodesAreExact:
    """The fused nodes against the nodes they replace: the same value and
    the same gradients, to the bit."""

    def test_post_norm_equals_matmul_then_layer_norm(self, dtype, upstream):
        rng = np.random.default_rng(40)
        shapes = {"h": (2, 3, 6), "weight": (6, 8), "bias": (8,), "gamma": (8,), "beta": (8,),
                  "residual": (2, 3, 8)}
        values = {name: rng.normal(size=shape).astype(dtype) for name, shape in shapes.items()}
        target = ad.Tensor(rng.normal(size=(2, 3, 8)).astype(dtype))
        results = []
        for build in (ad.layer_norm_last, _matmul_then_layer_norm):
            inputs = {name: ad.Tensor(v.copy(), requires_grad=True) for name, v in values.items()}
            args = [inputs[name] for name in ("h", "weight", "bias", "gamma", "beta")]
            out = build(*args, 1e-5, inputs["residual"])
            value = out.data
            _backward_through(out, target, upstream)
            results.append((value, {name: t.grad for name, t in inputs.items()}))
        (fused, fused_grads), (ref, ref_grads) = results
        assert fused.dtype == dtype
        np.testing.assert_array_equal(fused, ref)
        for name in shapes:
            assert fused_grads[name].dtype == dtype
            np.testing.assert_array_equal(fused_grads[name], ref_grads[name], err_msg=name)

    @pytest.mark.parametrize("same", [False, True], ids=["two_inputs", "updated_is_previous"])
    def test_gate_equals_mul_then_add(self, dtype, upstream, same):
        """Also when ``previous`` already holds a gradient, which the sum's
        and then the product's contributions are added to, in that order."""
        rng = np.random.default_rng(41)
        u, p, held = (rng.normal(size=(3, 5)).astype(dtype) for _ in range(3))
        target = ad.Tensor(rng.normal(size=(3, 5)).astype(dtype))
        results = []
        for build in (ad.gate, lambda a, b: ad.add(ad.mul(a, b), b)):
            previous = ad.Tensor(p.copy(), requires_grad=True)
            updated = previous if same else ad.Tensor(u.copy(), requires_grad=True)
            previous.grad = held.copy()
            out = build(updated, previous)
            value = out.data
            _backward_through(out, target, upstream)
            results.append((value, previous.grad, updated.grad))
        (fused, *fused_grads), (ref, *ref_grads) = results
        assert fused.dtype == dtype
        np.testing.assert_array_equal(fused, ref)
        for got, want in zip(fused_grads, ref_grads):
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("lead", [(), (2, 3)], ids=["2d", "4d"])
    def test_gelu_equals_matmul_then_gelu(self, dtype, upstream, lead):
        rng = np.random.default_rng(42)
        shapes = {"x": lead + (4, 6), "weight": (6, 5), "bias": (5,)}
        values = {name: rng.normal(size=shape).astype(dtype) for name, shape in shapes.items()}
        target = ad.Tensor(rng.normal(size=lead + (4, 5)).astype(dtype))
        results = []
        for build in (ad.gelu, _matmul_then_gelu):
            inputs = {name: ad.Tensor(v.copy(), requires_grad=True) for name, v in values.items()}
            out = build(*inputs.values())
            value = out.data
            _backward_through(out, target, upstream)
            results.append((value, {name: t.grad for name, t in inputs.items()}))
        (fused, fused_grads), (ref, ref_grads) = results
        assert fused.dtype == dtype
        np.testing.assert_array_equal(fused, ref)
        for name in shapes:
            assert fused_grads[name].dtype == dtype
            np.testing.assert_array_equal(fused_grads[name], ref_grads[name], err_msg=name)

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["2d", "3d"])
    @pytest.mark.parametrize("fused, chain", [(ad.embed_patches, _patches_chain),
                                              (ad.embed_tokens, _tokens_chain)],
                             ids=["patches", "tokens"])
    def test_encoder_node_equals_its_chain(self, dtype, upstream, fused, chain, lead):
        """The value, every gradient, and the order in which the backward
        reaches the parameters; the token ids repeat, so the scatter-add
        sums."""
        rng = np.random.default_rng(43)
        if fused is ad.embed_patches:
            shapes = {"patches": lead + (4, 3), "weight": (3, 6), "bias": (6,), "cls_row": (1, 6),
                      "positions": (5, 6)}
            constants = {}
        else:
            shapes = {"table": (7, 6), "positions": (5, 6)}
            constants = {"indices": rng.integers(0, 4, size=lead + (5,))}
        values = {name: rng.normal(size=shape).astype(dtype) for name, shape in shapes.items()}
        target = ad.Tensor(rng.normal(size=lead + (5, 6)).astype(dtype))
        results = []
        for build in (fused, chain):
            inputs = {name: ad.Tensor(v.copy(), requires_grad=True) for name, v in values.items()}
            out = build(**inputs, **constants)
            value = out.data
            tape = _backward_through(out, target, upstream)
            names = {id(t): name for name, t in inputs.items()}
            results.append((value, {name: t.grad for name, t in inputs.items()},
                            [names[id(leaf)] for leaf in tape.nodes]))
        (fused_value, fused_grads, fused_order), (ref, ref_grads, ref_order) = results
        assert fused_value.dtype == dtype
        np.testing.assert_array_equal(fused_value, ref)
        for name in shapes:
            assert fused_grads[name].dtype == dtype
            np.testing.assert_array_equal(fused_grads[name], ref_grads[name], err_msg=name)
        assert fused_order == ref_order


def test_gelu_computes_no_derivative_when_nothing_requires_grad(monkeypatch):
    """A forward that records no edge, as the probe's frozen embedding is,
    never forms GELU's derivative; one that records an edge does."""
    rng = np.random.default_rng(44)
    x, weight, bias = (rng.normal(size=shape) for shape in ((3, 4), (4, 2), (2,)))
    calls = []
    derivative = ad._gelu_derivative
    monkeypatch.setattr(ad, "_gelu_derivative", lambda *a: calls.append(1) or derivative(*a))
    frozen = ad.gelu(ad.Tensor(x), ad.Tensor(weight), ad.Tensor(bias))
    assert calls == [] and not frozen.requires_grad
    ad.gelu(ad.Tensor(x), ad.Tensor(weight), ad.Tensor(bias, requires_grad=True))
    assert calls == [1]


class TestShapeOps:
    def test_narrow_out_of_range(self):
        with pytest.raises(ShapeError):
            ad.narrow(ad.Tensor(np.ones((2, 3))), -1, 2, 2)

    def test_gather_rows_bad_index(self):
        with pytest.raises(ShapeError):
            ad.gather_rows(ad.Tensor(np.ones((3, 2))), np.array([3]))

    def test_concat_roundtrip_with_narrow(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(2, 5))
        t = ad.Tensor(x)
        rebuilt = ad.concat([ad.narrow(t, -1, 0, 2), ad.narrow(t, -1, 2, 3)], axis=-1)
        np.testing.assert_array_equal(rebuilt.data, x)
