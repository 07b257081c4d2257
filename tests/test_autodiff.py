"""Tensor engine tests: forward oracles, adjoint checks, tape behavior."""

import gc
import math
import weakref

import numpy as np
import pytest

from crossdoc import autodiff as ad
from crossdoc.errors import ContractError, NumericError, ShapeError


def rand(rng, *shape):
    return ad.Tensor(rng.normal(size=shape), requires_grad=True)


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
        out = ad.add(ad.Tensor(x), 0.0)
        np.testing.assert_array_equal(out.data, x)

    def test_exp_log_inverse_pair(self):
        out = ad.exp(ad.log(ad.Tensor([2.0, 5.0])))
        np.testing.assert_allclose(out.data, [2.0, 5.0], atol=1e-12)

    def test_log_nonpositive_rejected(self):
        with pytest.raises(NumericError):
            ad.log(ad.Tensor([1.0, 0.0]))
        with pytest.raises(NumericError):
            ad.log(ad.Tensor([-1.0]))


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
        loss = ad.tensor_sum(ad.gelu(ad.matmul(x, w)))
        ad.backward(loss)
        assert np.all(np.isfinite(x.grad))
        assert np.all(np.isfinite(w.grad))


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
            loss = ad.tensor_sum(ad.gelu(ad.matmul(ad.scale(x, 0.5), w)))
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
        y = terms[0] + terms[1] if add_first else terms[1] + terms[0]
        ad.backward(ad.tensor_sum(y))
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])
        np.testing.assert_array_equal(a.grad, [6.0, 8.0])


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
OP_CASES = [
    ("add", lambda x, c: ad.tensor_sum(ad.mul(ad.add(x, c), ad.add(x, c)))),
    ("sub", lambda x, c: ad.tensor_sum(ad.mul(ad.sub(x, c), ad.sub(x, c)))),
    ("mul", lambda x, c: ad.tensor_sum(ad.mul(x, c))),
    ("div", lambda x, c: ad.tensor_sum(ad.div(x, ad.add(ad.mul(c, c), 1.0)))),
    ("div_denom", lambda x, c: ad.tensor_sum(ad.div(c, ad.add(ad.mul(x, x), 1.0)))),
    ("neg", lambda x, c: ad.tensor_sum(ad.mul(ad.neg(x), c))),
    ("scale", lambda x, c: ad.tensor_sum(ad.scale(x, 2.5))),
    ("exp", lambda x, c: ad.tensor_sum(ad.exp(ad.scale(x, 0.3)))),
    ("log", lambda x, c: ad.tensor_sum(ad.log(ad.add(ad.mul(x, x), 1.0)))),
    ("sqrt", lambda x, c: ad.tensor_sum(ad.sqrt(ad.add(ad.mul(x, x), 1.0)))),
    ("gelu", lambda x, c: ad.tensor_sum(ad.mul(ad.gelu(x), c))),
    ("sum_axis", lambda x, c: ad.tensor_sum(ad.mul(ad.tensor_sum(x, axis=-1, keepdims=True), 1.0))),
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

    def test_batched_matmul(self):
        rng = np.random.default_rng(7)
        b = ad.Tensor(rng.normal(size=(4, 6, 3)))
        x = rand(rng, 4, 2, 6)
        err = ad.finite_diff_check(lambda t: ad.tensor_sum(ad.mul(ad.matmul(t, b), ad.matmul(t, b))), x)
        assert err < 1e-4

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
            return ad.tensor_sum(ad.log(ad.add(h, 0.1)))

        assert ad.finite_diff_check(f, x) < 1e-4


def _attention_operands(rng, lead, masked, q_rows=3, k_rows=4, width=6):
    q = rng.normal(size=lead + (q_rows, width))
    k = rng.normal(size=lead + (k_rows, width))
    v = rng.normal(size=lead + (k_rows, width))
    key_bias = None
    if masked:
        keep = rng.random(lead + (k_rows,)) > 0.4
        keep[..., 0] = True
        key_bias = np.where(keep, 0.0, -np.inf)
    return {"q": q, "k": k, "v": v}, key_bias


class TestFusedOps:
    """The fused layer-norm, attention and contrastive nodes: every edge's
    adjoint against central differences, < 1e-4."""

    @pytest.mark.parametrize("shape", [(6,), (3, 6), (2, 3, 5)], ids=["1d", "2d", "3d"])
    @pytest.mark.parametrize("edge", ["x", "gamma", "beta"])
    def test_layer_norm_last(self, edge, shape):
        rng = np.random.default_rng(30)
        d = shape[-1]
        args = {"x": rng.normal(size=shape), "gamma": rng.normal(size=d), "beta": rng.normal(size=d)}
        target = ad.Tensor(rng.normal(size=shape))

        def f(t):
            inputs = {name: t if name == edge else ad.Tensor(a) for name, a in args.items()}
            return ad.tensor_sum(ad.mul(ad.layer_norm_last(**inputs, eps=1e-5), target))

        assert ad.finite_diff_check(f, ad.Tensor(args[edge], requires_grad=True)) < 1e-4

    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    @pytest.mark.parametrize("lead", [(), (2,)], ids=["2d", "3d"])
    @pytest.mark.parametrize("edge", ["q", "k", "v"])
    def test_attention_heads(self, edge, lead, masked):
        rng = np.random.default_rng(31)
        args, key_bias = _attention_operands(rng, lead, masked)
        target = ad.Tensor(rng.normal(size=args["q"].shape))

        def f(t):
            inputs = {name: t if name == edge else ad.Tensor(a) for name, a in args.items()}
            context, _ = ad.attention_heads(**inputs, num_heads=2, key_bias=key_bias)
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
        args, key_bias = _attention_operands(rng, (2,), masked=True)
        _, weights = ad.attention_heads(*map(ad.Tensor, args.values()), 2, key_bias)
        assert weights.shape == (2, 2, 3, 4)  # (batch, heads, q_rows, k_rows)
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-12)
        masked = np.broadcast_to(np.isinf(key_bias)[:, None, None, :], weights.shape)
        assert np.all(weights[masked] == 0.0)

    def test_attention_heads_all_masked_row_rejected(self):
        """One sample masks every key; the other sample's rows are finite."""
        rng = np.random.default_rng(34)
        args, _ = _attention_operands(rng, (2,), masked=False)
        key_bias = np.zeros((2, 4))
        key_bias[1] = -np.inf
        with pytest.raises(ContractError, match="no finite entry"):
            ad.attention_heads(*map(ad.Tensor, args.values()), 2, key_bias)

    @pytest.mark.parametrize("exclude_diag", [True, False])
    def test_contrastive_sum(self, exclude_diag):
        rng = np.random.default_rng(35)
        labels = np.array([0, 0, 1, 1, 1, 2])
        pos = (labels[:, None] == labels[None, :]).astype(float)
        if exclude_diag:
            np.fill_diagonal(pos, 0.0)
        weights = pos / np.maximum(pos.sum(axis=1, keepdims=True), 1.0)
        sim = ad.Tensor(rng.uniform(-1.0, 1.0, size=(6, 6)), requires_grad=True)
        f = lambda t: ad.contrastive_sum(t, weights, 0.2, exclude_diag)
        assert ad.finite_diff_check(f, sim) < 1e-4


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
