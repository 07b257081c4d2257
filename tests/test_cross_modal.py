"""Cross-modal block tests against step-by-step scalar oracles."""

import numpy as np
import pytest

from crossdoc import autodiff as ad
from crossdoc import cross_modal as cm
from crossdoc import nn
from crossdoc.autodiff import Tensor
from crossdoc.errors import ShapeError

from oracles import key_bias, scalar_cross_attention_block, scalar_gated_self_attention, scalar_layer_norm
from run_settings import stack as build_stack


def feats(arr):
    return Tensor(np.asarray(arr, dtype=float))


def small_stack(rng, **settings):
    """A stack of 8-wide features, 2 heads, 8-wide head hidden layers and
    4-wide embeddings; every other setting is a default ``RunConfig``'s."""
    return build_stack(rng, **{"feature_dim": 8, "num_heads": 2, "hidden_dim": 8,
                               "embed_dim": 4, **settings})


def zero_linear(p):
    return nn.LinearParams(Tensor(np.zeros_like(p.weight.data), requires_grad=True),
                           Tensor(np.zeros_like(p.bias.data), requires_grad=True))


class TestCrossAttentionBlock:
    def test_shape_contract(self):
        rng = np.random.default_rng(0)
        p = cm.CrossAttentionBlockParams.create(rng, 8, 4)
        v, t = cm.cross_attention_block(p, feats(rng.normal(size=(5, 8))),
                                        feats(rng.normal(size=(5, 8))))
        assert v.shape == (5, 8)
        assert t.shape == (5, 8)

    def test_zero_branches_leave_double_layer_norm(self):
        """Zero value/output projections and a zero feed-forward reduce the
        block to two stacked layer norms of the input."""
        rng = np.random.default_rng(1)
        p = cm.CrossAttentionBlockParams.create(rng, 8, 2)
        layer = p.into_vision
        layer.attn.w_v = zero_linear(layer.attn.w_v)
        layer.attn.w_o = zero_linear(layer.attn.w_o)
        layer.ff.fc1 = zero_linear(layer.ff.fc1)
        layer.ff.fc2 = zero_linear(layer.ff.fc2)
        x = rng.normal(size=(4, 8))
        v_out, _ = cm.cross_attention_block(p, feats(x), feats(rng.normal(size=(4, 8))))
        n1 = layer.norm_attn
        n2 = layer.norm_ff
        expected = scalar_layer_norm(n2.gamma.data, n2.beta.data, nn.LAYER_NORM_EPS,
                                     scalar_layer_norm(n1.gamma.data, n1.beta.data, nn.LAYER_NORM_EPS, x))
        np.testing.assert_allclose(v_out.data, expected, atol=1e-10)

    def test_random_case_vs_scalar_oracle(self):
        rng = np.random.default_rng(2)
        p = cm.CrossAttentionBlockParams.create(rng, 8, 2)
        v = rng.normal(size=(4, 8))
        t = rng.normal(size=(4, 8))
        mask = np.array([True, True, True, False])
        v_out, t_out = cm.cross_attention_block(p, feats(v), feats(t), text_bias=key_bias(mask))
        v_exp, t_exp = scalar_cross_attention_block(p, v, t, mask)
        np.testing.assert_allclose(v_out.data, v_exp, atol=1e-9)
        np.testing.assert_allclose(t_out.data, t_exp, atol=1e-9)

    def test_feature_dim_mismatch(self):
        rng = np.random.default_rng(3)
        p = cm.CrossAttentionBlockParams.create(rng, 8, 2)
        with pytest.raises(ShapeError):
            cm.cross_attention_block(p, feats(np.zeros((3, 8))), feats(np.zeros((3, 6))))


class TestGatedSelfAttention:
    def test_all_ones_update_doubles_residual(self):
        """An all-ones update makes the gate input exactly 2 * previous."""
        rng = np.random.default_rng(4)
        p = cm.GatedSelfAttentionParams.create(rng, 6, 2)
        prev = rng.normal(size=(3, 6))
        out = cm.gated_self_attention(p, feats(prev), feats(np.ones((3, 6))))
        expected = scalar_gated_self_attention(p, prev, np.ones((3, 6)))
        np.testing.assert_allclose(out.data, expected, atol=1e-9)
        # and the gate input really is 2 * prev
        gate_in = np.ones((3, 6)) * prev + prev
        np.testing.assert_allclose(gate_in, 2 * prev, atol=1e-15)

    def test_all_zeros_update_passes_residual(self):
        """An all-zeros update leaves the gate input equal to previous."""
        rng = np.random.default_rng(5)
        p = cm.GatedSelfAttentionParams.create(rng, 6, 2)
        prev = rng.normal(size=(3, 6))
        out = cm.gated_self_attention(p, feats(prev), feats(np.zeros((3, 6))))
        expected = scalar_gated_self_attention(p, prev, np.zeros((3, 6)))
        np.testing.assert_allclose(out.data, expected, atol=1e-9)

    def test_random_case_vs_scalar_oracle(self):
        rng = np.random.default_rng(6)
        p = cm.GatedSelfAttentionParams.create(rng, 8, 4)
        prev = rng.normal(size=(5, 8))
        new = rng.normal(size=(5, 8))
        mask = np.array([True, False, True, True, False])
        out = cm.gated_self_attention(p, feats(prev), feats(new), key_bias=key_bias(mask))
        expected = scalar_gated_self_attention(p, prev, new, mask)
        np.testing.assert_allclose(out.data, expected, atol=1e-9)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(7)
        p = cm.GatedSelfAttentionParams.create(rng, 6, 2)
        with pytest.raises(ShapeError):
            cm.gated_self_attention(p, feats(np.zeros((3, 6))), feats(np.zeros((4, 6))))


class TestStack:
    def test_depth_one_equals_manual_composition(self):
        rng = np.random.default_rng(9)
        stack = small_stack(rng, depth=1)
        v_in = feats(rng.normal(size=(5, 8)))
        t_in = feats(rng.normal(size=(5, 8)))
        bias = key_bias([True, True, True, False, False])

        v_emb, t_emb = stack.forward(v_in, t_in, bias)

        block = stack.blocks[0]
        v_mid, t_mid = cm.cross_attention_block(block.cross, v_in, t_in, bias)
        v_man = cm.gated_self_attention(block.gate_vision, v_in, v_mid)
        t_man = cm.gated_self_attention(block.gate_text, t_in, t_mid, key_bias=bias)
        from crossdoc.encoders import pool_cls
        v_exp = nn.project_and_normalize(stack.head_vision, pool_cls(v_man))
        t_exp = nn.project_and_normalize(stack.head_text, pool_cls(t_man))
        np.testing.assert_array_equal(v_emb.data, v_exp.data)
        np.testing.assert_array_equal(t_emb.data, t_exp.data)

    def test_output_embeddings_unit_norm(self):
        rng = np.random.default_rng(10)
        stack = small_stack(rng, num_heads=4, depth=2)
        v_emb, t_emb = stack.forward(feats(rng.normal(size=(5, 8))),
                                     feats(rng.normal(size=(5, 8))))
        assert abs(np.dot(v_emb.data, v_emb.data) - 1.0) < 1e-12
        assert abs(np.dot(t_emb.data, t_emb.data) - 1.0) < 1e-12

    def test_default_depth_is_two(self):
        stack = small_stack(np.random.default_rng(11))
        assert len(stack.blocks) == 2

    def test_shape_preserved_at_every_block(self):
        rng = np.random.default_rng(12)
        stack = small_stack(rng, depth=3)
        v, t = stack.run_blocks(feats(rng.normal(size=(4, 8))), feats(rng.normal(size=(4, 8))))
        assert v.shape == (4, 8)
        assert t.shape == (4, 8)

    def test_joint_permutation_equivariance(self):
        """Permuting non-CLS rows of both raw inputs (and the mask) permutes
        non-CLS output rows identically and leaves embeddings unchanged."""
        rng = np.random.default_rng(13)
        stack = small_stack(rng, depth=2)
        m = 6
        v = rng.normal(size=(m, 8))
        t = rng.normal(size=(m, 8))
        mask = np.array([True, True, True, True, False, False])
        perm = np.concatenate([[0], 1 + rng.permutation(m - 1)])

        v_out, t_out = stack.run_blocks(feats(v), feats(t), mask)
        v_pout, t_pout = stack.run_blocks(feats(v[perm]), feats(t[perm]), mask[perm])
        np.testing.assert_allclose(v_pout.data, v_out.data[perm], atol=1e-10)
        np.testing.assert_allclose(t_pout.data, t_out.data[perm], atol=1e-10)

        emb = stack.forward(feats(v), feats(t), mask)
        emb_p = stack.forward(feats(v[perm]), feats(t[perm]), mask[perm])
        np.testing.assert_allclose(emb[0].data, emb_p[0].data, atol=1e-10)
        np.testing.assert_allclose(emb[1].data, emb_p[1].data, atol=1e-10)

    def test_gradient_through_depth2_stack(self):
        rng = np.random.default_rng(14)
        stack = small_stack(rng, depth=2)
        t_in = feats(rng.normal(size=(3, 8)))
        target = Tensor(rng.normal(size=4))

        def f(x):
            v_emb, t_emb = stack.forward(x, t_in)
            return ad.add(ad.tensor_sum(ad.mul(v_emb, target)), ad.tensor_sum(t_emb))

        x = Tensor(rng.normal(size=(3, 8)), requires_grad=True)
        assert ad.finite_diff_check(f, x) < 1e-4

    def test_gradient_reaches_block_params(self):
        rng = np.random.default_rng(15)
        stack = small_stack(rng, depth=2)
        fuse_w = stack.blocks[1].gate_text.fuse.weight
        v_in = feats(rng.normal(size=(3, 8)))
        t_in = feats(rng.normal(size=(3, 8)))

        def f(w):
            stack.blocks[1].gate_text.fuse.weight = w
            v_emb, t_emb = stack.forward(v_in, t_in)
            return ad.add(ad.tensor_sum(ad.mul(t_emb, t_emb)), ad.tensor_sum(ad.exp(v_emb)))

        try:
            err = ad.finite_diff_check(f, Tensor(fuse_w.data.copy(), requires_grad=True))
        finally:
            stack.blocks[1].gate_text.fuse.weight = fuse_w
        assert err < 1e-4

    def test_deterministic_given_seed(self):
        """Same seed, same inputs: bit-identical parameters and outputs."""
        x = np.random.default_rng(99).normal(size=(4, 8))
        outs = []
        for _ in range(2):
            stack = small_stack(np.random.default_rng(42), depth=2)
            v_emb, t_emb = stack.forward(feats(x), feats(x + 1.0))
            outs.append((v_emb.data.copy(), t_emb.data.copy()))
        np.testing.assert_array_equal(outs[0][0], outs[1][0])
        np.testing.assert_array_equal(outs[0][1], outs[1][1])


class TestIdentityReplacement:
    def test_disable_both_reduces_to_independent_heads(self):
        """With both stages off, each embedding depends only on its own modality."""
        rng = np.random.default_rng(16)
        stack = small_stack(rng, depth=2, use_cross=False, use_gate=False)
        v = rng.normal(size=(4, 8))
        t = rng.normal(size=(4, 8))
        v_emb1, t_emb1 = stack.forward(feats(v), feats(t))
        v_emb2, t_emb2 = stack.forward(feats(v), feats(rng.normal(size=(4, 8))))
        np.testing.assert_array_equal(v_emb1.data, v_emb2.data)
        assert not np.array_equal(t_emb1.data, t_emb2.data)

    def test_disable_gate_keeps_cross_only(self):
        rng = np.random.default_rng(17)
        stack = small_stack(rng, depth=1, use_gate=False)
        v_in = feats(rng.normal(size=(3, 8)))
        t_in = feats(rng.normal(size=(3, 8)))
        v, t = stack.run_blocks(v_in, t_in)
        v_exp, t_exp = cm.cross_attention_block(stack.blocks[0].cross, v_in, t_in, None)
        np.testing.assert_array_equal(v.data, v_exp.data)
        np.testing.assert_array_equal(t.data, t_exp.data)

    def test_disable_cross_gates_against_itself(self):
        rng = np.random.default_rng(18)
        stack = small_stack(rng, depth=1, use_cross=False)
        v_in = feats(rng.normal(size=(3, 8)))
        t_in = feats(rng.normal(size=(3, 8)))
        v, _ = stack.run_blocks(v_in, t_in)
        expected = cm.gated_self_attention(stack.blocks[0].gate_vision, v_in, v_in)
        np.testing.assert_array_equal(v.data, expected.data)
