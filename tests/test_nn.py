"""Building-block tests against scalar oracles and closed-form cases."""

import math

import numpy as np
import pytest

from crossdoc import autodiff as ad
from crossdoc import nn
from crossdoc.autodiff import Tensor
from crossdoc.errors import ConfigError, ContractError, NumericError, ShapeError


from oracles import scalar_gelu, scalar_linear, scalar_mha


def identity_linear(d):
    return nn.LinearParams(Tensor(np.eye(d), requires_grad=True), Tensor(np.zeros(d), requires_grad=True))


def const_linear(weight, bias):
    return nn.LinearParams(Tensor(np.asarray(weight, float), requires_grad=True),
                           Tensor(np.asarray(bias, float), requires_grad=True))


class TestLinear:
    def test_identity_weight_zero_bias(self):
        x = np.array([[1.0, -2.0, 3.0], [0.5, 0.0, -1.0]])
        out = nn.linear(identity_linear(3), Tensor(x))
        np.testing.assert_array_equal(out.data, x)

    def test_zero_weight_constant_bias(self):
        p = const_linear(np.zeros((3, 2)), [4.0, -1.0])
        out = nn.linear(p, Tensor(np.random.default_rng(0).normal(size=(5, 3))))
        np.testing.assert_array_equal(out.data, np.tile([4.0, -1.0], (5, 1)))

    def test_random_case_vs_scalar_oracle(self):
        rng = np.random.default_rng(1)
        p = nn.LinearParams.create(rng, 3, 4)
        x = rng.normal(size=(2, 3))
        np.testing.assert_allclose(
            nn.linear(p, Tensor(x)).data,
            scalar_linear(p.weight.data, p.bias.data, x),
            atol=1e-12,
        )

    def test_vector_input(self):
        rng = np.random.default_rng(2)
        p = nn.LinearParams.create(rng, 3, 4)
        x = rng.normal(size=3)
        out = nn.linear(p, Tensor(x))
        assert out.shape == (4,)
        np.testing.assert_allclose(out.data, scalar_linear(p.weight.data, p.bias.data, x)[0], atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            nn.linear(identity_linear(3), Tensor(np.ones((2, 4))))


class TestLayerNorm:
    def test_constant_row_maps_to_zero(self):
        p = nn.LayerNormParams.create(3)
        out = nn.layer_norm(p, Tensor([[5.0, 5.0, 5.0]]))
        np.testing.assert_allclose(out.data, [[0.0, 0.0, 0.0]], atol=1e-9)

    def test_direct_formula(self):
        """[1,2,3] normalizes to +-sqrt(3/2) around 0 with eps=1e-5."""
        p = nn.LayerNormParams.create(3)
        out = nn.layer_norm(p, Tensor([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out.data, [-1.2247, 0.0, 1.2247], atol=1e-3)

    def test_gamma_zero_beta_seven(self):
        p = nn.LayerNormParams(Tensor(np.zeros(4)), Tensor(np.full(4, 7.0)))
        rng = np.random.default_rng(3)
        out = nn.layer_norm(p, Tensor(rng.normal(size=(3, 4))))
        np.testing.assert_array_equal(out.data, np.full((3, 4), 7.0))

    def test_shift_and_positive_rescale_invariance(self):
        """Pre-affine output is invariant to x -> a*x + c for a > 0.

        The epsilon inside the variance bounds the rescale residual by about
        sqrt(d) * eps / (2 * var), so rows need variance >> eps for the 1e-6
        tolerance; rows drawn at std 8 give var ~ 64.
        """
        rng = np.random.default_rng(4)
        p = nn.LayerNormParams.create(8)
        for _ in range(10):
            x = rng.normal(scale=8.0, size=(2, 8))
            base = nn.layer_norm(p, Tensor(x)).data
            shifted = nn.layer_norm(p, Tensor(x + 3.7)).data
            scaled = nn.layer_norm(p, Tensor(x * 5.0)).data
            np.testing.assert_allclose(base, shifted, atol=1e-6)
            np.testing.assert_allclose(base, scaled, atol=1e-6)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ConfigError):
            nn.LayerNormParams(Tensor(np.ones(3)), Tensor(np.zeros(3)), epsilon=0.0)


class TestMultiHeadAttention:
    def test_single_key_forces_weight_one(self):
        d = 4
        p = nn.MHAParams(identity_linear(d), identity_linear(d), identity_linear(d),
                         identity_linear(d), num_heads=2, head_dim=2)
        kv = np.array([[0.3, -0.7, 1.1, 0.0]])
        out = nn.multi_head_attention(p, Tensor(np.random.default_rng(5).normal(size=(3, d))), Tensor(kv))
        np.testing.assert_allclose(out.data, np.tile(kv, (3, 1)), atol=1e-12)

    def test_indistinguishable_keys_average_values(self):
        """With a zero key projection every key collides, so values are averaged."""
        d = 4
        p = nn.MHAParams(identity_linear(d), const_linear(np.zeros((d, d)), np.zeros(d)),
                         identity_linear(d), identity_linear(d), num_heads=2, head_dim=2)
        kv = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
        out = nn.multi_head_attention(p, Tensor(np.zeros((2, d))), Tensor(kv))
        np.testing.assert_allclose(out.data, np.tile(kv.mean(axis=0), (2, 1)), atol=1e-12)

    def test_four_head_case_vs_scalar_oracle(self):
        rng = np.random.default_rng(6)
        p = nn.MHAParams.create(rng, 8, 4)
        q = rng.normal(size=(3, 8))
        kv = rng.normal(size=(5, 8))
        out = nn.multi_head_attention(p, Tensor(q), Tensor(kv))
        np.testing.assert_allclose(out.data, scalar_mha(p, q, kv), atol=1e-10)

    def test_masked_vs_scalar_oracle(self):
        rng = np.random.default_rng(7)
        p = nn.MHAParams.create(rng, 8, 2)
        q = rng.normal(size=(3, 8))
        kv = rng.normal(size=(4, 8))
        mask = np.array([True, False, True, False])
        out = nn.multi_head_attention(p, Tensor(q), Tensor(kv), key_mask=mask)
        np.testing.assert_allclose(out.data, scalar_mha(p, q, kv, mask), atol=1e-10)

    def test_masked_keys_do_not_leak(self):
        """Changing a masked key/value row cannot change the output."""
        rng = np.random.default_rng(8)
        p = nn.MHAParams.create(rng, 8, 2)
        q = rng.normal(size=(3, 8))
        kv = rng.normal(size=(4, 8))
        mask = np.array([True, True, False, True])
        base = nn.multi_head_attention(p, Tensor(q), Tensor(kv), key_mask=mask).data
        kv2 = kv.copy()
        kv2[2] += 100.0
        again = nn.multi_head_attention(p, Tensor(q), Tensor(kv2), key_mask=mask).data
        np.testing.assert_array_equal(base, again)

    def test_key_permutation_invariance(self):
        """Permuting key/value rows (and the mask with them) leaves output unchanged."""
        rng = np.random.default_rng(9)
        p = nn.MHAParams.create(rng, 8, 4)
        q = rng.normal(size=(3, 8))
        kv = rng.normal(size=(6, 8))
        mask = np.array([True, True, False, True, True, False])
        perm = rng.permutation(6)
        base = nn.multi_head_attention(p, Tensor(q), Tensor(kv), key_mask=mask).data
        permuted = nn.multi_head_attention(p, Tensor(q), Tensor(kv[perm]), key_mask=mask[perm]).data
        np.testing.assert_allclose(base, permuted, atol=1e-12)

    def test_attention_weights_row_stochastic(self):
        rng = np.random.default_rng(10)
        p = nn.MHAParams.create(rng, 8, 4)
        q, kv = rng.normal(size=(5, 8)), rng.normal(size=(7, 8))
        _, weights = nn.multi_head_attention(p, Tensor(q), Tensor(kv), return_weights=True)
        assert weights.shape == (4, 5, 7)  # (heads, query rows, key rows)
        assert np.all(weights.data >= 0)
        np.testing.assert_allclose(weights.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_all_keys_masked_rejected(self):
        rng = np.random.default_rng(11)
        p = nn.MHAParams.create(rng, 4, 2)
        with pytest.raises(ContractError):
            nn.multi_head_attention(p, Tensor(rng.normal(size=(2, 4))),
                                    Tensor(rng.normal(size=(3, 4))),
                                    key_mask=np.array([False, False, False]))

    def test_head_config_validation(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ConfigError):
            nn.MHAParams.create(rng, 6, 4)
        with pytest.raises(ConfigError):
            nn.MHAParams(identity_linear(4), identity_linear(4), identity_linear(4),
                         identity_linear(4), num_heads=3, head_dim=2)

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(13)
        p = nn.MHAParams.create(rng, 8, 2)
        q = rng.normal(size=(3, 4, 8))
        kv = rng.normal(size=(3, 5, 8))
        mask = rng.random((3, 5)) > 0.3
        mask[:, 0] = True
        batched = nn.multi_head_attention(p, Tensor(q), Tensor(kv), key_mask=mask).data
        for i in range(3):
            single = nn.multi_head_attention(p, Tensor(q[i]), Tensor(kv[i]), key_mask=mask[i]).data
            np.testing.assert_allclose(batched[i], single, atol=1e-12)


class TestFeedForward:
    def test_zero_weights_yield_bias_only_output(self):
        p = nn.FeedForwardParams(const_linear(np.zeros((3, 3)), np.zeros(3)),
                                 const_linear(np.zeros((3, 3)), [1.0, 2.0, 3.0]))
        out = nn.feed_forward(p, Tensor(np.random.default_rng(14).normal(size=(4, 3))))
        np.testing.assert_array_equal(out.data, np.tile([1.0, 2.0, 3.0], (4, 1)))

    def test_identity_like_passthrough(self):
        """Shifting into GELU's linear regime and back approximates identity."""
        d = 3
        p = nn.FeedForwardParams(const_linear(np.eye(d), np.full(d, 10.0)),
                                 const_linear(np.eye(d), np.full(d, -10.0)))
        x = np.array([[0.3, -0.9, 0.0], [1.0, -1.0, 0.5]])
        out = nn.feed_forward(p, Tensor(x))
        np.testing.assert_allclose(out.data, x, atol=1e-9)

    def test_random_case_vs_scalar_oracle(self):
        rng = np.random.default_rng(15)
        p = nn.FeedForwardParams.create(rng, 4)
        x = rng.normal(size=(3, 4))
        expected = scalar_linear(
            p.fc2.weight.data, p.fc2.bias.data,
            scalar_gelu(scalar_linear(p.fc1.weight.data, p.fc1.bias.data, x)),
        )
        np.testing.assert_allclose(nn.feed_forward(p, Tensor(x)).data, expected, atol=1e-12)


class TestProjectionHead:
    def test_unit_norm_output(self):
        rng = np.random.default_rng(16)
        p = nn.ProjectionHeadParams.create(rng, 8, 8, 4)
        out = nn.project_and_normalize(p, Tensor(rng.normal(size=8)))
        assert abs(np.dot(out.data, out.data) - 1.0) < 1e-12

    def test_unit_norm_on_batches(self):
        rng = np.random.default_rng(17)
        p = nn.ProjectionHeadParams.create(rng, 8, 6, 4)
        out = nn.project_and_normalize(p, Tensor(rng.normal(size=(5, 8))))
        np.testing.assert_allclose((out.data ** 2).sum(axis=-1), 1.0, atol=1e-12)

    def test_linear_head_scale_leaves_neighbors_unchanged(self):
        """For a bias-free linear head, input scaling cancels in cosine rankings."""
        rng = np.random.default_rng(18)
        w = rng.normal(size=(8, 4))
        xs = rng.normal(size=(6, 8))
        emb1 = nn.l2_normalize(nn.linear(const_linear(w, np.zeros(4)), Tensor(xs))).data
        emb3 = nn.l2_normalize(nn.linear(const_linear(w, np.zeros(4)), Tensor(xs * 3.0))).data
        np.testing.assert_allclose(emb1, emb3, atol=1e-12)
        sims1 = emb1 @ emb1.T
        sims3 = emb3 @ emb3.T
        np.fill_diagonal(sims1, -2)
        np.fill_diagonal(sims3, -2)
        np.testing.assert_array_equal(sims1.argmax(axis=1), sims3.argmax(axis=1))

    def test_zero_projection_is_degenerate(self):
        p = nn.ProjectionHeadParams(const_linear(np.zeros((4, 3)), np.zeros(3)),
                                    const_linear(np.zeros((3, 2)), np.zeros(2)))
        with pytest.raises(NumericError):
            nn.project_and_normalize(p, Tensor(np.ones(4)))

    def test_dim_validation(self):
        with pytest.raises(ConfigError):
            nn.ProjectionHeadParams(const_linear(np.zeros((4, 3)), np.zeros(3)),
                                    const_linear(np.zeros((3, 1)), np.zeros(1)))


class TestBlockGradients:
    """Every block's backward pass vs the central-difference oracle, < 1e-4."""

    def test_linear(self):
        rng = np.random.default_rng(19)
        p = nn.LinearParams.create(rng, 5, 3)
        x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        assert ad.finite_diff_check(lambda t: ad.tensor_sum(ad.exp(ad.scale(nn.linear(p, t), 0.3))), x) < 1e-4
        assert ad.finite_diff_check(
            lambda w: ad.tensor_sum(ad.exp(ad.scale(nn.linear(nn.LinearParams(w, p.bias), x), 0.3))),
            Tensor(p.weight.data.copy(), requires_grad=True)) < 1e-4

    def test_layer_norm(self):
        rng = np.random.default_rng(20)
        p = nn.LayerNormParams.create(6)
        x = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        assert ad.finite_diff_check(lambda t: ad.tensor_sum(ad.mul(nn.layer_norm(p, t), nn.layer_norm(p, t))), x) < 1e-4

    def test_attention(self):
        rng = np.random.default_rng(21)
        p = nn.MHAParams.create(rng, 8, 4)
        kv = Tensor(rng.normal(size=(4, 8)))
        x = Tensor(rng.normal(size=(3, 8)), requires_grad=True)
        mask = np.array([True, True, False, True])

        def f(t):
            out = nn.multi_head_attention(p, t, kv, key_mask=mask)
            return ad.tensor_sum(ad.mul(out, out))

        assert ad.finite_diff_check(f, x) < 1e-4

    def test_attention_param_gradient(self):
        rng = np.random.default_rng(22)
        p = nn.MHAParams.create(rng, 8, 2)
        q = Tensor(rng.normal(size=(3, 8)))
        kv = Tensor(rng.normal(size=(4, 8)))

        def f(w):
            p2 = nn.MHAParams(nn.LinearParams(w, p.w_q.bias), p.w_k, p.w_v, p.w_o, 2, 4)
            out = nn.multi_head_attention(p2, q, kv)
            return ad.tensor_sum(ad.mul(out, out))

        assert ad.finite_diff_check(f, Tensor(p.w_q.weight.data.copy(), requires_grad=True)) < 1e-4

    def test_feed_forward(self):
        rng = np.random.default_rng(23)
        p = nn.FeedForwardParams.create(rng, 5)
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        assert ad.finite_diff_check(lambda t: ad.tensor_sum(ad.mul(nn.feed_forward(p, t), nn.feed_forward(p, t))), x) < 1e-4

    def test_projection_head(self):
        rng = np.random.default_rng(24)
        p = nn.ProjectionHeadParams.create(rng, 6, 6, 3)
        x = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        target = ad.Tensor(rng.normal(size=(2, 3)))
        assert ad.finite_diff_check(
            lambda t: ad.tensor_sum(ad.mul(nn.project_and_normalize(p, t), target)), x) < 1e-4
