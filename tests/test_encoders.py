"""Encoder tests: patch math, token embedding and masks, pooling."""

import numpy as np
import pytest

from crossdoc import autodiff as ad
from crossdoc import data
from crossdoc import encoders as enc
from crossdoc.autodiff import Tensor
from crossdoc.config import RunConfig
from crossdoc.errors import ConfigError, DataError, ShapeError

from oracles import key_bias
from run_settings import corpus_spec


FEATURE_DIM = 6


def small_cfg(**kw):
    defaults = dict(image_size=8, channels=1, patch_size=4, vocab_size=16)
    defaults.update(kw)
    return enc.DocumentLayout(**defaults)


def token_ids(content, rows):
    """[CLS] content [SEP], padded with [PAD] to ``rows``."""
    ids = [enc.CLS_ID, *content, enc.SEP_ID]
    return np.array(ids + [enc.PAD_ID] * (rows - len(ids)))


class TestConfig:
    def test_patch_count_formula(self):
        """8x8 image with 4x4 patches yields 4 patches and 5 rows."""
        cfg = small_cfg()
        assert cfg.num_patches == 4
        assert cfg.rows == 5

    def test_single_patch(self):
        cfg = small_cfg(image_size=4)
        assert cfg.num_patches == 1

    def test_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            small_cfg(image_size=10)

    def test_default_desk_geometry(self):
        cfg = RunConfig().layout()
        assert cfg.num_patches == 16
        assert cfg.rows == 17


class TestPatchEmbed:
    def test_row_count_and_shape(self):
        cfg = small_cfg()
        rng = np.random.default_rng(0)
        params = enc.VisionEncoderParams.create(rng, cfg, FEATURE_DIM)
        feats = enc.patch_embed(params, cfg, rng.random((8, 8, 1)))
        assert feats.shape == (5, 6)

    def test_zero_image_zero_bias_rows_equal_positions(self):
        cfg = small_cfg()
        rng = np.random.default_rng(1)
        params = enc.VisionEncoderParams.create(rng, cfg, FEATURE_DIM)
        feats = enc.patch_embed(params, cfg, np.zeros((8, 8, 1)))
        expected = params.positions.data.copy()
        expected[0] += params.cls_row.data[0]
        np.testing.assert_allclose(feats.data, expected, atol=1e-12)

    def test_patch_permutation_consistency(self):
        """Permuting whole patches permutes rows 1..N of the pre-position output."""
        cfg = small_cfg()
        rng = np.random.default_rng(2)
        params = enc.VisionEncoderParams.create(rng, cfg, FEATURE_DIM)
        params = enc.VisionEncoderParams(params.proj, params.cls_row,
                                         Tensor(np.zeros_like(params.positions.data)))
        img = rng.random((8, 8, 1)).astype(np.float32)
        base = enc.patch_embed(params, cfg, img).data

        # swap the two top patches in pixel space
        swapped = img.copy()
        swapped[:4, :4], swapped[:4, 4:] = img[:4, 4:].copy(), img[:4, :4].copy()
        out = enc.patch_embed(params, cfg, swapped).data
        np.testing.assert_allclose(out[0], base[0], atol=1e-12)
        np.testing.assert_allclose(out[1], base[2], atol=1e-12)
        np.testing.assert_allclose(out[2], base[1], atol=1e-12)
        np.testing.assert_allclose(out[3:], base[3:], atol=1e-12)

    def test_wrong_geometry_rejected(self):
        cfg = small_cfg()
        rng = np.random.default_rng(3)
        params = enc.VisionEncoderParams.create(rng, cfg, FEATURE_DIM)
        with pytest.raises(ShapeError, match=r"image shape \(6, 8, 1\) does not match"):
            enc.patch_embed(params, cfg, np.zeros((6, 8, 1)))

    def test_batched_matches_per_sample(self):
        cfg = small_cfg()
        rng = np.random.default_rng(4)
        params = enc.VisionEncoderParams.create(rng, cfg, FEATURE_DIM)
        imgs = rng.random((3, 8, 8, 1))
        batched = enc.patch_embed(params, cfg, imgs).data
        for i in range(3):
            single = enc.patch_embed(params, cfg, imgs[i]).data
            np.testing.assert_allclose(batched[i], single, atol=1e-12)

    def test_gradient_through_patch_projection(self):
        cfg = small_cfg()
        rng = np.random.default_rng(5)
        params = enc.VisionEncoderParams.create(rng, cfg, FEATURE_DIM)
        img = rng.random((8, 8, 1))

        def f(w):
            p = enc.VisionEncoderParams(
                enc.LinearParams(w, params.proj.bias), params.cls_row, params.positions)
            feats = enc.patch_embed(p, cfg, img)
            return ad.tensor_sum(ad.mul(feats, feats))

        err = ad.finite_diff_check(f, Tensor(params.proj.weight.data.copy(), requires_grad=True))
        assert err < 1e-4


class TestTokenSequence:
    def test_padding_and_mask(self):
        """A generated sequence embeds with a key bias that keeps [CLS], its
        content and [SEP] alone; every later position holds [PAD].  A 12x12
        image in 4x4 patches gives 10 rows; the shortest content, half of the
        8 rows between [CLS] and [SEP], leaves CLS + 4 + SEP = 6 real
        positions."""
        cfg = small_cfg(image_size=12)
        assert cfg.rows == cfg.num_patches + 1 == 10
        spec = corpus_spec(cfg, classes=2, samples_per_class=10, corpus_seed=3)
        ids = data.generate_corpus(spec).train["ids"]
        params = enc.TextEncoderParams.create(np.random.default_rng(9), cfg, FEATURE_DIM)
        _, bias = enc.token_embed(params, cfg, ids)
        real = np.argmax(ids == enc.SEP_ID, axis=1) + 1
        np.testing.assert_array_equal(bias, key_bias(np.arange(cfg.rows) < real[:, None]))
        assert real.min() == (cfg.rows - 2) // 2 + 2
        for row_ids, n in zip(ids, real):
            np.testing.assert_array_equal(row_ids[n:], [enc.PAD_ID] * (cfg.rows - n))


class TestTokenEmbed:
    def test_positions_distinguish_repeated_ids(self):
        cfg = small_cfg()
        rng = np.random.default_rng(6)
        params = enc.TextEncoderParams.create(rng, cfg, FEATURE_DIM)
        feats, _ = enc.token_embed(params, cfg, token_ids([7, 7, 7], cfg.rows))
        diff = feats.data[1] - feats.data[2]
        pos_diff = params.positions.data[1] - params.positions.data[2]
        np.testing.assert_allclose(diff, pos_diff, atol=1e-12)

    def test_mask_marks_real_positions(self):
        cfg = small_cfg()
        rng = np.random.default_rng(7)
        params = enc.TextEncoderParams.create(rng, cfg, FEATURE_DIM)
        _, bias = enc.token_embed(params, cfg, token_ids([9], cfg.rows))
        np.testing.assert_array_equal(bias, key_bias([True, True, True, False, False]))
        assert bias.dtype == params.table.data.dtype

    def test_padding_changes_leave_real_rows_alone(self):
        """Rows at real-token positions do not depend on what sits in the padding."""
        cfg = small_cfg()
        rng = np.random.default_rng(8)
        params = enc.TextEncoderParams.create(rng, cfg, FEATURE_DIM)
        a = np.array([enc.CLS_ID, 9, enc.SEP_ID, enc.PAD_ID, enc.PAD_ID])
        feats_a, _ = enc.token_embed(params, cfg, a)
        b = a.copy()
        b[4] = enc.PAD_ID  # padding rewritten with padding: identical input class
        feats_b, _ = enc.token_embed(params, cfg, b)
        real = a != enc.PAD_ID
        np.testing.assert_array_equal(feats_a.data[real], feats_b.data[real])

    def test_out_of_vocab_rejected(self):
        cfg = small_cfg()
        rng = np.random.default_rng(9)
        params = enc.TextEncoderParams.create(rng, cfg, FEATURE_DIM)
        bad = np.array([enc.CLS_ID, cfg.vocab_size, enc.SEP_ID, 0, 0])
        with pytest.raises(DataError):
            enc.token_embed(params, cfg, bad)

    def test_wrong_length_rejected(self):
        cfg = small_cfg()
        params = enc.TextEncoderParams.create(np.random.default_rng(10), cfg, FEATURE_DIM)
        with pytest.raises(DataError):
            enc.token_embed(params, cfg, np.array([enc.CLS_ID, enc.SEP_ID]))

    def test_gradient_through_embedding_table(self):
        cfg = small_cfg()
        rng = np.random.default_rng(11)
        params = enc.TextEncoderParams.create(rng, cfg, FEATURE_DIM)
        ids = token_ids([5, 5, 9], cfg.rows)

        def f(table):
            p = enc.TextEncoderParams(table, params.positions)
            feats, _ = enc.token_embed(p, cfg, ids)
            return ad.tensor_sum(ad.mul(feats, feats))

        err = ad.finite_diff_check(f, Tensor(params.table.data.copy(), requires_grad=True))
        assert err < 1e-4


class TestPairedShapes:
    def test_both_modalities_emit_identical_shapes(self):
        cfg = small_cfg()
        rng = np.random.default_rng(12)
        vis = enc.VisionEncoderParams.create(rng, cfg, FEATURE_DIM)
        txt = enc.TextEncoderParams.create(rng, cfg, FEATURE_DIM)
        v = enc.patch_embed(vis, cfg, rng.random((8, 8, 1)))
        t, _ = enc.token_embed(txt, cfg, token_ids([4, 5], cfg.rows))
        assert v.shape == t.shape


class TestPoolCls:
    def test_single_row(self):
        f = Tensor(np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_array_equal(enc.pool_cls(f).data, [1.0, 2.0, 3.0])

    def test_invariant_to_non_cls_permutation(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(5, 4))
        base = enc.pool_cls(Tensor(x)).data
        perm = x.copy()
        perm[1:] = perm[1:][rng.permutation(4)]
        np.testing.assert_array_equal(enc.pool_cls(Tensor(perm)).data, base)

    def test_matches_manual_indexing(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(3, 6, 4))
        out = enc.pool_cls(Tensor(x))
        np.testing.assert_array_equal(out.data, x[:, 0, :])
