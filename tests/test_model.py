"""Model assembly: the parameter tree, its names, and checkpoint loading."""

from dataclasses import replace

import numpy as np
import pytest

from crossdoc import autodiff as ad
from crossdoc.autodiff import _topo_order, backward
from crossdoc.config import RunConfig
from crossdoc.cross_modal import CrossModalStack
from crossdoc.data import collate, generate_corpus, make_batch
from crossdoc.encoders import PAD_ID, TextEncoderParams, VisionEncoderParams
from crossdoc.errors import ContractError, DataError
from crossdoc.model import CrossModalModel
from crossdoc.train import ABLATION_VARIANTS, batch_loss

from oracles import key_bias

# (tensors, values) each ablation variant holds at the desk shapes.
DESK_PARAMETER_COUNTS = {
    "neither": (14, 6_880),
    "gate_only": (86, 36_960),
    "cross_only": (78, 32_736),
    "full": (150, 62_816),
    "full_scl": (150, 62_816),
}


def tiny_config(**kw):
    return RunConfig(feature_dim=8, num_heads=2, hidden_dim=8, embed_dim=4,
                     image_size=8, vocab_size=16, samples_per_class=10,
                     batch_size=4, **kw)


class TestParameterTree:
    def test_backward_reaches_exactly_the_parameters(self):
        """Guards the reflective walk: a Tensor the forward pass uses but the
        walk misses (say, one held in a tuple or dict) would show up here.
        Every variant's step reaches every parameter it holds, as AdamW
        requires."""
        splits = generate_corpus(tiny_config().corpus_spec())
        for _, use_cross, use_gate, loss_mode in ABLATION_VARIANTS:
            cfg = tiny_config(use_cross=use_cross, use_gate=use_gate, loss_mode=loss_mode)
            model = CrossModalModel.create(cfg)
            records = make_batch(splits.train, cfg.batch_size, np.random.default_rng(0))
            tape = backward(batch_loss(model, records, cfg)["total"])
            reached = {id(n) for n in tape.nodes if n.op == "leaf" and n.requires_grad}
            params = model.parameters()
            assert {id(p) for p in params.values()} == reached
            assert len(params) == len(reached)

    @pytest.mark.parametrize("variant", ABLATION_VARIANTS, ids=[v[0] for v in ABLATION_VARIANTS])
    def test_variant_holds_only_its_live_stages(self, variant):
        name, use_cross, use_gate, loss_mode = variant
        cfg = replace(RunConfig(), use_cross=use_cross, use_gate=use_gate, loss_mode=loss_mode)
        params = CrossModalModel.create(cfg).parameters()
        live = {"cross": use_cross, "gate_vision": use_gate, "gate_text": use_gate}
        every = CrossModalModel.create(RunConfig()).parameters()
        # stack.blocks.{i}.{stage}.... names belong to one stage of one block
        expected = {n for n in every if not n.startswith("stack.blocks.") or live[n.split(".")[3]]}
        assert set(params) == expected
        counts = (len(params), sum(p.size for p in params.values()))
        assert counts == DESK_PARAMETER_COUNTS[name]

    def test_frozen_model_embeds_without_a_graph(self):
        cfg = tiny_config()
        images, ids, _ = collate(generate_corpus(cfg.corpus_spec()).train[:4])
        trainable = CrossModalModel.create(cfg)
        frozen = CrossModalModel.create(cfg)
        for p in frozen.parameters().values():
            p.requires_grad = False
        for live, fixed in zip(trainable.embed(images, ids), frozen.embed(images, ids)):
            assert live._parents and not fixed._parents
            np.testing.assert_array_equal(live.data, fixed.data)

    def test_names_follow_the_dataclass_tree(self):
        names = list(CrossModalModel.create(tiny_config()).parameters())
        assert names[:5] == [
            "vision_encoder.proj.weight", "vision_encoder.proj.bias",
            "vision_encoder.cls_row", "vision_encoder.positions",
            "text_encoder.table",
        ]
        assert "stack.blocks.0.cross.into_vision.attn.w_q.weight" in names
        assert "stack.blocks.1.gate_text.layer.ff.fc2.bias" in names
        assert names[-1] == "stack.head_text.fc2.bias"
        assert len(names) == len(set(names))


class TestDtype:
    @pytest.mark.parametrize("cfg", [tiny_config(dtype="float32"), RunConfig()],
                             ids=["tiny_float32", "desk_float64"])
    def test_one_dtype_through_the_step(self, cfg):
        """Every graph node of ``batch_loss``, every parameter and every
        parameter gradient has the model's dtype: nothing widens a float32
        step, and nothing in a desk step is float32."""
        model = CrossModalModel.create(cfg)
        records = make_batch(generate_corpus(cfg.corpus_spec()).train, cfg.batch_size,
                             np.random.default_rng(0))
        loss = batch_loss(model, records, cfg)["total"]
        nodes = {str(n.data.dtype) for n in _topo_order(loss)}
        backward(loss)
        params = model.parameters().values()
        assert nodes == {cfg.dtype}
        assert {str(p.data.dtype) for p in params} == {cfg.dtype}
        assert {str(p.grad.dtype) for p in params} == {cfg.dtype}

    def test_float32_model_is_the_float64_model_rounded(self):
        reference = CrossModalModel.create(tiny_config(seed=3)).parameters()
        rounded = CrossModalModel.create(tiny_config(dtype="float32", seed=3)).parameters()
        assert list(rounded) == list(reference)
        for name, p in rounded.items():
            assert p.data.dtype == np.float32
            np.testing.assert_array_equal(p.data, reference[name].data.astype(np.float32))


class TestKeyBias:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_made_once_per_step(self, dtype, monkeypatch):
        """A desk ``full`` step runs 8 attentions.  The 4 with text keys
        (each block's ``into_vision`` and ``gate_text``) get the one bias
        array ``token_embed`` made, in the model's dtype; the 4 with vision
        keys get none."""
        cfg = RunConfig(dtype=dtype)
        model = CrossModalModel.create(cfg)
        records = make_batch(generate_corpus(cfg.corpus_spec()).train, cfg.batch_size,
                             np.random.default_rng(0))
        biases, attention_heads = [], ad.attention_heads

        def spy(q, k, v, num_heads, key_bias=None):
            biases.append(key_bias)
            return attention_heads(q, k, v, num_heads, key_bias)

        monkeypatch.setattr(ad, "attention_heads", spy)
        batch_loss(model, records, cfg)
        given = [b for b in biases if b is not None]
        assert (len(biases), len(given)) == (8, 4)
        assert all(b is given[0] for b in given)
        _, ids, _ = collate(records)
        assert given[0].dtype == dtype and np.isinf(given[0]).any()
        np.testing.assert_array_equal(given[0], key_bias(ids != PAD_ID, dtype))

    def test_a_sequence_of_only_padding_is_a_contract_error(self):
        cfg = tiny_config()
        images, ids, _ = collate(generate_corpus(cfg.corpus_spec()).train[:2])
        ids[1] = PAD_ID
        with pytest.raises(ContractError, match="attention_heads row with no finite entry"):
            CrossModalModel.create(cfg).embed(images, ids)


class _RoundedDraws:
    """Each ``Generator.uniform`` or ``normal`` draw rounded with ``astype``
    as it is made: parameter by parameter, in draw order."""

    def __init__(self, rng, dtype):
        self.rng, self.dtype = rng, dtype

    def uniform(self, *args, **kwargs):
        return self.rng.uniform(*args, **kwargs).astype(self.dtype)

    def normal(self, *args, **kwargs):
        return self.rng.normal(*args, **kwargs).astype(self.dtype)


def reference_parameters(cfg) -> dict:
    """The parameters drawn one array at a time through ``_RoundedDraws``,
    with every zero and one rounded after."""
    rng, layout = _RoundedDraws(np.random.default_rng(cfg.seed), cfg.dtype), cfg.layout()
    model = CrossModalModel(
        layout, VisionEncoderParams.create(rng, layout, cfg.feature_dim),
        TextEncoderParams.create(rng, layout, cfg.feature_dim),
        CrossModalStack.create(rng, cfg.feature_dim, cfg.num_heads, depth=cfg.depth,
                               hidden_dim=cfg.hidden_dim, embed_dim=cfg.embed_dim,
                               use_cross=cfg.use_cross, use_gate=cfg.use_gate))
    return {name: p.data.astype(cfg.dtype) for name, p in model.parameters().items()}


class TestFlatBuffer:
    @pytest.mark.parametrize("draw", [True, False], ids=["drawn", "undrawn"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_parameters_are_consecutive_views_of_one_flat_buffer(self, dtype, draw):
        """In ``parameters()`` order, covering the buffer; undrawn, the
        biases and norms still hold their zeros and ones."""
        cfg = tiny_config(dtype=dtype)
        params = CrossModalModel.create(cfg, draw=draw).parameters()
        flat = next(iter(params.values())).data.base
        assert flat.ndim == 1 and flat.dtype == dtype
        assert flat.size == sum(p.size for p in params.values())
        lo = 0
        for p in params.values():
            assert p.data.base is flat and p.data.flags.c_contiguous
            assert p.data.ctypes.data == flat.ctypes.data + lo * flat.itemsize
            lo += p.size
        reference = reference_parameters(cfg)
        constant = [n for n in params if n.endswith(("bias", "gamma", "beta"))]
        assert constant
        for name in constant if not draw else params:
            assert params[name].data.tobytes() == reference[name].tobytes()

    @pytest.mark.parametrize("cfg", [RunConfig(), replace(RunConfig(), dtype="float32"),
                                     tiny_config(dtype="float32", seed=5)],
                             ids=["desk_float64", "desk_float32", "tiny_float32"])
    def test_values_are_the_draws_rounded_one_array_at_a_time(self, cfg):
        params = CrossModalModel.create(cfg).parameters()
        reference = reference_parameters(cfg)
        assert list(params) == list(reference)
        for name, p in params.items():
            assert p.data.dtype == cfg.dtype
            assert p.data.tobytes() == reference[name].tobytes(), name


class TestLoadArrays:
    def arrays(self, seed):
        model = CrossModalModel.create(tiny_config(seed=seed))
        return {name: p.data.copy() for name, p in model.parameters().items()}

    def test_round_trip(self):
        model = CrossModalModel.create(tiny_config())
        arrays = self.arrays(seed=1)
        model.load_arrays(arrays)
        for name, p in model.parameters().items():
            np.testing.assert_array_equal(p.data, arrays[name])

    @pytest.mark.parametrize("edit, message", [
        ("drop", r"missing \[.stack.head_text.fc2.bias.\]"),
        ("extra", r"unknown \[.stack.extra.\]"),
        ("shape", r"stack.head_text.fc2.bias has shape \(1,\)"),
    ])
    def test_mismatch_rejected_before_any_write(self, edit, message):
        model = CrossModalModel.create(tiny_config())
        before = {name: p.data.copy() for name, p in model.parameters().items()}
        arrays = self.arrays(seed=1)
        if edit == "drop":
            del arrays["stack.head_text.fc2.bias"]
        elif edit == "extra":
            arrays["stack.extra"] = np.zeros(3)
        else:
            arrays["stack.head_text.fc2.bias"] = np.zeros(1)
        with pytest.raises(DataError, match=message):
            model.load_arrays(arrays)
        for name, p in model.parameters().items():
            np.testing.assert_array_equal(p.data, before[name])
