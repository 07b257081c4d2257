"""Model assembly: the parameter tree, its names, and checkpoint loading."""

import numpy as np
import pytest

from crossdoc.autodiff import backward
from crossdoc.config import RunConfig
from crossdoc.data import collate, generate_corpus, make_batch
from crossdoc.errors import DataError
from crossdoc.model import CrossModalModel
from crossdoc.train import batch_loss


def tiny_config(**kw):
    return RunConfig(feature_dim=8, num_heads=2, hidden_dim=8, embed_dim=4,
                     image_size=8, vocab_size=16, samples_per_class=10,
                     batch_size=4, **kw)


class TestParameterTree:
    def test_backward_reaches_exactly_the_parameters(self):
        """Guards the reflective walk: a Tensor the forward pass uses but the
        walk misses (say, one held in a tuple or dict) would show up here."""
        cfg = tiny_config()
        model = CrossModalModel.create(cfg, seed=0)
        splits = generate_corpus(cfg.corpus_spec())
        records = make_batch(splits.train, cfg.batch_size, np.random.default_rng(0))
        tape = backward(batch_loss(model, records, cfg).total)
        reached = {id(n) for n in tape.nodes if n.op == "leaf" and n.requires_grad}
        params = model.parameters()
        assert {id(p) for p in params.values()} == reached
        assert len(params) == len(reached)

    def test_frozen_model_embeds_without_a_graph(self):
        cfg = tiny_config()
        images, ids, _ = collate(generate_corpus(cfg.corpus_spec()).train[:4])
        trainable = CrossModalModel.create(cfg, seed=0)
        frozen = CrossModalModel.create(cfg, seed=0)
        for p in frozen.parameters().values():
            p.requires_grad = False
        for live, fixed in zip(trainable.embed(images, ids), frozen.embed(images, ids)):
            assert live._parents and not fixed._parents
            np.testing.assert_array_equal(live.data, fixed.data)

    def test_names_follow_the_dataclass_tree(self):
        names = list(CrossModalModel.create(tiny_config(), seed=0).parameters())
        assert names[:5] == [
            "vision_encoder.proj.weight", "vision_encoder.proj.bias",
            "vision_encoder.cls_row", "vision_encoder.positions",
            "text_encoder.table",
        ]
        assert "stack.blocks.0.cross.attn_into_vision.w_q.weight" in names
        assert "stack.blocks.1.gate_text.ff.fc2.bias" in names
        assert names[-1] == "stack.head_text.out.bias"
        assert len(names) == len(set(names))


class TestLoadArrays:
    def arrays(self, seed):
        model = CrossModalModel.create(tiny_config(), seed=seed)
        return {name: p.data.copy() for name, p in model.parameters().items()}

    def test_round_trip(self):
        model = CrossModalModel.create(tiny_config(), seed=0)
        arrays = self.arrays(seed=1)
        model.load_arrays(arrays)
        for name, p in model.parameters().items():
            np.testing.assert_array_equal(p.data, arrays[name])

    @pytest.mark.parametrize("edit, message", [
        ("drop", r"missing \[.stack.head_text.out.bias.\]"),
        ("extra", r"unknown \[.stack.extra.\]"),
        ("shape", r"stack.head_text.out.bias has shape \(1,\)"),
    ])
    def test_mismatch_rejected_before_any_write(self, edit, message):
        model = CrossModalModel.create(tiny_config(), seed=0)
        before = {name: p.data.copy() for name, p in model.parameters().items()}
        arrays = self.arrays(seed=1)
        if edit == "drop":
            del arrays["stack.head_text.out.bias"]
        elif edit == "extra":
            arrays["stack.extra"] = np.zeros(3)
        else:
            arrays["stack.head_text.out.bias"] = np.zeros(1)
        with pytest.raises(DataError, match=message):
            model.load_arrays(arrays)
        for name, p in model.parameters().items():
            np.testing.assert_array_equal(p.data, before[name])
