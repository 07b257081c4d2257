"""Run configuration: validation and the flat text format."""

from dataclasses import fields

import pytest

from crossdoc.config import RunConfig, format_config, parse_config
from crossdoc.errors import ConfigError

# One value per RunConfig field, each different from the field's default.
OFF_DEFAULT = dict(
    feature_dim=48, num_heads=3, depth=3, hidden_dim=40, embed_dim=12,
    temperature=0.07, inter_weight=0.25, include_own_pair=True, loss_mode="scl",
    use_cross=False, use_gate=False, corpus_path="corpora/one doc.bin",
    classes=5, samples_per_class=30, image_size=8, channels=3, patch_size=2,
    vocab_size=40, pixel_noise=0.2, token_corruption=0.3, corpus_seed=7,
    steps=12, batch_size=6, base_lr=1.5e-4, warmup_frac=0.2, weight_decay=0.0,
    beta1=0.8, beta2=0.99, adam_eps=1e-6, seed=11, log_every=3,
    checkpoint_every=5, probe_steps=7, probe_lr=0.1, ablate_seeds=(),
    ablate_steps=4,
)


def test_off_default_values_cover_every_field():
    defaults = RunConfig()
    assert OFF_DEFAULT.keys() == {f.name for f in fields(RunConfig)}
    for name, value in OFF_DEFAULT.items():
        assert value != getattr(defaults, name), name


@pytest.mark.parametrize("cfg", [RunConfig(), RunConfig(**OFF_DEFAULT)],
                         ids=["defaults", "off_default"])
def test_format_parse_round_trip(cfg):
    assert parse_config(format_config(cfg)) == cfg


@pytest.mark.parametrize("batch_size", [5, 7])
def test_odd_batch_size_rejected(batch_size):
    with pytest.raises(ConfigError, match="even"):
        RunConfig(batch_size=batch_size)


@pytest.mark.parametrize(
    "corpus_path",
    ["data/run#2/corpus.bin", "data/a\nb.bin", "data/a\rb.bin", " data/x.bin", "data/x.bin\t"],
    ids=["hash", "newline", "carriage_return", "leading_space", "trailing_tab"])
def test_corpus_path_the_text_format_cannot_carry_rejected(corpus_path):
    with pytest.raises(ConfigError, match="corpus_path"):
        RunConfig(corpus_path=corpus_path)
