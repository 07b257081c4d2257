"""The command line: a corpus or checkpoint whose document layout does not
match the model is a data error (exit 2) before any file is written, and
every other error class ends in its documented exit code."""

import pytest

from crossdoc import cli, train
from crossdoc.errors import ContractError, ShapeError

TINY = """\
feature_dim = 8
num_heads = 2
hidden_dim = 8
embed_dim = 4
samples_per_class = 10
batch_size = 4
steps = 1
probe_steps = 1
"""


def run(tmp_path, command, name, extra="", args=()):
    config = tmp_path / f"{name}.txt"
    config.write_text(TINY + extra)
    out = tmp_path / name
    return cli.main([command, "--config", str(config), "--out", str(out), *args]), out


@pytest.mark.parametrize("corpus_fields, run_fields", [
    ("image_size = 8\n", ""),  # 8x8 documents, 16x16 model
    ("vocab_size = 32\n", ""),  # ids fit, but the model's vocab differs
    ("", "vocab_size = 32\n"),  # ids beyond the model's vocab
], ids=["image_8x8", "corpus_vocab_32", "model_vocab_32"])
def test_pretrain_on_mismatched_corpus(tmp_path, capsys, corpus_fields, run_fields):
    code, corpus_dir = run(tmp_path, "gen-corpus", "corpus", corpus_fields)
    assert code == 0
    corpus_path = f"corpus_path = {corpus_dir / 'corpus.bin'}\n"
    code, out = run(tmp_path, "pretrain", "run", run_fields + corpus_path)
    assert code == 2
    assert "DocumentLayout" in capsys.readouterr().err
    assert not (out / "checkpoint.bin").exists()


def test_probe_checkpoint_of_another_layout(tmp_path, capsys):
    code, out = run(tmp_path, "pretrain", "small", "image_size = 8\n")
    assert code == 0
    ckpt = ["--ckpt", str(out / "checkpoint.bin")]
    code, _ = run(tmp_path, "probe", "probe_small", "image_size = 8\n", ckpt)
    assert code == 0
    capsys.readouterr()
    code, _ = run(tmp_path, "probe", "probe_default", "", ckpt)
    assert code == 2
    assert "DocumentLayout" in capsys.readouterr().err


def test_probe_embeds_with_a_frozen_encoder(tmp_path, monkeypatch):
    code, out = run(tmp_path, "pretrain", "run", "image_size = 8\n")
    assert code == 0
    trainable = []
    real = train.embed_records

    def spy(model, records, *args, **kwargs):
        trainable.extend(p.requires_grad for p in model.parameters().values())
        return real(model, records, *args, **kwargs)

    monkeypatch.setattr(train, "embed_records", spy)
    ckpt = ["--ckpt", str(out / "checkpoint.bin")]
    code, _ = run(tmp_path, "probe", "probe", "image_size = 8\n", ckpt)
    assert code == 0
    assert trainable and not any(trainable)


def test_invalid_config_exits_1(tmp_path, capsys):
    code, out = run(tmp_path, "pretrain", "run", "batch_size = 5\n")
    assert code == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_run_exits_3(tmp_path, capsys):
    code, _ = run(tmp_path, "pretrain", "run", "steps = 3\nbase_lr = 1e300\n")
    assert code == 3
    assert "numeric failure" in capsys.readouterr().err


@pytest.mark.parametrize("error", [ContractError, ShapeError])
def test_contract_and_shape_errors_exit_4(tmp_path, capsys, monkeypatch, error):
    def broken(cfg, out):
        raise error("operands disagree")

    monkeypatch.setattr(cli, "pretrain", broken)
    code, _ = run(tmp_path, "pretrain", "run")
    assert code == 4
    assert capsys.readouterr().err == f"contract violation: {error.__name__}: operands disagree\n"
