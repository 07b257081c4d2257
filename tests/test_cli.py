"""The command line: a corpus file whose header does not hold the config's
corpus spec (layout and corpus fields) is a data error (exit 2) before any
file is written, and every other error class ends in its documented exit
code.  ``train.load_corpus`` holds the spec check, for ``probe`` too, whose
config is the checkpoint's echo."""

import struct
from dataclasses import fields

import numpy as np
import pytest

from crossdoc import cli, data, train
from crossdoc.checkpoint import load_checkpoint
from crossdoc.config import parse_config
from crossdoc.encoders import CLS_ID, NUM_RESERVED_IDS, PAD_ID, SEP_ID
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
    """``crossdoc command`` on TINY, with each ``key = value`` line of
    ``extra`` in place of TINY's line for that key (a key may appear once)."""
    lines = dict(line.split(" = ", 1) for line in (TINY + extra).splitlines())
    config = tmp_path / f"{name}.txt"
    config.write_text("".join(f"{key} = {value}\n" for key, value in lines.items()))
    out = tmp_path / name
    return cli.main([command, "--config", str(config), "--out", str(out), *args]), out


@pytest.mark.parametrize("corpus_fields, run_fields, differs", [
    ("image_size = 8\n", "", "image_size = 8 in the file, 16"),  # 8x8 documents, 16x16 model
    # ids fit, but the model's vocab differs
    ("vocab_size = 32\n", "", "vocab_size = 32 in the file, 64"),
    ("", "vocab_size = 32\n", "vocab_size = 64 in the file, 32"),  # ids beyond the model's vocab
], ids=["image_8x8", "corpus_vocab_32", "model_vocab_32"])
def test_pretrain_on_mismatched_corpus(tmp_path, capsys, corpus_fields, run_fields, differs):
    code, corpus_dir = run(tmp_path, "gen-corpus", "corpus", corpus_fields)
    assert code == 0
    corpus = corpus_dir / "corpus.bin"
    capsys.readouterr()
    code, out = run(tmp_path, "pretrain", "run", run_fields + f"corpus_path = {corpus}\n")
    assert code == 2
    assert capsys.readouterr().err == (
        f"data error: corpus file {corpus} does not match the config: {differs} in the config\n")
    assert not (out / "checkpoint.bin").exists()


# (split, record, field, position in the field, value, what the error names):
# each case writes one bad value into one record of a valid corpus.
CORRUPTIONS = {
    "label": ("train", 5, "label", (), 4, "label >= 4 classes"),
    "no_cls": ("train", 0, "ids", (0,), NUM_RESERVED_IDS, "[CLS]"),
    "no_sep": ("test", 2, "ids", (-1,), NUM_RESERVED_IDS, "not [SEP]"),  # the last id was [SEP] or [PAD]
    "token_id_1e6": ("test", 5, "ids", (1,), 10**6, "vocab_size 64"),
    # every record has a content token at position 1
    "pad_in_content": ("train", 9, "ids", (1,), PAD_ID, "reserved token id"),
    "cls_in_content": ("train", 2, "ids", (1,), CLS_ID, "reserved token id"),
    "sep_in_content": ("test", 3, "ids", (1,), SEP_ID, "reserved token id"),
    "nan_pixel": ("test", 1, "image", (0, 0, 0), np.nan, "pixel"),
    "pixel_1e30": ("train", 7, "image", (5, 9, 0), 1e30, "pixel"),
}


@pytest.mark.parametrize("case", CORRUPTIONS)
def test_corrupt_record_exits_2_before_any_output(tmp_path, capsys, case):
    """Every record is checked as the corpus loads, and ``pretrain`` loads
    it before creating its output directory; the message names the split,
    the record and the record's byte offset."""
    split, index, field, position, value, what = CORRUPTIONS[case]
    code, corpus_dir = run(tmp_path, "gen-corpus", "corpus")
    assert code == 0
    path = corpus_dir / "corpus.bin"
    spec, splits = data.read_corpus(path)
    getattr(splits, split)[field][(index, *position)] = value
    data.write_corpus(path, spec, splits)
    itemsize = data.record_dtype(spec.layout).itemsize
    order = [f.name for f in fields(data.CorpusSplits)]
    earlier = order[:order.index(split)]
    # magic, version, spec and the train count; then each earlier split
    header = len(data.MAGIC) + struct.calcsize("<H" + "".join(c for _, c in data.SPEC_HEADER))
    offset = header + 4 + sum(len(getattr(splits, s)) * itemsize + 4 for s in earlier)
    offset += index * itemsize
    capsys.readouterr()
    code, out = run(tmp_path, "pretrain", "run", f"corpus_path = {path}\n")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: corpus file {split} record {index} at byte {offset}: ")
    assert what in err
    assert not out.exists()


# Each edit leaves a corpus whose every record is valid but whose splits
# cannot serve a run: (split, what the error says about it).
UNUSABLE_SPLITS = {
    "one_train_class": (
        lambda splits: data.CorpusSplits(splits.train[splits.train["label"] == 2], splits.test),
        "the train split holds 1 class(es), and a batch needs two"),
    "empty_test": (
        lambda splits: data.CorpusSplits(splits.train, splits.test[:0]),
        "the test split holds 0 records, and the probe needs one"),
}


@pytest.mark.parametrize("command", ["pretrain", "ablate"])
@pytest.mark.parametrize("case", UNUSABLE_SPLITS)
def test_corpus_whose_splits_cannot_serve_a_run_exits_2_before_any_output(
        tmp_path, capsys, command, case):
    """One class left in the train split, or no test record: a data error
    naming the file and the split, raised as the corpus loads (``pretrain``
    wrote its checkpoint and metrics first; ``ablate`` pretrained a variant
    and then failed with a numpy traceback)."""
    edit, what = UNUSABLE_SPLITS[case]
    code, corpus_dir = run(tmp_path, "gen-corpus", "corpus")
    assert code == 0
    path = corpus_dir / "corpus.bin"
    spec, splits = data.read_corpus(path)
    data.write_corpus(path, spec, edit(splits))
    capsys.readouterr()
    code, out = run(tmp_path, command, "run", f"corpus_path = {path}\nablate_seeds = 0\n")
    assert code == 2
    assert capsys.readouterr().err == f"data error: corpus file {path}: {what}\n"
    assert not out.exists()


def test_corpus_of_another_class_count_exits_2_naming_the_file(tmp_path, capsys):
    code, corpus_dir = run(tmp_path, "gen-corpus", "corpus", "classes = 5\n")
    assert code == 0
    path = corpus_dir / "corpus.bin"
    capsys.readouterr()
    code, out = run(tmp_path, "pretrain", "run", f"corpus_path = {path}\n")
    assert code == 2
    assert capsys.readouterr().err == (
        f"data error: corpus file {path} does not match the config: "
        "classes = 5 in the file, 4 in the config\n")
    assert not out.exists()


def test_config_file_that_is_not_utf8_exits_1_before_any_output(tmp_path, capsys):
    """The config is read as UTF-8 whatever the locale; a byte that does not
    decode is one ``config error`` line naming the file and the byte, not a
    ``UnicodeDecodeError`` traceback."""
    config = tmp_path / "run.txt"
    config.write_bytes(b"steps = 1\n# caf\xe9\n")
    out = tmp_path / "run"
    code = cli.main(["pretrain", "--config", str(config), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"config error: config file {config} is not UTF-8: byte 15 is 0xe9\n")
    assert not out.exists()


def test_config_and_its_echo_are_utf8(tmp_path):
    """A non-ASCII value is read from UTF-8 and echoed as UTF-8."""
    config = tmp_path / "run.txt"
    config.write_bytes((TINY + "corpus_path = corpora/données.bin\n").encode("utf-8"))
    out = tmp_path / "corpus"
    assert cli.main(["gen-corpus", "--config", str(config), "--out", str(out)]) == 0
    echo = (out / "corpus_config.txt").read_bytes().decode("utf-8")
    assert "corpus_path = corpora/données.bin\n" in echo


def test_layout_without_room_for_content_exits_1(tmp_path, capsys):
    """One 4x4 patch gives 2 rows: [CLS] and [SEP] fill them."""
    code, out = run(tmp_path, "gen-corpus", "corpus", "image_size = 4\n")
    assert code == 1
    assert capsys.readouterr().err.startswith("config error: layout has 2 rows")
    assert not out.exists()


@pytest.mark.parametrize("command", ["pretrain", "gen-corpus"])
@pytest.mark.parametrize("channels", [0, -1])
def test_layout_without_channels_exits_1(tmp_path, capsys, command, channels):
    """A config error before any output, not a numpy traceback."""
    code, out = run(tmp_path, command, "run", f"channels = {channels}\n")
    assert code == 1
    assert capsys.readouterr().err == f"config error: channels must be >= 1, got {channels}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["pretrain", "gen-corpus"])
@pytest.mark.parametrize("extra, message", [
    (f"corpus_seed = {2**64}\n",
     f"corpus_seed must lie in [0, {2**64 - 1}], a u64 in the corpus header, got {2**64}"),
    ("classes = 65536\nvocab_size = 70000\n",
     "classes must lie in [0, 65535], a u16 in the corpus header, got 65536"),
    (f"vocab_size = {2**32 + 8}\n",
     f"vocab_size must lie in [0, {2**32 - 1}], a u32 in the corpus header, got {2**32 + 8}"),
    ("image_size = 65536\n",
     "image_size must lie in [0, 65535], a u16 in the corpus header, got 65536"),
], ids=["corpus_seed_2**64", "classes_65536", "vocab_size_2**32+8", "image_size_65536"])
def test_corpus_the_container_cannot_store_exits_1(tmp_path, capsys, command, extra, message):
    """Each corpus header field has a fixed width (u64 corpus_seed, u16
    classes and image_size, u32 vocab_size): a value beyond it is a config
    error naming the config key, which is also the field's name, before any
    output, not a ``struct.error`` traceback or wrapped labels."""
    code, out = run(tmp_path, command, "run", extra)
    assert code == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_gen_corpus_echoes_the_config_of_its_corpus(tmp_path):
    code, out = run(tmp_path, "gen-corpus", "corpus", "pixel_noise = 0.2\ncorpus_seed = 3\n")
    assert code == 0
    cfg = parse_config((tmp_path / "corpus.txt").read_text())
    assert parse_config((out / "corpus_config.txt").read_text()) == cfg
    spec, _ = data.read_corpus(out / "corpus.bin")
    assert spec == cfg.corpus_spec()


def test_ablate_generates_its_corpus_once(tmp_path, monkeypatch):
    """Every variant's pretrain and probe share the one corpus ``ablate``
    loads (it was generated twice per variant)."""
    calls = []
    real = train.generate_corpus

    def counted(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(train, "generate_corpus", counted)
    code, out = run(tmp_path, "ablate", "ablate", "ablate_seeds = 0\nablate_steps = 1\n")
    assert code == 0
    assert len(calls) == 1
    assert (out / "ablation.json").exists()


@pytest.mark.parametrize("key, value", [
    ("ablate_seeds", ""), ("ablate_seeds", "3,3"), ("ablate_steps", -1), ("probe_steps", -3),
])
def test_ablation_that_cannot_run_exits_1_before_any_output(tmp_path, capsys, key, value):
    code, out = run(tmp_path, "ablate", "ablate", f"{key} = {value}\n")
    assert code == 1
    assert capsys.readouterr().err.startswith(f"config error: {key} must")
    assert not out.exists()


@pytest.mark.parametrize("target", ["missing", "directory"])
def test_probe_of_an_unopenable_checkpoint_exits_2(tmp_path, capsys, target):
    ckpt = tmp_path / "ckpt"
    if target == "directory":
        ckpt.mkdir()
    assert cli.main(["probe", "--ckpt", str(ckpt)]) == 2
    assert capsys.readouterr().err.startswith(f"data error: cannot open checkpoint {ckpt}: ")


@pytest.mark.parametrize("command", ["pretrain", "ablate", "gen-corpus"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "under_file"])
def test_output_path_the_os_refuses_exits_2(tmp_path, capsys, command, below):
    """``--out`` naming an existing file, or a path under one: the OS
    refuses the directory, and that is one ``data error`` line, not a
    traceback with the config-error code."""
    blocker = tmp_path / "taken"
    blocker.write_text("kept\n")
    out = blocker / "x" if below else blocker
    config = tmp_path / "tiny.txt"
    config.write_text(TINY)
    code = cli.main([command, "--config", str(config), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert str(out) in err
    assert blocker.read_text() == "kept\n"


def test_checkpoint_the_disk_refuses_exits_2(tmp_path, capsys, disk_full_beyond):
    disk_full_beyond(4096)
    code, out = run(tmp_path, "pretrain", "run")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert not (out / "checkpoint.bin").exists()


@pytest.mark.parametrize("target", ["missing", "directory"])
def test_unreadable_config_file_exits_2_before_any_output(tmp_path, capsys, target):
    config = tmp_path / "config"
    if target == "directory":
        config.mkdir()
    out = tmp_path / "run"
    code = cli.main(["pretrain", "--config", str(config), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert str(config) in err
    assert not out.exists()


def test_pretrain_on_a_missing_corpus_exits_2_before_any_output(tmp_path, capsys):
    corpus = tmp_path / "absent.bin"
    code, out = run(tmp_path, "pretrain", "run", f"corpus_path = {corpus}\n")
    assert code == 2
    assert capsys.readouterr().err == (
        f"data error: cannot open corpus file {corpus}: No such file or directory\n")
    assert not out.exists()


def pretrain_on_a_corpus_file(tmp_path):
    """A ``gen-corpus`` file and the checkpoint pretrained on it."""
    code, corpus_dir = run(tmp_path, "gen-corpus", "corpus")
    assert code == 0
    corpus = corpus_dir / "corpus.bin"
    code, out = run(tmp_path, "pretrain", "run", f"corpus_path = {corpus}\n")
    assert code == 0
    return corpus, out / "checkpoint.bin"


def test_probe_of_a_corpus_file_regenerated_at_another_layout_exits_2(tmp_path, capsys):
    """The probe checks the corpus file its checkpoint's echo names against
    the echo's layout, not against a layout of its own."""
    _, ckpt = pretrain_on_a_corpus_file(tmp_path)
    code, _ = run(tmp_path, "gen-corpus", "corpus", "image_size = 8\n")
    assert code == 0
    capsys.readouterr()
    assert cli.main(["probe", "--ckpt", str(ckpt)]) == 2
    assert "image_size = 8 in the file, 16 in the config" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("corpus_seed", "7"), ("pixel_noise", "0.5"), ("samples_per_class", "12"),
])
def test_probe_of_a_corpus_file_regenerated_with_another_corpus_field_exits_2(
        tmp_path, capsys, field, value):
    """A corpus regenerated in place at the same layout but with another
    seed, noise level or size is not the corpus the checkpoint was
    pretrained on: the probe names the field and both values, and scores
    nothing."""
    _, ckpt = pretrain_on_a_corpus_file(tmp_path)
    default = getattr(parse_config(TINY), field)
    code, _ = run(tmp_path, "gen-corpus", "corpus", f"{field} = {value}\n")
    assert code == 0
    capsys.readouterr()
    assert cli.main(["probe", "--ckpt", str(ckpt)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{field} = {value} in the file, {default} in the config\n" in captured.err


def test_probe_of_a_checkpoint_whose_corpus_file_is_gone_exits_2(tmp_path, capsys):
    """The echo's corpus file is the one the probe reads: with it deleted,
    the probe does not fall back to a generated corpus."""
    corpus, ckpt = pretrain_on_a_corpus_file(tmp_path)
    corpus.unlink()
    capsys.readouterr()
    assert cli.main(["probe", "--ckpt", str(ckpt)]) == 2
    assert capsys.readouterr().err == (
        f"data error: cannot open corpus file {corpus}: No such file or directory\n")


def test_probe_embeds_with_a_frozen_encoder(tmp_path, monkeypatch):
    code, out = run(tmp_path, "pretrain", "run", "image_size = 8\n")
    assert code == 0
    trainable = []
    real = train.embed_records

    def spy(model, records, *args, **kwargs):
        trainable.extend(p.requires_grad for p in model.parameters().values())
        return real(model, records, *args, **kwargs)

    monkeypatch.setattr(train, "embed_records", spy)
    assert cli.main(["probe", "--ckpt", str(out / "checkpoint.bin")]) == 0
    assert trainable and not any(trainable)


@pytest.mark.parametrize("argv, option", [
    (["gradcheck", "--config", "run.txt"], "--config"),
    (["gradcheck", "--preset", "desk"], "--preset"),
    (["gradcheck", "--seed", "1"], "--seed"),
    (["gradcheck", "--out", "runs/x"], "--out"),
    (["probe", "--ckpt", "checkpoint.bin", "--out", "runs/x"], "--out"),
    (["probe", "--ckpt", "checkpoint.bin", "--seed", "1"], "--seed"),
    (["probe", "--config", "run.txt", "--ckpt", "checkpoint.bin"], "--config"),
    (["probe", "--preset", "desk", "--ckpt", "checkpoint.bin"], "--preset"),
    (["ablate", "--seed", "1"], "--seed"),
    (["gen-corpus", "--seed", "1"], "--seed"),
], ids=["gradcheck_config", "gradcheck_preset", "gradcheck_seed", "gradcheck_out",
        "probe_out", "probe_seed", "probe_config", "probe_preset", "ablate_seed",
        "gen_corpus_seed"])
def test_option_the_command_does_not_read_is_refused(capsys, argv, option):
    """The audit reads no run config, ``probe`` writes no files and takes
    every setting from the checkpoint's config echo, and ``ablate`` and
    ``gen-corpus`` take their seeds from ``ablate_seeds`` and
    ``corpus_seed``: each option they would ignore is a usage error."""
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


def test_invalid_config_exits_1(tmp_path, capsys):
    code, out = run(tmp_path, "pretrain", "run", "batch_size = 5\n")
    assert code == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("num_heads", 0), ("hidden_dim", 0), ("embed_dim", 1),
    ("temperature", 0.0), ("inter_weight", -0.5),
])
def test_invalid_model_or_loss_field_exits_1(tmp_path, capsys, key, value):
    """Caught while the config is read, before any output is written."""
    code, out = run(tmp_path, "pretrain", "run", f"{key} = {value}\n")
    assert code == 1
    assert capsys.readouterr().err.startswith(f"config error: {key} must")
    assert not out.exists()


@pytest.mark.parametrize("command, extra, args, key", [
    ("pretrain", "feature_dim = 0\n", (), "feature_dim"),
    ("pretrain", "feature_dim = 1\nnum_heads = 1\n", (), "feature_dim"),
    ("pretrain", "seed = -1\n", (), "seed"),
    ("pretrain", "", ("--seed", "-5"), "seed"),
    ("pretrain", "corpus_seed = -1\n", (), "corpus_seed"),
    ("ablate", "ablate_seeds = 0,-1\n", (), "ablate_seeds"),
    ("pretrain", "temperature = inf\n", (), "temperature"),
    ("pretrain", "inter_weight = inf\n", (), "inter_weight"),
    ("pretrain", "base_lr = inf\n", (), "base_lr"),
    ("pretrain", "weight_decay = inf\n", (), "weight_decay"),
    ("pretrain", "adam_eps = inf\n", (), "adam_eps"),
    ("ablate", "probe_lr = inf\n", (), "probe_lr"),
    ("pretrain", "checkpoint_every = 0\n", (), "checkpoint_every"),
], ids=["feature_dim_0", "feature_dim_1", "seed", "seed_flag", "corpus_seed", "ablate_seeds",
        "temperature", "inter_weight", "base_lr", "weight_decay", "adam_eps", "probe_lr",
        "checkpoint_every"])
def test_value_that_cannot_run_exits_1_before_any_output(
        tmp_path, capsys, command, extra, args, key):
    """Negative seeds, a feature width below 2, infinite rates or weights
    and a zero cadence: each is named as the config is read, before any
    output."""
    code, out = run(tmp_path, command, "run", extra, args)
    assert code == 1
    assert capsys.readouterr().err.startswith(f"config error: {key} must")
    assert not out.exists()


def test_removed_own_pair_switch_exits_1(tmp_path, capsys):
    code, out = run(tmp_path, "pretrain", "run", "include_own_pair = false\n")
    assert code == 1
    assert "unknown config key 'include_own_pair'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("base_lr", 0.0), ("base_lr", "nan"), ("warmup_frac", 1.5), ("beta1", 1.0),
    ("adam_eps", 0.0), ("adam_eps", "nan"), ("weight_decay", -1.0), ("weight_decay", "nan"),
    ("probe_lr", -1.0),
])
def test_invalid_schedule_or_optimizer_field_writes_nothing(tmp_path, capsys, key, value):
    code, out = run(tmp_path, "pretrain", "run", f"{key} = {value}\n")
    assert code == 1
    assert capsys.readouterr().err.startswith(f"config error: {key} must")
    assert not out.exists()


@pytest.mark.parametrize("command", ["pretrain", "ablate"])
@pytest.mark.parametrize("key, value", [
    ("beta1", 1.0), ("beta2", "nan"), ("adam_eps", 0.0), ("weight_decay", -1.0),
])
def test_invalid_optimizer_field_exits_1_before_any_output(tmp_path, capsys, command, key, value):
    """``RunConfig`` rejects it, so neither command creates its output
    directory (``ablate`` used to create it before any optimizer checked)."""
    code, out = run(tmp_path, command, "run", f"{key} = {value}\n")
    assert code == 1
    assert capsys.readouterr().err.startswith(f"config error: {key} must")
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_run_exits_3(tmp_path, capsys):
    """No step before the failure is on the checkpoint cadence, so the run
    has saved nothing, and says so."""
    code, out = run(tmp_path, "pretrain", "run", "steps = 3\nbase_lr = 1e300\n")
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: step ")
    assert err.endswith("; no checkpoint written\n")
    assert not (out / "checkpoint.bin").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_run_names_its_last_checkpoint(tmp_path, capsys):
    """Saving after every step, a failed run names the step that the
    checkpoint it leaves holds."""
    code, out = run(tmp_path, "pretrain", "run",
                    "steps = 3\nbase_lr = 1e300\ncheckpoint_every = 1\n")
    assert code == 3
    err = capsys.readouterr().err
    path = out / "checkpoint.bin"
    saved = load_checkpoint(path).step
    assert saved >= 1
    assert err.endswith(f"; last checkpoint (step {saved}) retained at {path}\n")


def test_rejected_run_keeps_the_previous_checkpoint(tmp_path, capsys):
    """A run its config rejects writes nothing and deletes nothing, so an
    earlier run's checkpoint in the same directory stays as it was."""
    code, out = run(tmp_path, "pretrain", "run")
    assert code == 0
    before = (out / "checkpoint.bin").read_bytes()
    code, _ = run(tmp_path, "pretrain", "run", "beta1 = 1.0\n")
    assert code == 1
    assert (out / "checkpoint.bin").read_bytes() == before


@pytest.mark.parametrize("error", [ContractError, ShapeError])
def test_contract_and_shape_errors_exit_4(tmp_path, capsys, monkeypatch, error):
    def broken(cfg, out):
        raise error("operands disagree")

    monkeypatch.setattr(cli, "pretrain", broken)
    code, _ = run(tmp_path, "pretrain", "run")
    assert code == 4
    assert capsys.readouterr().err == f"contract violation: {error.__name__}: operands disagree\n"
