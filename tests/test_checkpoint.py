"""Checkpoint container: round trip and strict reading."""

import numpy as np
import pytest

from crossdoc import cli
from crossdoc.checkpoint import load_checkpoint, save_checkpoint
from crossdoc.config import RunConfig, format_config
from crossdoc.errors import FormatError
from crossdoc.model import CrossModalModel
from crossdoc.optim import AdamW

# magic (4) | u16 version | u64 step | u32 config-text length
CONFIG_TEXT_OFFSET = 18


@pytest.fixture
def saved(tmp_path):
    """A tiny model's checkpoint: (path, config text, parameters, optimizer)."""
    cfg = RunConfig(feature_dim=8, num_heads=2, hidden_dim=8, embed_dim=4,
                    image_size=8, vocab_size=16, samples_per_class=10, batch_size=4)
    params = CrossModalModel.create(cfg, seed=0).parameters()
    opt = AdamW(params)
    for p in params.values():
        p.grad = np.full(p.shape, 0.5)
    opt.step(1e-3)
    path = tmp_path / "checkpoint.bin"
    config_text = format_config(cfg)
    save_checkpoint(path, 3, config_text, params, opt)
    return path, config_text, params, opt


def overwrite(path, offset, payload):
    raw = bytearray(path.read_bytes())
    raw[offset:offset + len(payload)] = payload
    path.write_bytes(bytes(raw))


def test_round_trip_is_bit_exact(saved):
    path, config_text, params, opt = saved
    ckpt = load_checkpoint(path)
    assert (ckpt.step, ckpt.config_text, ckpt.optimizer_step) == (3, config_text, 1)
    assert list(ckpt.params) == list(params)
    for name, p in params.items():
        np.testing.assert_array_equal(ckpt.params[name], p.data)
    for name, a in opt.state_arrays().items():
        np.testing.assert_array_equal(ckpt.optimizer_arrays[name], a)


@pytest.mark.parametrize("version", [1, 2])
def test_old_version_refused(saved, capsys, version):
    """Versions 1 and 2 name parameters differently; they are refused, not
    read into the wrong fields."""
    path = saved[0]
    overwrite(path, 4, version.to_bytes(2, "little"))
    with pytest.raises(FormatError, match=f"version {version}"):
        load_checkpoint(path)
    assert cli.main(["probe", "--ckpt", str(path)]) == 2
    assert f"version {version}" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["config_text", "parameter_name"])
def test_invalid_utf8_reports_byte_offset(saved, where):
    path, config_text = saved[0], saved[1]
    offset = CONFIG_TEXT_OFFSET + 3
    if where == "parameter_name":
        # past the config text, the u32 array count and the u16 name length
        offset = CONFIG_TEXT_OFFSET + len(config_text.encode()) + 4 + 2
    overwrite(path, offset, b"\xff")
    with pytest.raises(FormatError, match=f"invalid utf-8 at byte {offset}"):
        load_checkpoint(path)


@pytest.mark.parametrize("line, corrupt, message", [
    ("feature_dim = 8", b"\xff", "invalid utf-8"),
    ("feature_dim = 8", b"feature_dim = x", "invalid config echo"),
    ("image_size = 8", b"image_size = 9", "invalid config echo"),  # patch 4 does not divide 9
], ids=["invalid_utf8", "not_an_integer", "indivisible_image"])
def test_corrupt_config_echo_in_probe_is_a_data_error(saved, capsys, line, corrupt, message):
    path, config_text = saved[0], saved[1]
    overwrite(path, CONFIG_TEXT_OFFSET + config_text.index(line), corrupt)
    assert cli.main(["probe", "--ckpt", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_trailing_bytes_rejected(saved):
    path = saved[0]
    size = path.stat().st_size
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match=f"trailing bytes in checkpoint at byte {size}"):
        load_checkpoint(path)


def test_non_finite_value_in_probe_is_a_format_error(saved, capsys):
    path, config_text, params = saved[:3]
    name = next(iter(params))
    ndim = params[name].ndim
    # past the config text, the u32 array count, the u16 name length, the
    # name, the u8 ndim and the u32 dims, then two values in
    offset = CONFIG_TEXT_OFFSET + len(config_text.encode()) + 4 + 2 + len(name) + 1 + 4 * ndim + 16
    overwrite(path, offset, np.array([np.nan], dtype="<f8").tobytes())
    assert cli.main(["probe", "--ckpt", str(path)]) == 2
    assert f"array {name!r} has a non-finite value at byte {offset}" in capsys.readouterr().err


def test_ablated_checkpoint_holding_dead_stages_refused(saved, capsys):
    """A `neither` checkpoint that still carries every stage's arrays (as
    files did when switched-off stages stayed allocated) is refused by the
    strict name check."""
    path, config_text, params, opt = saved
    ablated = config_text.replace("use_cross = true", "use_cross = false").replace(
        "use_gate = true", "use_gate = false")
    assert ablated != config_text
    save_checkpoint(path, 3, ablated, params, opt)
    assert cli.main(["probe", "--ckpt", str(path)]) == 2
    err = capsys.readouterr().err
    assert "missing []" in err and "stack.blocks.0.cross.into_vision.attn.w_q.weight" in err
