"""Checkpoint container: round trip, strict reading, an atomic streamed
write, and a load that holds its arrays once."""

import io
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from crossdoc import cli, train
from crossdoc import model as model_module
from crossdoc.autodiff import Tensor
from crossdoc.checkpoint import load_checkpoint, save_checkpoint
from crossdoc.config import RunConfig, format_config, parse_config
from crossdoc.container import Writer
from crossdoc.errors import FormatError, NumericError
from crossdoc.model import CrossModalModel
from crossdoc.optim import AdamW

from run_settings import adamw, backward_grads

# magic (4) | u16 version | u64 step | u32 config-text length
CONFIG_TEXT_OFFSET = 18

TINY = RunConfig(feature_dim=8, num_heads=2, hidden_dim=8, embed_dim=4, image_size=8,
                 vocab_size=16, samples_per_class=10, batch_size=4)


@pytest.fixture
def saved(tmp_path):
    """A tiny model's checkpoint: (path, config text, parameters, optimizer)."""
    params = CrossModalModel.create(TINY).parameters()
    opt = adamw(params)
    backward_grads(params, {name: np.full(p.shape, 0.5) for name, p in params.items()})
    opt.step(1e-3)
    path = tmp_path / "checkpoint.bin"
    config_text = format_config(TINY)
    save_checkpoint(path, 3, config_text, params, opt)
    return path, config_text, params, opt


def first_code_offset(config_text, params):
    """Where the first parameter's dtype code sits: past the config text,
    the u32 array count, the u16 name length and the name."""
    name = next(iter(params))
    return CONFIG_TEXT_OFFSET + len(config_text.encode()) + 4 + 2 + len(name.encode())


def first_payload_offset(config_text, params):
    """Where the first parameter's values start: past its dtype code, its
    u8 ndim and its u32 dims."""
    first = next(iter(params.values()))
    return first_code_offset(config_text, params) + 1 + 1 + 4 * first.ndim


def parameter_section_end(config_text, params):
    """Where the has-optimizer byte sits: past the config text, the u32 array
    count and each parameter's name, dtype code, dims and values."""
    end = CONFIG_TEXT_OFFSET + len(config_text.encode()) + 4
    for name, p in params.items():
        end += 2 + len(name.encode()) + 1 + 1 + 4 * p.ndim + p.data.itemsize * p.size
    return end


def checkpoint_size(config_text, params, state):
    """A checkpoint's size: the parameter section, the has-optimizer byte,
    the u64 optimizer step, and the moment section's u32 count and each
    moment's name, dtype code, dims and values."""
    moments = sum(2 + len(n.encode()) + 2 + 4 * a.ndim + a.nbytes for n, a in state.items())
    return parameter_section_end(config_text, params) + 1 + 8 + 4 + moments


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


def test_step0_checkpoint_ending_in_zero_moments_keeps_its_size(tmp_path):
    """A step-0 checkpoint's moments are all zero, the file's last array
    among them: the file has its full size and reads back bit for bit."""
    params = CrossModalModel.create(TINY).parameters()
    opt = adamw(params)
    state = opt.state_arrays()
    assert not any(a.any() for a in state.values())
    path = tmp_path / "checkpoint.bin"
    config_text = format_config(TINY)
    save_checkpoint(path, 0, config_text, params, opt)
    assert path.stat().st_size == checkpoint_size(config_text, params, state)
    ckpt = load_checkpoint(path)
    for name, p in params.items():
        assert ckpt.params[name].tobytes() == p.data.tobytes()
    for name, a in state.items():
        assert ckpt.optimizer_arrays[name].tobytes() == a.tobytes()


def test_negative_zero_is_written_and_keeps_its_sign(tmp_path):
    """An array of ``-0.0`` is zero by value but not by bytes: it reads
    back with its sign, not as ``+0.0``."""
    params = {"p": Tensor(np.full((4, 8), -0.0), requires_grad=True)}
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(path, 0, format_config(RunConfig()), params, adamw(params))
    loaded = load_checkpoint(path).params["p"]
    assert np.signbit(loaded).all() and not loaded.any()


@pytest.mark.parametrize("size", [100, 4096, 4097, (3 << 20) + 5])
def test_array_zero_but_its_last_byte_is_written(size):
    """An array that is zero but for its last byte, 100 bytes long, a page,
    one byte past a page or several MiB, is written in full."""
    arr = np.zeros(size, np.uint8)
    arr[-1] = 1
    f = io.BytesIO()
    Writer(f).array(arr, np.uint8)
    assert f.getvalue() == arr.tobytes()


@pytest.mark.parametrize("version", [1, 2, 3])
def test_old_version_refused(saved, capsys, version):
    """Versions 1 and 2 name parameters differently and version 3 has no
    dtype codes; they are refused, not read into the wrong fields."""
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


def test_echo_naming_the_removed_own_pair_switch_is_refused(saved, capsys):
    """Checkpoints written while ``include_own_pair`` was a config field echo
    it; they probe as an invalid echo, naming the key."""
    path, config_text, params, opt = saved
    save_checkpoint(path, 3, config_text + "include_own_pair = false\n", params, opt)
    assert cli.main(["probe", "--ckpt", str(path)]) == 2
    err = capsys.readouterr().err
    assert "invalid config echo" in err and "unknown config key 'include_own_pair'" in err


@pytest.mark.parametrize("flag", [0, 2])
def test_checkpoint_without_optimizer_flag_refused(saved, capsys, flag):
    """Every checkpoint carries the moments; any other has-optimizer byte is
    a format error naming its offset."""
    path, config_text, params = saved[:3]
    end = parameter_section_end(config_text, params)
    overwrite(path, end, bytes([flag]))
    message = f"has-optimizer flag {flag} at byte {end}, expected 1"
    with pytest.raises(FormatError, match=message):
        load_checkpoint(path)
    assert cli.main(["probe", "--ckpt", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_trailing_bytes_rejected(saved):
    path = saved[0]
    size = path.stat().st_size
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match=f"trailing bytes in checkpoint at byte {size}"):
        load_checkpoint(path)


def test_truncated_inside_first_array_reports_its_start(saved, capsys):
    path, config_text, params = saved[:3]
    start = first_payload_offset(config_text, params)
    assert next(iter(params.values())).size > 1
    path.write_bytes(path.read_bytes()[:start + 8])
    with pytest.raises(FormatError, match=f"checkpoint truncated at byte {start}$"):
        load_checkpoint(path)
    assert cli.main(["probe", "--ckpt", str(path)]) == 2
    assert f"checkpoint truncated at byte {start}\n" in capsys.readouterr().err


def test_non_finite_value_in_probe_is_a_format_error(saved, capsys):
    path, config_text, params = saved[:3]
    name = next(iter(params))
    offset = first_payload_offset(config_text, params) + 16  # two values in
    overwrite(path, offset, np.array([np.nan], dtype="<f8").tobytes())
    assert cli.main(["probe", "--ckpt", str(path)]) == 2
    assert f"array {name!r} has a non-finite value at byte {offset}" in capsys.readouterr().err


def test_unknown_dtype_code_refused_naming_its_offset(saved, capsys):
    path, config_text, params = saved[:3]
    offset = first_code_offset(config_text, params)
    overwrite(path, offset, bytes([2]))
    message = f"array {next(iter(params))!r} has unknown dtype code 2 at byte {offset}"
    with pytest.raises(FormatError, match=message):
        load_checkpoint(path)
    assert cli.main(["probe", "--ckpt", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("edit", ["array_code", "echo"])
def test_array_dtype_other_than_the_echo_refused(saved, capsys, edit):
    """A float64 file whose first array claims float32, and one whose echo
    claims float32: each names the first array that disagrees."""
    path, config_text, params = saved[:3]
    name = next(iter(params))
    if edit == "array_code":
        overwrite(path, first_code_offset(config_text, params), bytes([4]))
        message = f"array {name!r} is float32, but the config echo says float64"
    else:
        overwrite(path, CONFIG_TEXT_OFFSET + config_text.index("dtype = float64"),
                  b"dtype = float32")
        message = f"array {name!r} is float64, but the config echo says float32"
    with pytest.raises(FormatError, match=message):
        load_checkpoint(path)
    assert cli.main(["probe", "--ckpt", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_array_named_twice_refused_naming_the_second_entry(saved, capsys):
    """A hand-built file whose parameter section holds the first parameter
    a second time, with other values, right after the first: the later copy
    would win silently, since loading compares only the set of names."""
    path, config_text, params = saved[:3]
    name, first = next(iter(params.items()))
    count_at = CONFIG_TEXT_OFFSET + len(config_text.encode())
    second_at = first_code_offset(config_text, params) + 1 + 1 + 4 * first.ndim + first.data.nbytes
    raw = path.read_bytes()
    entry = bytearray(raw[count_at + 4:second_at])
    entry[-first.data.nbytes:] = np.full(first.shape, 0.25).astype("<f8").tobytes()
    count = int.from_bytes(raw[count_at:count_at + 4], "little")
    path.write_bytes(raw[:count_at] + (count + 1).to_bytes(4, "little")
                     + raw[count_at + 4:second_at] + bytes(entry) + raw[second_at:])
    message = f"array {name!r} appears a second time at byte {second_at}"
    with pytest.raises(FormatError, match=re.escape(message)):
        load_checkpoint(path)
    assert cli.main(["probe", "--ckpt", str(path)]) == 2
    assert message in capsys.readouterr().err


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


@pytest.mark.parametrize("failure", ["exception", "disk_full"])
def test_crash_mid_write_keeps_previous_checkpoint(saved, monkeypatch, disk_full_beyond, failure):
    """A save that fails after the parameter section -- an exception while
    the moments are gathered, or a write the disk refuses -- leaves the
    previous file whole and no temporary behind."""
    path, config_text, params, opt = saved
    before = path.read_bytes()
    old_params = {name: p.data.copy() for name, p in params.items()}
    old_moments = {name: a.copy() for name, a in opt.state_arrays().items()}
    backward_grads(params, {name: np.full(p.shape, 0.5) for name, p in params.items()})
    opt.step(1e-3)  # the next save would differ from the previous one
    tmp = path.with_name(path.name + ".tmp")
    if failure == "exception":
        seen_tmp = []

        def crash(self):
            seen_tmp.append(tmp.exists())
            raise RuntimeError("killed mid-write")

        monkeypatch.setattr(AdamW, "state_arrays", crash)
        with pytest.raises(RuntimeError, match="killed mid-write"):
            save_checkpoint(path, 4, config_text, params, opt)
        assert seen_tmp == [True]
    else:
        disk_full_beyond(parameter_section_end(config_text, params))
        with pytest.raises(OSError):
            save_checkpoint(path, 4, config_text, params, opt)
    assert not tmp.exists()
    assert path.read_bytes() == before
    ckpt = load_checkpoint(path)
    assert ckpt.step == 3 and ckpt.optimizer_step == 1
    for name, a in old_params.items():
        np.testing.assert_array_equal(ckpt.params[name], a)
    for name, a in old_moments.items():
        np.testing.assert_array_equal(ckpt.optimizer_arrays[name], a)


MB = 1 << 20


def test_save_and_load_hold_no_second_copy(tmp_path):
    """Saving streams from the optimizer's buffers; loading reads into the
    arrays it returns.  Six 128k-value parameters give 6 MB of parameters
    and 12 MB of moments."""
    rng = np.random.default_rng(0)
    params = {f"p{i}": Tensor(rng.normal(size=(256, 512)), requires_grad=True) for i in range(6)}
    opt = adamw(params)
    backward_grads(params, {name: rng.normal(size=p.shape) for name, p in params.items()})
    opt.step(1e-3)
    path = tmp_path / "checkpoint.bin"

    tracemalloc.start()
    try:
        save_checkpoint(path, 1, format_config(RunConfig()), params, opt)
        _, save_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        ckpt = load_checkpoint(path)
        _, load_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    returned = sum(a.nbytes for a in ckpt.params.values())
    returned += sum(a.nbytes for a in ckpt.optimizer_arrays.values())
    assert returned >= 18 * MB and path.stat().st_size > returned
    assert save_peak < MB
    assert load_peak - base < returned + MB


TINY_FLOAT32 = replace(TINY, steps=3, probe_steps=2, dtype="float32")


@pytest.fixture
def float32_run(tmp_path, monkeypatch):
    """A tiny float32 pretrain: (checkpoint path, its optimizer)."""
    optimizers = []
    make_optimizer = train.AdamW

    def capture(*args, **kwargs):
        optimizers.append(make_optimizer(*args, **kwargs))
        return optimizers[-1]

    monkeypatch.setattr(train, "AdamW", capture)
    result = train.pretrain(TINY_FLOAT32, tmp_path / "run")
    monkeypatch.setattr(train, "AdamW", make_optimizer)
    return result.checkpoint_path, optimizers[0]


def probe_dtypes(monkeypatch, ckpt_path):
    """The parameter dtypes of the model ``probe`` embeds with."""
    seen = set()
    real = train.embed_records

    def spy(model, records):
        seen.update(str(p.data.dtype) for p in model.parameters().values())
        return real(model, records)

    monkeypatch.setattr(train, "embed_records", spy)
    train.probe(TINY_FLOAT32, ckpt_path)
    return seen


def test_float32_checkpoint_stores_f4_arrays_and_round_trips_exactly(float32_run):
    """Parameters and moments alike are stored as f4 (code 4, four bytes a
    value) and read back bit for bit."""
    path, opt = float32_run
    params = opt.params
    ckpt = load_checkpoint(path)
    assert ckpt.config.dtype == "float32"
    assert list(ckpt.params) == list(params)
    for name, p in params.items():
        assert p.data.dtype == ckpt.params[name].dtype == np.float32
        assert ckpt.params[name].tobytes() == p.data.tobytes()
    state = opt.state_arrays()
    assert list(ckpt.optimizer_arrays) == list(state)
    for name, a in state.items():
        assert a.dtype == ckpt.optimizer_arrays[name].dtype == np.float32
        assert ckpt.optimizer_arrays[name].tobytes() == a.tobytes()
    config_text = ckpt.config_text
    assert path.read_bytes()[first_code_offset(config_text, params)] == 4
    assert path.stat().st_size == checkpoint_size(config_text, params, state)


def test_non_finite_float32_value_offset_counts_four_byte_values(float32_run, capsys):
    path, opt = float32_run
    config_text = load_checkpoint(path).config_text
    offset = first_payload_offset(config_text, opt.params) + 8  # two values in
    overwrite(path, offset, np.array([np.inf], dtype="<f4").tobytes())
    assert cli.main(["probe", "--ckpt", str(path)]) == 2
    name = next(iter(opt.params))
    assert f"array {name!r} has a non-finite value at byte {offset}" in capsys.readouterr().err


def test_float32_checkpoint_loads_into_a_bit_equal_model(float32_run):
    path, opt = float32_run
    params = opt.params
    ckpt = load_checkpoint(path)
    model = CrossModalModel.create(parse_config(ckpt.config_text))
    model.load_arrays(ckpt.params)
    for name, p in model.parameters().items():
        assert p.data.dtype == np.float32
        assert p.data.tobytes() == params[name].data.tobytes()


def test_probe_rebuilds_the_checkpoint_dtype(float32_run, monkeypatch):
    assert probe_dtypes(monkeypatch, float32_run[0]) == {"float32"}


def test_probe_reads_no_moments_and_draws_no_model(float32_run, monkeypatch):
    """A non-finite last moment value fails a full load but not ``probe``,
    which stops before the moment arrays and builds its model without
    drawing initial values."""
    path = float32_run[0]
    size = path.stat().st_size
    overwrite(path, size - 4, np.array([np.nan], dtype="<f4").tobytes())
    with pytest.raises(FormatError, match=f"non-finite value at byte {size - 4}"):
        load_checkpoint(path)

    def no_draws(*args):
        raise AssertionError("probe drew initial values")

    monkeypatch.setattr(model_module._Draws, "replay", no_draws)
    assert probe_dtypes(monkeypatch, path) == {"float32"}


def test_echo_without_a_dtype_line_probes_as_float64(float32_run, monkeypatch):
    """A checkpoint from before the field existed echoes no dtype line, and
    holds float64 arrays."""
    path = float32_run[0]
    ckpt = load_checkpoint(path)
    echo = ckpt.config_text.replace("dtype = float32\n", "")
    assert echo != ckpt.config_text
    params = {n: Tensor(a.astype(np.float64)) for n, a in ckpt.params.items()}
    opt = adamw(params)
    opt.load_state(ckpt.optimizer_step, ckpt.optimizer_arrays)
    save_checkpoint(path, ckpt.step, echo, params, opt)
    assert probe_dtypes(monkeypatch, path) == {"float64"}


@pytest.mark.parametrize("steps, every, saved_steps", [
    (4, 2, [2, 4]), (5, 2, [2, 4, 5]), (0, 2, [0]),
], ids=["last_step_on_cadence", "last_step_off_cadence", "no_steps"])
def test_pretrain_writes_each_checkpoint_once(tmp_path, monkeypatch, steps, every, saved_steps):
    """One save every ``checkpoint_every`` steps and one after the loop,
    none before the first step; a last step on the cadence is saved once,
    and a 0-step run saves its initial state."""
    saves = []
    real = train.save_checkpoint

    def count(path, step, *args):
        saves.append(step)
        real(path, step, *args)

    monkeypatch.setattr(train, "save_checkpoint", count)
    train.pretrain(replace(TINY, steps=steps, checkpoint_every=every), tmp_path / "run")
    assert saves == saved_steps


def test_run_failing_at_its_first_step_leaves_no_checkpoint(tmp_path, monkeypatch):
    """A run into a directory that holds another run's checkpoint deletes it
    before its first step, so a failure there leaves no checkpoint that
    could pass for this run's."""
    out = tmp_path / "run"
    train.pretrain(replace(TINY, steps=1), out)
    assert (out / train.CHECKPOINT_NAME).exists()

    def diverge(*args):
        raise NumericError("non-finite loss")

    monkeypatch.setattr(train, "batch_loss", diverge)
    with pytest.raises(NumericError, match="^step 0: non-finite loss; no checkpoint written$"):
        train.pretrain(replace(TINY, steps=3, seed=1), out)
    assert not (out / train.CHECKPOINT_NAME).exists()
