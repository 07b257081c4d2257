"""Versioned binary checkpoints: parameters, optimizer state, config echo.

Layout (little-endian):

    magic "XCKP" | u16 version=3 | u64 step
    | u32 config-text length | utf-8 config text
    | named-array section (parameters)
    | u8 has-optimizer=1 | u64 optimizer step | named-array section (moments)
    named-array section: u32 count, then per array:
        u16 name length | utf-8 name | u8 ndim | u32 dims... | f64 raw values

Every checkpoint carries the AdamW moments: ``save_checkpoint`` takes the
optimizer, and a has-optimizer byte other than 1 is refused on load, naming
its byte offset.  Values are stored as raw float64, so a save/load round
trip is bit-exact; a non-finite value is refused on load.  A float32 model's
parameters widen exactly on save and narrow back exactly when loaded into a
float32 model (``CrossModalModel.load_arrays``); the moments are float64 in
either dtype.

``save_checkpoint`` streams: each float64 parameter and moment goes to the
file straight from its buffer (AdamW's flat buffers, whose per-name views are
C-contiguous), so a save allocates no copy of the values; a float32
parameter is widened one array at a time.  It writes
``<path>.tmp`` and renames it over ``path`` only when complete; a save that
raises or is killed leaves the previous checkpoint whole and no ``.tmp``
behind.  It does not ``fsync``: surviving power loss is out of scope, and a
sync would hold training until the disk has taken the whole file (see
``container``).  ``load_checkpoint`` allocates each array once and fills it
with ``readinto``, so a load peaks at about one file's worth of memory.

Version 3 names the transformer sub-layers ``stack.blocks.{i}.cross.into_vision``,
``...cross.into_text`` and ``...gate_{vision,text}.layer`` (each with ``attn``,
``norm_attn``, ``ff``, ``norm_ff``) and the head MLPs ``stack.head_*.fc1/fc2``;
versions 1 and 2 used other names and are refused.  An ablation variant's
checkpoint names only the stages it runs (no ``cross`` arrays without
cross-attention, no ``gate_*`` arrays without the gate), and loading requires
exactly the model's names, so a file that still holds a disabled stage's
arrays is refused.

The config echo is read back with ``config.parse_config``, so an echo naming
a key ``RunConfig`` no longer has is refused: checkpoints written while the
own-pair switch existed echo ``include_own_pair = false``, and ``probe``
rejects them as an invalid echo (exit 2) naming that key.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .container import Reader, Writer, open_container, write_container
from .errors import FormatError
from .optim import AdamW

MAGIC = b"XCKP"
VERSION = 3


@dataclass
class CheckpointData:
    step: int
    config_text: str
    params: dict[str, np.ndarray]
    optimizer_step: int
    optimizer_arrays: dict[str, np.ndarray]


def _write_arrays(writer: Writer, arrays: dict[str, np.ndarray]) -> None:
    writer.pack("<I", len(arrays))
    for name, arr in arrays.items():
        writer.text("<H", name)
        writer.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape)
        writer.array(arr, "<f8")


def save_checkpoint(
    path,
    step: int,
    config_text: str,
    params: dict[str, Tensor],
    optimizer: AdamW,
) -> None:
    with write_container(path, MAGIC, VERSION) as writer:
        writer.pack("<Q", step)
        writer.text("<I", config_text)
        _write_arrays(writer, {name: p.data for name, p in params.items()})
        writer.pack("<BQ", 1, optimizer.step_count)
        _write_arrays(writer, optimizer.state_arrays())


def _read_arrays(reader: Reader) -> dict[str, np.ndarray]:
    (count,) = reader.unpack("<I")
    arrays = {}
    for _ in range(count):
        (name_len,) = reader.unpack("<H")
        name = reader.text(name_len)
        (ndim,) = reader.unpack("<B")
        shape = reader.unpack(f"<{ndim}I")
        start = reader.offset
        arr = reader.array(shape, "<f8")
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise FormatError(
                f"checkpoint array {name!r} has a non-finite value at byte {start + 8 * int(bad[0])}"
            )
        arrays[name] = arr
    return arrays


def load_checkpoint(path) -> CheckpointData:
    with open_container(path, MAGIC, VERSION, "checkpoint") as reader:
        (step,) = reader.unpack("<Q")
        (cfg_len,) = reader.unpack("<I")
        config_text = reader.text(cfg_len)
        params = _read_arrays(reader)
        has_opt_offset = reader.offset
        (has_opt,) = reader.unpack("<B")
        if has_opt != 1:
            raise FormatError(
                f"checkpoint has-optimizer flag {has_opt} at byte {has_opt_offset}, expected 1")
        (opt_step,) = reader.unpack("<Q")
        opt_arrays = _read_arrays(reader)
        reader.finish()
    return CheckpointData(
        step=step, config_text=config_text, params=params,
        optimizer_step=opt_step, optimizer_arrays=opt_arrays,
    )
