"""Versioned binary checkpoints: parameters, optimizer state, config echo.

Layout (little-endian):

    magic "XCKP" | u16 version=4 | u64 step
    | u32 config-text length | utf-8 config text
    | named-array section (parameters)
    | u8 has-optimizer=1 | u64 optimizer step | named-array section (moments)
    named-array section: u32 count, then per array:
        u16 name length | utf-8 name | u8 dtype code | u8 ndim | u32 dims...
        | raw values
    dtype code: the item size of the stored values, 8 for f8 and 4 for f4

Every array is stored in its own dtype, which is the run's ``dtype``
(float64 or float32) for the parameters and the AdamW moments alike, so a
save/load round trip is bit-exact.  Loading parses the config echo first
(an echo ``config.parse_config`` refuses is a ``DataError`` naming the
file), then refuses, as a ``FormatError``, an unknown dtype code (naming
its byte offset), an array whose dtype is not the echo's (naming the array),
a name given twice in one section (naming the second entry's byte offset)
and a non-finite value (naming its byte offset).

Every checkpoint carries the AdamW moments: ``save_checkpoint`` takes the
optimizer, and a has-optimizer byte other than 1 is refused on load, naming
its byte offset.  ``load_checkpoint`` reads the whole file, or with
``moments=False`` stops before the moment arrays, for a reader that needs
no moments (``train.probe``).

``save_checkpoint`` streams: each parameter and moment goes to the file
straight from its buffer (AdamW's flat buffers, whose per-name views are
C-contiguous), so a save allocates no copy of the values.  It writes
``<path>.tmp`` and renames it over ``path`` only when complete; a save that
raises or is killed leaves the previous checkpoint whole and no ``.tmp``
behind.  It does not ``fsync``: surviving power loss is out of scope, and a
sync would hold training until the disk has taken the whole file (see
``container``).  A load allocates each array once and fills it with
``readinto``, so it peaks at about the size of what it reads.

Version 4 added the dtype code; version 3 stored every array as float64 and
is refused, as are versions 1 and 2, which named the parameters otherwise.
The names are ``stack.blocks.{i}.cross.into_vision``, ``...cross.into_text``
and ``...gate_{vision,text}.layer`` (each with ``attn``, ``norm_attn``,
``ff``, ``norm_ff``) and the head MLPs ``stack.head_*.fc1/fc2``.  An
ablation variant's checkpoint names only the stages it runs (no ``cross``
arrays without cross-attention, no ``gate_*`` arrays without the gate), and
loading into a model requires exactly the model's names, so a file that
still holds a disabled stage's arrays is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autodiff import Tensor
from .config import RunConfig, parse_config
from .container import Reader, Writer, open_container, write_container
from .errors import ConfigError, DataError, FormatError
from .optim import AdamW

MAGIC = b"XCKP"
VERSION = 4
# An array's dtype code is its item size.
DTYPE_BY_CODE = {8: np.dtype("<f8"), 4: np.dtype("<f4")}


@dataclass
class CheckpointData:
    step: int
    config_text: str
    config: RunConfig  # the config echo, parsed
    params: dict[str, np.ndarray]
    optimizer_step: int
    optimizer_arrays: Optional[dict[str, np.ndarray]]


def _write_arrays(writer: Writer, arrays: dict[str, np.ndarray]) -> None:
    writer.pack("<I", len(arrays))
    for name, arr in arrays.items():
        code = arr.dtype.itemsize
        writer.text("<H", name)
        writer.pack(f"<BB{arr.ndim}I", code, arr.ndim, *arr.shape)
        writer.array(arr, DTYPE_BY_CODE[code])


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


def _read_arrays(reader: Reader, dtype: str) -> dict[str, np.ndarray]:
    """One named-array section, every array of which must be ``dtype``."""
    (count,) = reader.unpack("<I")
    arrays = {}
    for _ in range(count):
        entry_offset = reader.offset
        (name_len,) = reader.unpack("<H")
        name = reader.text(name_len)
        if name in arrays:
            raise FormatError(
                f"checkpoint array {name!r} appears a second time at byte {entry_offset}")
        code_offset = reader.offset
        code, ndim = reader.unpack("<BB")
        if code not in DTYPE_BY_CODE:
            raise FormatError(
                f"checkpoint array {name!r} has unknown dtype code {code} at byte {code_offset}")
        stored = DTYPE_BY_CODE[code]
        if stored != dtype:
            raise FormatError(
                f"checkpoint array {name!r} is {stored.name}, but the config echo says {dtype}")
        shape = reader.unpack(f"<{ndim}I")
        start = reader.offset
        arr = reader.array(shape, stored)
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise FormatError(
                f"checkpoint array {name!r} has a non-finite value at byte {start + arr.itemsize * int(bad[0])}"
            )
        arrays[name] = arr
    return arrays


def load_checkpoint(path, moments: bool = True) -> CheckpointData:
    """Read a whole checkpoint, or with ``moments=False`` stop after the
    optimizer step: the moments are then neither read nor checked, and
    ``optimizer_arrays`` is ``None``."""
    with open_container(path, MAGIC, VERSION, "checkpoint") as reader:
        (step,) = reader.unpack("<Q")
        (cfg_len,) = reader.unpack("<I")
        config_text = reader.text(cfg_len)
        try:
            config = parse_config(config_text)
        except ConfigError as e:
            raise DataError(f"checkpoint {path} has an invalid config echo: {e}") from e
        params = _read_arrays(reader, config.dtype)
        has_opt_offset = reader.offset
        (has_opt,) = reader.unpack("<B")
        if has_opt != 1:
            raise FormatError(
                f"checkpoint has-optimizer flag {has_opt} at byte {has_opt_offset}, expected 1")
        (opt_step,) = reader.unpack("<Q")
        if not moments:
            return CheckpointData(step, config_text, config, params, opt_step, None)
        opt_arrays = _read_arrays(reader, config.dtype)
        reader.finish()
    return CheckpointData(step, config_text, config, params, opt_step, opt_arrays)
