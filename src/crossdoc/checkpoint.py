"""Versioned binary checkpoints: a run's config echo, then AdamW's three
buffers -- the parameters and both moments -- under one table.

Layout (little-endian):

    magic "XCKP" | u16 version=5 | u64 step | u64 optimizer step
    | u32 config-text length | utf-8 config text
    | u8 dtype code: the item size of every stored value, 8 for f8, 4 for f4
    | u32 count | count x (u16 name length | utf-8 name | u8 ndim | u32 dims...)
    | parameter values | first-moment values | second-moment values
    each value block: the count arrays, in table order, raw, in the dtype

The table holds each name and shape once, in ``AdamW.params`` order, which
is the order of the optimizer's flat buffers, so each block on disk is one
of those buffers.  Every value is stored in the run's ``dtype`` (float64
or float32), so a save/load round trip is bit-exact.

Loading parses the config echo first (an echo ``config.parse_config``
refuses is a ``DataError`` naming the file), then refuses, as a
``FormatError``, a dtype code other than the echo's (naming its byte
offset), a name given twice (naming the second entry's byte offset), and a
non-finite value (naming its array, ``m.``/``v.``-prefixed in a moment
block, and its byte offset).  The dtype code is checked even by a load that
stops after the parameter block, which never reaches the end of the file:
without it a float32 file whose echo says float64 would read as garbage.
``load_checkpoint`` reads the whole file, or with ``moments=False`` stops
after the parameter block, for a reader that needs no moments
(``train.probe``).

``save_checkpoint`` streams: each value goes to the file straight from its
buffer (``p.data`` and AdamW's ``m`` and ``v`` are views of its flat
buffers), so a save allocates no copy of the values.  It writes
``<path>.tmp`` and renames it over ``path`` only when complete; a save that
raises or is killed leaves the previous checkpoint whole and no ``.tmp``
behind.  It does not ``fsync``: surviving power loss is out of scope, and a
sync would hold training until the disk has taken the whole file (see
``container``).  A load allocates each value block once, as one flat array
filled with ``readinto``, and hands out per-name views of it, so it peaks
at about the size of what it reads.

Version 5 stores the table and the dtype once; versions 1-4 are refused.
The names are ``stack.blocks.{i}.cross.into_vision``, ``...cross.into_text``
and ``...gate_{vision,text}.layer`` (each with ``attn``, ``norm_attn``,
``ff``, ``norm_ff``) and the head MLPs ``stack.head_*.fc1/fc2``.  An
ablation variant's checkpoint names only the stages it runs (no ``cross``
arrays without cross-attention, no ``gate_*`` arrays without the gate), and
loading into a model requires exactly the model's names, so a file that
still holds a disabled stage's arrays is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import RunConfig, parse_config
from .container import Reader, open_container, write_container
from .errors import ConfigError, DataError, FormatError
from .optim import AdamW

MAGIC = b"XCKP"
VERSION = 5


@dataclass
class CheckpointData:
    step: int
    config_text: str
    config: RunConfig  # the config echo, parsed
    params: dict[str, np.ndarray]
    optimizer_step: int
    optimizer_arrays: Optional[dict[str, np.ndarray]]  # keyed as ``AdamW.state_arrays``


def save_checkpoint(path, step: int, config_text: str, optimizer: AdamW) -> None:
    """Write ``optimizer``'s parameters and moments under ``config_text``."""
    values = [p.data for p in optimizer.params.values()]
    dtype = values[0].dtype.newbyteorder("<")
    with write_container(path, MAGIC, VERSION) as writer:
        writer.pack("<QQ", step, optimizer.step_count)
        writer.text("<I", config_text)
        writer.pack("<BI", dtype.itemsize, len(values))
        for name, arr in zip(optimizer.params, values):
            writer.text("<H", name)
            writer.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape)
        for block in (values, optimizer.m.values(), optimizer.v.values()):
            for arr in block:
                writer.array(arr, dtype)


def _read_block(reader: Reader, table: dict[str, tuple], dtype: np.dtype,
                prefix: str = "") -> dict[str, np.ndarray]:
    """One value block, read into one flat array, as per-name views."""
    start = reader.offset
    flat = reader.array((sum(math.prod(shape) for shape in table.values()),), dtype)
    arrays, pos = {}, 0
    for name, shape in table.items():
        arr = flat[pos:pos + math.prod(shape)].reshape(shape)
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise FormatError(f"checkpoint array {prefix + name!r} has a non-finite value "
                              f"at byte {start + dtype.itemsize * (pos + int(bad[0]))}")
        arrays[prefix + name] = arr
        pos += arr.size
    return arrays


def load_checkpoint(path, moments: bool = True) -> CheckpointData:
    """Read a whole checkpoint, or with ``moments=False`` stop after the
    parameter block: the moments are then neither read nor checked, and
    ``optimizer_arrays`` is ``None``."""
    with open_container(path, MAGIC, VERSION, "checkpoint") as reader:
        step, opt_step = reader.unpack("<QQ")
        (cfg_len,) = reader.unpack("<I")
        config_text = reader.text(cfg_len)
        try:
            config = parse_config(config_text)
        except ConfigError as e:
            raise DataError(f"checkpoint {path} has an invalid config echo: {e}") from e
        dtype = np.dtype(config.dtype).newbyteorder("<")
        code_offset = reader.offset
        code, count = reader.unpack("<BI")
        if code != dtype.itemsize:
            raise FormatError(f"checkpoint dtype code {code} at byte {code_offset}, but the "
                              f"config echo says {config.dtype} (code {dtype.itemsize})")
        table = {}
        for _ in range(count):
            entry_offset = reader.offset
            (name_len,) = reader.unpack("<H")
            name = reader.text(name_len)
            if name in table:
                raise FormatError(
                    f"checkpoint array {name!r} appears a second time at byte {entry_offset}")
            (ndim,) = reader.unpack("<B")
            table[name] = reader.unpack(f"<{ndim}I")
        params = _read_block(reader, table, dtype)
        if not moments:
            return CheckpointData(step, config_text, config, params, opt_step, None)
        opt_arrays = _read_block(reader, table, dtype, "m.")
        opt_arrays.update(_read_block(reader, table, dtype, "v."))
        reader.finish()
    return CheckpointData(step, config_text, config, params, opt_step, opt_arrays)
