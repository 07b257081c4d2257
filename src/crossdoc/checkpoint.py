"""Versioned binary checkpoints: parameters, optimizer state, config echo.

Layout (little-endian):

    magic "XCKP" | u16 version=2 | u64 step
    | u32 config-text length | utf-8 config text
    | named-array section (parameters)
    | u8 has-optimizer | [u64 optimizer step | named-array section (moments)]
    named-array section: u32 count, then per array:
        u16 name length | utf-8 name | u8 ndim | u32 dims... | f64 raw values

Values are stored as raw float64, so a save/load round trip is bit-exact;
a non-finite value is refused on load.
Version 2 names each stack block ``stack.blocks.{i}``; version 1 wrote
``stack.block{i}``.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .autodiff import Tensor
from .container import Reader, open_container
from .errors import FormatError
from .optim import AdamW

MAGIC = b"XCKP"
VERSION = 2


@dataclass
class CheckpointData:
    step: int
    config_text: str
    params: dict[str, np.ndarray]
    optimizer_step: Optional[int] = None
    optimizer_arrays: Optional[dict[str, np.ndarray]] = None


def _pack_arrays(arrays: dict[str, np.ndarray]) -> list[bytes]:
    chunks = [struct.pack("<I", len(arrays))]
    for name, arr in arrays.items():
        encoded = name.encode("utf-8")
        arr = np.ascontiguousarray(arr, dtype="<f8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b"")
        chunks.append(arr.tobytes())
    return chunks


def save_checkpoint(
    path,
    step: int,
    config_text: str,
    params: dict[str, Tensor],
    optimizer: Optional[AdamW] = None,
) -> None:
    chunks = [MAGIC, struct.pack("<HQ", VERSION, step)]
    encoded_cfg = config_text.encode("utf-8")
    chunks.append(struct.pack("<I", len(encoded_cfg)))
    chunks.append(encoded_cfg)
    chunks.extend(_pack_arrays({name: p.data for name, p in params.items()}))
    if optimizer is None:
        chunks.append(struct.pack("<B", 0))
    else:
        chunks.append(struct.pack("<BQ", 1, optimizer.step_count))
        chunks.extend(_pack_arrays(optimizer.state_arrays()))
    Path(path).write_bytes(b"".join(chunks))


def _read_arrays(reader: Reader) -> dict[str, np.ndarray]:
    (count,) = reader.unpack("<I")
    arrays = {}
    for _ in range(count):
        (name_len,) = reader.unpack("<H")
        name = reader.text(name_len)
        (ndim,) = reader.unpack("<B")
        shape = reader.unpack(f"<{ndim}I")
        start = reader.offset
        data = np.frombuffer(reader.take(8 * math.prod(shape)), dtype="<f8")
        bad = np.flatnonzero(~np.isfinite(data))
        if bad.size:
            raise FormatError(
                f"checkpoint array {name!r} has a non-finite value at byte {start + 8 * int(bad[0])}"
            )
        arrays[name] = data.reshape(shape).copy()
    return arrays


def load_checkpoint(path) -> CheckpointData:
    reader = open_container(path, MAGIC, VERSION, "checkpoint")
    (step,) = reader.unpack("<Q")
    (cfg_len,) = reader.unpack("<I")
    config_text = reader.text(cfg_len)
    params = _read_arrays(reader)
    (has_opt,) = reader.unpack("<B")
    opt_step = None
    opt_arrays = None
    if has_opt:
        (opt_step,) = reader.unpack("<Q")
        opt_arrays = _read_arrays(reader)
    reader.finish()
    return CheckpointData(
        step=step, config_text=config_text, params=params,
        optimizer_step=opt_step, optimizer_arrays=opt_arrays,
    )
