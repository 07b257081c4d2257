"""Reader and writer for the binary containers (corpus, checkpoint): a 4-byte
magic, a little-endian u16 version, then the body.

Writing streams and is atomic.  ``write_container`` writes the header to
``<path>.tmp``; the caller streams its sections into that file, each array
straight from its own buffer (``Writer.array``), so a write holds no copy of
the data; once the body is complete the temporary replaces ``path``
(``os.replace``).  On any exception the temporary is removed and ``path``
keeps its previous contents, so a process that dies mid-write never leaves a
torn file.  There is no ``fsync``: the rename already makes a process crash
atomic, surviving power loss is out of scope, and a sync would hold training
until the disk has taken the whole file (391 MB at paper width).

An array whose stored bytes are all zero is not written: the writer seeks
past it, leaving a hole that reads back as zeros, and the temporary is
truncated at the end of the body so that a file ending in a hole keeps its
full size.  The layout and every byte a reader sees are unchanged; only the
blocks the filesystem allocates and the pages written back are fewer.  A
step-0 checkpoint's AdamW moments are all zero.  Without holes, on a 2-core
x86 box, a paper-width (float32) one allocates 391 MB, not 131, and saves in
130 ms, not 56; the wide-pretrain ``run_s`` reads 1.73 s, not 1.61, slower
in 8 of 10 pairs (``BENCH_perf_debt.json``).  The test reads bytes, not
values, so a ``-0.0`` is written.

Reading streams from the open file: ``Reader.array`` allocates each array and
fills it with ``readinto``, so a load holds its arrays once and never a
whole-file buffer besides.  Malformed input of any kind surfaces as a
``FormatError`` naming the byte offset; a file that cannot be opened (missing,
a directory, unreadable) as a ``DataError`` naming the container and path.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from .errors import DataError, FormatError


def _raw(arr: np.ndarray) -> memoryview:
    """The bytes of a C-contiguous array, shared with it, not copied
    (``memoryview(arr).cast("B")`` refuses 0-d and empty arrays)."""
    return memoryview(arr.reshape(-1).view(np.uint8))


class Reader:
    def __init__(self, f: BinaryIO, kind: str):
        self.f = f
        self.kind = kind
        self.size = os.fstat(f.fileno()).st_size
        self.offset = 0

    def _advance(self, size: int) -> None:
        """Claim the next ``size`` bytes, or raise if the file ends first."""
        if self.offset + size > self.size:
            raise FormatError(f"{self.kind} truncated at byte {self.offset}")
        self.offset += size

    def take(self, size: int) -> bytes:
        self._advance(size)
        return self.f.read(size)

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, size: int) -> str:
        start = self.offset
        try:
            return self.take(size).decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"{self.kind} has invalid utf-8 at byte {start + e.start}") from e

    def array(self, shape: tuple, dtype: np.dtype | str) -> np.ndarray:
        """The next ``prod(shape)`` values, read into a fresh array."""
        self._advance(np.dtype(dtype).itemsize * math.prod(shape))
        out = np.empty(shape, dtype)
        self.f.readinto(_raw(out))
        return out

    def finish(self) -> None:
        if self.offset != self.size:
            raise FormatError(f"trailing bytes in {self.kind} at byte {self.offset}")


@contextmanager
def open_container(path, magic: bytes, version: int, kind: str) -> Iterator[Reader]:
    try:
        f = open(path, "rb")
    except OSError as e:
        raise DataError(f"cannot open {kind} {path}: {e.strerror}") from e
    with f:
        reader = Reader(f, kind)
        if reader.take(len(magic)) != magic:
            raise FormatError(f"bad magic bytes at byte 0: not a {kind}")
        (found,) = reader.unpack("<H")
        if found != version:
            raise FormatError(f"unsupported {kind} version {found} at byte {len(magic)} (expected {version})")
        yield reader


class Writer:
    def __init__(self, f: BinaryIO):
        self.f = f

    def pack(self, fmt: str, *values) -> None:
        self.f.write(struct.pack(fmt, *values))

    def text(self, length_fmt: str, text: str) -> None:
        """utf-8 ``text`` after its byte length, packed as ``length_fmt``."""
        encoded = text.encode("utf-8")
        self.pack(length_fmt, len(encoded))
        self.f.write(encoded)

    def array(self, arr: np.ndarray, dtype: np.dtype | str) -> None:
        """``arr``'s values as ``dtype``; no copy when it already is a
        C-contiguous array of that dtype.  All-zero bytes become a hole."""
        raw = _raw(np.ascontiguousarray(arr, dtype=dtype))
        if _all_zero(raw):
            self.f.seek(len(raw), os.SEEK_CUR)
        else:
            self.f.write(raw)


_ZERO_SCAN_FIRST, _ZERO_SCAN_PIECE = 1 << 12, 1 << 20


def _all_zero(raw: memoryview) -> bool:
    """Whether every byte is zero, scanned up to the first nonzero piece, on
    views of ``raw``: no copy.  The first piece is 4 KiB, which settles most
    arrays that are not zero; the rest go a MiB at a time."""
    octets = np.frombuffer(raw, np.uint8)
    bounds = [0, *range(_ZERO_SCAN_FIRST, octets.size, _ZERO_SCAN_PIECE), octets.size]
    return not any(octets[lo:hi].any() for lo, hi in zip(bounds, bounds[1:]))


@contextmanager
def write_container(path, magic: bytes, version: int) -> Iterator[Writer]:
    """Stream a container to ``<path>.tmp``, then rename it over ``path``."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as f:
            writer = Writer(f)
            f.write(magic)
            writer.pack("<H", version)
            yield writer
            f.truncate()  # a body that ends in a hole still sets the file size
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
