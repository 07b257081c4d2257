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
        C-contiguous array of that dtype."""
        self.f.write(_raw(np.ascontiguousarray(arr, dtype=dtype)))


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
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
