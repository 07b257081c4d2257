"""Reader for the binary containers (corpus, checkpoint): a 4-byte magic, a
little-endian u16 version, then the body.  Malformed input of any kind
surfaces as a ``FormatError`` naming the byte offset."""

from __future__ import annotations

import struct
from pathlib import Path

from .errors import FormatError


class Reader:
    def __init__(self, buf: bytes, kind: str):
        self.buf = buf
        self.kind = kind
        self.offset = 0

    def take(self, size: int) -> bytes:
        if self.offset + size > len(self.buf):
            raise FormatError(f"{self.kind} truncated at byte {self.offset}")
        out = self.buf[self.offset:self.offset + size]
        self.offset += size
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, size: int) -> str:
        start = self.offset
        try:
            return self.take(size).decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"{self.kind} has invalid utf-8 at byte {start + e.start}") from e

    def finish(self) -> None:
        if self.offset != len(self.buf):
            raise FormatError(f"trailing bytes in {self.kind} at byte {self.offset}")


def open_container(path, magic: bytes, version: int, kind: str) -> Reader:
    reader = Reader(Path(path).read_bytes(), kind)
    if reader.take(len(magic)) != magic:
        raise FormatError(f"bad magic bytes at byte 0: not a {kind}")
    (found,) = reader.unpack("<H")
    if found != version:
        raise FormatError(f"unsupported {kind} version {found} at byte {len(magic)} (expected {version})")
    return reader
