"""Canonical byte serialization for every structure that gets hashed or signed.

Fields are encoded in declaration order with explicit length prefixes, so
digests are identical across platforms and runs. Integers are unsigned
64-bit big-endian; byte strings and text carry a 4-byte big-endian length.
"""
from __future__ import annotations

from typing import Iterable


class DecodeError(ValueError):
    """Raised when canonical bytes cannot be parsed back."""


def enc_int(value: int) -> bytes:
    if value < 0:
        raise ValueError(f"canonical integers are unsigned, got {value}")
    return value.to_bytes(8, "big")


def enc_bytes(value: bytes) -> bytes:
    return len(value).to_bytes(4, "big") + value


def enc_str(value: str) -> bytes:
    return enc_bytes(value.encode("utf-8"))


def enc_str_list(values: Iterable[str]) -> bytes:
    items = list(values)
    return enc_int(len(items)) + b"".join(enc_str(v) for v in items)


def enc_bytes_list(values: Iterable[bytes]) -> bytes:
    items = list(values)
    return enc_int(len(items)) + b"".join(enc_bytes(v) for v in items)


class Reader:
    """Sequential decoder for the encoding above."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise DecodeError("truncated canonical data")
        chunk = self._data[self._pos:self._pos + n]
        self._pos += n
        return chunk

    def read_int(self) -> int:
        return int.from_bytes(self._take(8), "big")

    def read_bytes(self) -> bytes:
        length = int.from_bytes(self._take(4), "big")
        return self._take(length)

    def read_str(self) -> str:
        try:
            return self.read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError("invalid utf-8 in canonical data") from exc

    def read_str_list(self) -> tuple[str, ...]:
        return tuple(self.read_str() for _ in range(self.read_int()))

    def read_bytes_list(self) -> tuple[bytes, ...]:
        return tuple(self.read_bytes() for _ in range(self.read_int()))

    def expect_end(self) -> None:
        if self._pos != len(self._data):
            raise DecodeError("trailing bytes after canonical structure")
