"""Canonical byte serialization for every structure that gets hashed or signed.

Fields are encoded in declaration order with explicit length prefixes, so
digests are identical across platforms and runs. Integers are unsigned
64-bit big-endian; byte strings and text carry a 4-byte big-endian length.

Every flat signed record (a transaction, a block header, a translator
attestation, each typed payload) encodes through one field codec,
`field_codecs`: a field's annotation picks its encoder and reader, so a
record's layout is its field list and nothing else. `AccessPolicy` keeps
its own encoder, because its grants are nested.
"""
from __future__ import annotations

from dataclasses import fields
from enum import Enum
from typing import Iterable, TypeVar, get_type_hints

E = TypeVar("E", bound=Enum)


class DecodeError(ValueError):
    """Raised when canonical bytes cannot be parsed back."""


def dec_enum(enum_cls: type[E], value: str) -> E:
    """The member of `enum_cls` with this value; DecodeError if there is none."""
    try:
        return enum_cls(value)
    except ValueError:
        raise DecodeError(f"unknown {enum_cls.__name__} {value!r}") from None


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


_CODECS = {
    str: (enc_str, Reader.read_str),
    bytes: (enc_bytes, Reader.read_bytes),
    int: (enc_int, Reader.read_int),
    tuple[str, ...]: (enc_str_list, Reader.read_str_list),
    tuple[bytes, ...]: (enc_bytes_list, Reader.read_bytes_list),
}


def _codec(hint) -> tuple:
    if isinstance(hint, type) and issubclass(hint, Enum):  # its value, as text
        return (lambda member: enc_str(member.value),
                lambda r: dec_enum(hint, r.read_str()))
    return _CODECS[hint]


def field_codecs(cls, names: tuple[str, ...] = ()) -> tuple[tuple, ...]:
    """(field name, encoder, reader) for each field of dataclass `cls`, in
    declaration order, or for the fields `names` lists, in that order."""
    hints = get_type_hints(cls)
    return tuple(
        (name, *_codec(hints[name])) for name in names or [f.name for f in fields(cls)]
    )


def encode_fields(obj, codecs) -> bytes:
    """The canonical bytes of `obj`'s fields that `codecs` names."""
    return b"".join([enc(getattr(obj, name)) for name, enc, _read in codecs])


def encode_values(codecs, values: Iterable) -> bytes:
    """The same bytes from the field values alone, for a record that is
    signed before it exists."""
    pairs = zip(codecs, values, strict=True)
    return b"".join([enc(value) for (_name, enc, _read), value in pairs])


def decode_fields(cls, codecs, data: bytes):
    """The `cls` whose fields `codecs` reads from `data`, which must hold
    nothing more; DecodeError if it does not parse."""
    r = Reader(data)
    obj = cls(**{name: read(r) for name, _enc, read in codecs})
    r.expect_end()
    return obj
