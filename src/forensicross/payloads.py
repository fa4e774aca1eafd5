"""Typed transaction bodies, one per payload kind.

Each payload is a frozen dataclass. Its canonical bytes are its fields in
declaration order, and a field's annotation picks its encoding: `str`,
`bytes`, `int`, `tuple[str, ...]` or `tuple[bytes, ...]`, each with its
`enc_*` function and `Reader.read_*` method. The same bytes therefore
decode on every chain. Stage-progress control traffic shares the
StageProposal kind and is distinguished by `phase`.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import get_type_hints

from .canonical import (
    DecodeError,
    Reader,
    enc_bytes,
    enc_bytes_list,
    enc_int,
    enc_str,
    enc_str_list,
)
from .chain import PayloadKind, Transaction, make_transaction
from .crypto import KeyPair

PHASE_OPEN = "open"
PHASE_ADVANCED = "advanced"
PHASE_BLOCKED = "blocked"

VOTE_APPROVE = "approve"
VOTE_REJECT = "reject"


@dataclass(frozen=True)
class CaseCreatePayload:
    case_number: str


@dataclass(frozen=True)
class AccessControlPayload:
    case_number: str
    policy_bytes: bytes  # canonical AccessPolicy serialization


@dataclass(frozen=True)
class QueryNodeAssignPayload:
    case_number: str
    public_keys: tuple[bytes, ...]


@dataclass(frozen=True)
class StageProposalPayload:
    case_number: str
    stage: int
    round: int
    phase: str = PHASE_OPEN
    reasons: tuple[str, ...] = ()


@dataclass(frozen=True)
class StageVotePayload:
    case_number: str
    stage: int
    round: int
    vote: str
    reason: str = ""


@dataclass(frozen=True)
class DataAccessLogPayload:
    case_number: str
    actor_public_key: bytes
    role: str
    action: str
    stage: int
    decision: str  # "Allowed" | "Denied"
    payload_digest: bytes


@dataclass(frozen=True)
class ProvenanceRequestPayload:
    case_number: str
    requester_public_key: bytes


PAYLOAD_TYPES = {
    PayloadKind.CASE_CREATE: CaseCreatePayload,
    PayloadKind.ACCESS_CONTROL: AccessControlPayload,
    PayloadKind.QUERY_NODE_ASSIGN: QueryNodeAssignPayload,
    PayloadKind.STAGE_PROPOSAL: StageProposalPayload,
    PayloadKind.STAGE_VOTE: StageVotePayload,
    PayloadKind.DATA_ACCESS_LOG: DataAccessLogPayload,
    PayloadKind.PROVENANCE_REQUEST: ProvenanceRequestPayload,
}
PAYLOAD_KINDS = {cls: kind for kind, cls in PAYLOAD_TYPES.items()}

_CODECS = {
    str: (enc_str, Reader.read_str),
    bytes: (enc_bytes, Reader.read_bytes),
    int: (enc_int, Reader.read_int),
    tuple[str, ...]: (enc_str_list, Reader.read_str_list),
    tuple[bytes, ...]: (enc_bytes_list, Reader.read_bytes_list),
}

# payload class -> [(field name, encoder, reader)] in declaration order
_FIELD_CODECS = {
    cls: [(f.name, *_CODECS[get_type_hints(cls)[f.name]]) for f in fields(cls)]
    for cls in PAYLOAD_TYPES.values()
}


def encode_payload(payload) -> bytes:
    """The canonical bytes of a typed payload."""
    return b"".join(
        enc(getattr(payload, name)) for name, enc, _read in _FIELD_CODECS[type(payload)]
    )


def payload_transaction(
    payload, source_chain: str, key: KeyPair, destinations: tuple[str, ...] = ()
) -> Transaction:
    """Sign `payload` on `source_chain` as a transaction of its kind."""
    return make_transaction(
        PAYLOAD_KINDS[type(payload)], encode_payload(payload),
        source_chain, destinations, key,
    )


def decode_payload(kind: PayloadKind, body: bytes):
    """Decode a transaction body into its typed payload."""
    try:
        cls = PAYLOAD_TYPES[kind]
    except KeyError:
        raise DecodeError(f"no payload decoder for {kind.value}") from None
    r = Reader(body)
    out = cls(*[read(r) for _name, _enc, read in _FIELD_CODECS[cls]])
    r.expect_end()
    return out
