"""Minimal private proof-of-authority blockchain.

One Chain instance per organization plus one for the bridge. Blocks link
by header digest; each block carries a Merkle root over its transaction
digests and a signature from a validator in the fixed authority set.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

from .canonical import (
    Reader,
    dec_enum,
    enc_bytes,
    enc_int,
    enc_str,
    enc_str_list,
)
from .crypto import Digest, KeyPair, ZERO_DIGEST, hash_bytes, merkle_root, sign, verify

EMPTY_BLOCK_MARKER = hash_bytes(b"EMPTY")


class PayloadKind(Enum):
    CASE_CREATE = "CaseCreate"
    ACCESS_CONTROL = "AccessControl"
    QUERY_NODE_ASSIGN = "QueryNodeAssign"
    STAGE_PROPOSAL = "StageProposal"
    STAGE_VOTE = "StageVote"
    DATA_ACCESS_LOG = "DataAccessLog"
    INTERCHAIN_ENVELOPE = "InterchainEnvelope"
    PROVENANCE_REQUEST = "ProvenanceRequest"


class SubmitError(Exception):
    """Transaction rejected at submission; .reason is one of the codes below."""

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


INVALID_SIGNATURE = "InvalidSignature"
DUPLICATE_TX_ID = "DuplicateTxId"
UNKNOWN_PAYLOAD_KIND = "UnknownPayloadKind"


class UnauthorizedValidator(Exception):
    pass


@dataclass(frozen=True)
class Transaction:
    """Signed record routed between chains.

    The signature covers (payload_kind, body, source_chain, destination_chains);
    tx_id is assigned by the source chain at submission, after signing.
    """

    tx_id: str
    sender_public_key: bytes
    payload_kind: PayloadKind
    body: bytes
    source_chain: str
    destination_chains: tuple[str, ...]
    signature: bytes

    def signing_bytes(self) -> bytes:
        return (
            enc_str(self.payload_kind.value)
            + enc_bytes(self.body)
            + enc_str(self.source_chain)
            + enc_str_list(self.destination_chains)
        )

    def canonical_bytes(self) -> bytes:
        return (
            enc_str(self.tx_id)
            + enc_bytes(self.sender_public_key)
            + self.signing_bytes()
            + enc_bytes(self.signature)
        )

    def digest(self) -> Digest:
        return hash_bytes(self.canonical_bytes())

    @classmethod
    def from_canonical(cls, data: bytes) -> "Transaction":
        r = Reader(data)
        tx_id = r.read_str()
        sender = r.read_bytes()
        kind = dec_enum(PayloadKind, r.read_str())
        body = r.read_bytes()
        source = r.read_str()
        destinations = r.read_str_list()
        signature = r.read_bytes()
        r.expect_end()
        return cls(tx_id, sender, kind, body, source, destinations, signature)


def make_transaction(
    kind: PayloadKind,
    body: bytes,
    source_chain: str,
    destinations: tuple[str, ...] | list[str],
    key: KeyPair,
) -> Transaction:
    """Build and sign a transaction; tx_id stays empty until submission."""
    tx = Transaction(
        tx_id="",
        sender_public_key=key.public_key,
        payload_kind=kind,
        body=body,
        source_chain=source_chain,
        destination_chains=tuple(destinations),
        signature=b"",
    )
    return replace(tx, signature=sign(tx.signing_bytes(), key))


@dataclass(frozen=True)
class Block:
    height: int
    prev_hash: Digest
    tx_merkle_root: Digest
    transactions: tuple[Transaction, ...]
    validator_public_key: bytes
    validator_signature: bytes
    timestamp: int

    def header_bytes(self) -> bytes:
        return (
            enc_int(self.height)
            + enc_bytes(self.prev_hash)
            + enc_bytes(self.tx_merkle_root)
            + enc_int(self.timestamp)
            + enc_bytes(self.validator_public_key)
        )

    def header_digest(self) -> Digest:
        return hash_bytes(self.header_bytes())


def tx_root(transactions: tuple[Transaction, ...] | list[Transaction]) -> Digest:
    if not transactions:
        return EMPTY_BLOCK_MARKER
    return merkle_root([tx.digest() for tx in transactions])


@dataclass
class ChainFault:
    height: int
    reason: str


class Chain:
    """Append-only block store plus pending pool and POA authority set."""

    def __init__(self, chain_id: str, authority_set: list[bytes]):
        if not authority_set:
            raise ValueError("authority set must not be empty")
        self.chain_id = chain_id
        self.authority_set = list(authority_set)
        self.blocks: list[Block] = []
        self.pending_pool: list[Transaction] = []
        self.clock = 0
        self._tx_counter = 0
        self._seen_tx_ids: set[str] = set()

    # -- submission ---------------------------------------------------------

    def submit_transaction(self, tx: Transaction) -> Transaction:
        """Validate, assign a fresh tx_id if missing, and enqueue.

        Raises SubmitError(InvalidSignature | DuplicateTxId | UnknownPayloadKind).
        """
        if not isinstance(tx.payload_kind, PayloadKind):
            raise SubmitError(UNKNOWN_PAYLOAD_KIND, str(tx.payload_kind))
        try:
            ok = verify(tx.signing_bytes(), tx.signature, tx.sender_public_key)
        except ValueError as exc:
            raise SubmitError(INVALID_SIGNATURE, str(exc)) from exc
        if not ok:
            raise SubmitError(INVALID_SIGNATURE, tx.tx_id or "<unassigned>")
        if tx.tx_id:
            if tx.tx_id in self._seen_tx_ids:
                raise SubmitError(DUPLICATE_TX_ID, tx.tx_id)
            accepted = tx
        else:
            self._tx_counter += 1
            accepted = replace(tx, tx_id=f"{self.chain_id}:{self._tx_counter}")
        self._seen_tx_ids.add(accepted.tx_id)
        self.pending_pool.append(accepted)
        return accepted

    # -- mining -------------------------------------------------------------

    def expected_validator(self, height: int) -> bytes:
        """Round-robin POA schedule over the authority set."""
        return self.authority_set[height % len(self.authority_set)]

    def mine_block(self, validator: KeyPair, timestamp: int | None = None) -> Block:
        if validator.public_key not in self.authority_set:
            raise UnauthorizedValidator(self.chain_id)
        ts = self.clock if timestamp is None else timestamp
        prev = self.blocks[-1].header_digest() if self.blocks else ZERO_DIGEST
        txs = tuple(self.pending_pool)
        block = Block(
            height=len(self.blocks),
            prev_hash=prev,
            tx_merkle_root=tx_root(txs),
            transactions=txs,
            validator_public_key=validator.public_key,
            validator_signature=b"",
            timestamp=ts,
        )
        block = replace(block, validator_signature=sign(block.header_digest(), validator))
        self.blocks.append(block)
        self.pending_pool = []
        return block


def validate_chain(chain: Chain) -> ChainFault | None:
    """None when intact, else the lowest height whose linkage, Merkle root,
    or validator signature fails."""
    prev_digest = ZERO_DIGEST
    for i, block in enumerate(chain.blocks):
        if block.height != i:
            return ChainFault(i, "height mismatch")
        if block.prev_hash != prev_digest:
            return ChainFault(i, "broken linkage")
        if tx_root(block.transactions) != block.tx_merkle_root:
            return ChainFault(i, "tx merkle root mismatch")
        if block.validator_public_key not in chain.authority_set:
            return ChainFault(i, "validator not in authority set")
        digest = block.header_digest()
        try:
            ok = verify(digest, block.validator_signature, block.validator_public_key)
        except ValueError:
            ok = False
        if not ok:
            return ChainFault(i, "validator signature invalid")
        prev_digest = digest
    return None


# -- dump format -------------------------------------------------------------


def block_to_record(block: Block) -> dict:
    return {
        "height": block.height,
        "hash": block.header_digest().hex(),
        "prev_hash": block.prev_hash.hex(),
        "tx_merkle_root": block.tx_merkle_root.hex(),
        "timestamp": block.timestamp,
        "validator": block.validator_public_key.hex(),
        "transactions": [
            {
                "tx_id": tx.tx_id,
                "kind": tx.payload_kind.value,
                "sender": tx.sender_public_key.hex(),
                "source": tx.source_chain,
                "destinations": list(tx.destination_chains),
                "body_digest": hash_bytes(tx.body).hex(),
            }
            for tx in block.transactions
        ],
    }


def dump_chain(chain: Chain, path: str | Path) -> None:
    """One block per line as JSON, digests as lowercase hex."""
    with open(path, "w", encoding="utf-8") as fh:
        for block in chain.blocks:
            fh.write(json.dumps(block_to_record(block), separators=(",", ":")) + "\n")
