"""Minimal private proof-of-authority blockchain.

One Chain instance per organization plus one for the bridge. Blocks link
by header digest; each block carries a Merkle root over its transaction
digests and a signature from a validator in the fixed authority set.
"""
from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
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
# refused by `World`, not by `Chain`: a sender its chain does not admit
UNKNOWN_SENDER = "UnknownSender"


class UnauthorizedValidator(Exception):
    pass


def _signing_bytes(
    kind: PayloadKind, body: bytes, source_chain: str, destinations: tuple[str, ...]
) -> bytes:
    return (
        enc_str(kind.value)
        + enc_bytes(body)
        + enc_str(source_chain)
        + enc_str_list(destinations)
    )


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
        return _signing_bytes(
            self.payload_kind, self.body, self.source_chain, self.destination_chains
        )

    def canonical_bytes(self) -> bytes:
        return (
            enc_str(self.tx_id)
            + enc_bytes(self.sender_public_key)
            + self.signing_bytes()
            + enc_bytes(self.signature)
        )

    def digest(self) -> Digest:
        """SHA-256 of `canonical_bytes()`, memoized per object.

        The memo is safe because a transaction is frozen: a changed record is
        a new object (`dataclasses.replace`), which hashes its own bytes. The
        memo stays out of the fields, so `__eq__`, `__hash__`, `repr` and
        `replace` ignore it, and pickling drops it. `canonical_bytes` is not
        memoized: keeping every record's encoding alive raised the peak RSS
        of the evidence-audit benchmark by about 5%, the 32-byte digest
        alone by about 1.5%.
        """
        return self._digest

    @cached_property
    def _digest(self) -> Digest:
        return hash_bytes(self.canonical_bytes())

    def __getstate__(self) -> dict:
        # a memo never travels: the receiver hashes the bytes it holds
        return {k: v for k, v in self.__dict__.items() if k != "_digest"}

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
    destinations = tuple(destinations)
    return Transaction(
        tx_id="",
        sender_public_key=key.public_key,
        payload_kind=kind,
        body=body,
        source_chain=source_chain,
        destination_chains=destinations,
        signature=sign(_signing_bytes(kind, body, source_chain, destinations), key),
    )


def _header_bytes(
    height: int, prev_hash: Digest, tx_merkle_root: Digest, timestamp: int,
    validator_public_key: bytes,
) -> bytes:
    return (
        enc_int(height)
        + enc_bytes(prev_hash)
        + enc_bytes(tx_merkle_root)
        + enc_int(timestamp)
        + enc_bytes(validator_public_key)
    )


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
        """The signed header; the signature itself is not part of it."""
        return _header_bytes(
            self.height, self.prev_hash, self.tx_merkle_root, self.timestamp,
            self.validator_public_key,
        )

    def header_digest(self) -> Digest:
        """SHA-256 of `header_bytes()`, memoized per object, as
        `Transaction.digest` is and for the same reasons: a block is frozen,
        and a changed block is a new object. `Chain.mine_block` seeds the
        memo with the digest its validator signed."""
        return self._header_digest

    @cached_property
    def _header_digest(self) -> Digest:
        return hash_bytes(self.header_bytes())

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_header_digest"}


def tx_root(transactions: tuple[Transaction, ...] | list[Transaction]) -> Digest:
    return _digest_root([tx.digest() for tx in transactions])


def _digest_root(digests: list[Digest]) -> Digest:
    return merkle_root(digests) if digests else EMPTY_BLOCK_MARKER


@dataclass
class ChainFault:
    height: int
    reason: str


class Chain:
    """Append-only block store plus pending pool and POA authority set.

    `authority_set` is the validators' public keys in schedule order. It is
    kept as given, not copied, and read only by index, except to name an
    audit fault: `World` passes a sequence that derives a key when indexed.
    """

    def __init__(self, chain_id: str, authority_set: Sequence[bytes]):
        if not authority_set:
            raise ValueError("authority set must not be empty")
        self.chain_id = chain_id
        self.authority_set = authority_set
        self.blocks: list[Block] = []
        self.pending_pool: list[Transaction] = []
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

    def mine_block(self, validator: KeyPair, timestamp: int = 0) -> Block:
        """Seal the pending pool into the next block, signed by `validator`,
        which must be the authority `expected_validator` schedules for it.
        `timestamp` is the caller's clock, kept in the signed header; the
        chain keeps no clock of its own."""
        if validator.public_key != self.expected_validator(len(self.blocks)):
            raise UnauthorizedValidator(self.chain_id)
        height = len(self.blocks)
        prev = self.blocks[-1].header_digest() if self.blocks else ZERO_DIGEST
        txs = tuple(self.pending_pool)
        root = tx_root(txs)
        digest = hash_bytes(_header_bytes(height, prev, root, timestamp, validator.public_key))
        block = Block(
            height=height,
            prev_hash=prev,
            tx_merkle_root=root,
            transactions=txs,
            validator_public_key=validator.public_key,
            validator_signature=sign(digest, validator),
            timestamp=timestamp,
        )
        # the signature is outside the header, so the digest it signs is the
        # sealed block's header digest: seed the memo instead of hashing again
        block.__dict__["_header_digest"] = digest
        self.blocks.append(block)
        self.pending_pool = []
        return block


def validate_chain(chain: Chain) -> ChainFault | None:
    """None when intact, else the lowest height whose linkage, transaction
    set (no digest twice), Merkle root, validator (the one the round-robin
    schedule names) or validator signature fails. Only a wrong validator is
    looked up in the whole authority set, to say whether it is in it at all.

    `submit_transaction` never admits a tx_id twice, so a repeated digest
    is tampering. The check closes the duplicate-last ambiguity of
    `MerkleTree`: an odd-width block and its copy that repeats the last
    transaction share a root.
    """
    prev_digest = ZERO_DIGEST
    for i, block in enumerate(chain.blocks):
        if block.height != i:
            return ChainFault(i, "height mismatch")
        if block.prev_hash != prev_digest:
            return ChainFault(i, "broken linkage")
        digests = [tx.digest() for tx in block.transactions]
        if len(set(digests)) != len(digests):
            return ChainFault(i, "duplicate transaction")
        if _digest_root(digests) != block.tx_merkle_root:
            return ChainFault(i, "tx merkle root mismatch")
        if block.validator_public_key != chain.expected_validator(i):
            if block.validator_public_key in chain.authority_set:
                return ChainFault(i, "unexpected validator")
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
