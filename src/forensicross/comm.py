"""Inter-blockchain communication: mutual-node translation and strict-majority
verification.

An origin transaction mined on its source chain is translated by every
mutual node of that chain into one canonical byte string and submitted to
the receiving contract (bridge or destination). The contract validates a
body once strictly more than half of the expected mutual nodes have
submitted byte-identical copies; once no body can still reach that
threshold the entry is rejected.

A `DeliveryReport` keeps only the hops of a routed transaction. A verify
hop's status is the outcome at its chain (validated, forwarded, rejected,
expired, validated-malicious or registry-rejected); the report's status is
its last refusal, else delivered once validated hops suffice, else pending.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

from .canonical import encode_fields, encode_values, field_codecs
from .chain import PayloadKind, Transaction
from .crypto import KeyPair, sign, verify


class NotMutualNode(Exception):
    pass


@dataclass(frozen=True)
class MutualNodeSet:
    """Nodes shared between one organization chain and its counterpart
    (the bridge, or the paired chain in a mesh). Size must be odd and > 2."""

    chain_id: str
    members: tuple[str, ...]

    def __post_init__(self):
        if len(self.members) <= 2:
            raise ValueError("mutual node set must have more than 2 members")
        if len(self.members) % 2 == 0:
            raise ValueError("mutual node set size must be odd")
        if len(set(self.members)) != len(self.members):
            raise ValueError("mutual node members must be distinct")

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class HopOrigin:
    """What every translator of one routed hop shares: the origin's
    identity (the ledger key at the receiving contract), the honest body
    and the routed record's destinations."""

    tx_id: str
    chain: str
    body: bytes
    destinations: tuple[str, ...]


def hop_origin(tx: Transaction) -> HopOrigin:
    """The hop that routing `tx` makes. An origin transaction is carried
    whole (its canonical serialization, original signature included); a
    forwarded envelope record passes its embedded origin through unchanged,
    so that origin keeps its identity on the second hop."""
    if tx.payload_kind is PayloadKind.INTERCHAIN_ENVELOPE:
        embedded = Transaction.from_canonical(tx.body)
        return HopOrigin(embedded.tx_id, embedded.source_chain, tx.body, tx.destination_chains)
    return HopOrigin(tx.tx_id, tx.source_chain, tx.canonical_bytes(), tx.destination_chains)


@dataclass(frozen=True)
class TranslatedEnvelope:
    origin_tx_id: str
    origin_chain: str
    destination_chains: tuple[str, ...]
    canonical_body: bytes
    translator_node: str
    translator_signature: bytes

    def attested_bytes(self) -> bytes:
        return encode_fields(self, _ATTESTED)


_ATTESTED = field_codecs(TranslatedEnvelope)[:5]  # every field but the signature


def translate(
    origin: HopOrigin, node: str, mutual_set: MutualNodeSet, node_key: KeyPair,
    corrupt: "callable | None" = None,
) -> TranslatedEnvelope:
    """One mutual node's rendering of a routed hop, `hop_origin(tx)`, into
    the standard format.

    `corrupt` is the fault-injection hook: a function over the honest body,
    applied only for compromised nodes.
    """
    if node not in mutual_set.members:
        raise NotMutualNode(f"{node} is not in the mutual set of {mutual_set.chain_id}")
    body = origin.body if corrupt is None else corrupt(origin.body)
    attested = encode_values(
        _ATTESTED, (origin.tx_id, origin.chain, origin.destinations, body, node)
    )
    signature = sign(attested, node_key)
    return TranslatedEnvelope(
        origin.tx_id, origin.chain, origin.destinations, body, node, signature
    )


class VerifyStatus(Enum):
    PENDING = "Pending"
    VALIDATED = "Validated"
    REJECTED = "Rejected"
    EXPIRED = "Expired"


@dataclass
class LedgerEntry:
    """Per-origin-transaction verification state on one receiving contract."""

    origin_tx_id: str
    expected: int
    submissions: dict[str, TranslatedEnvelope] = field(default_factory=dict)
    duplicate_nodes: list[str] = field(default_factory=list)
    status: VerifyStatus = VerifyStatus.PENDING
    winning_body: bytes | None = None
    resolved_tick: int | None = None


def verify_translations(entry: LedgerEntry) -> VerifyStatus:
    """Recompute an entry's status from its counted submissions.

    Validated iff some body has strictly more than expected/2 distinct-node
    submissions; Rejected once no body (seen or future) can still get there.
    """
    counts = Counter(env.canonical_body for env in entry.submissions.values())
    threshold = entry.expected // 2 + 1  # strictly more than half
    for body, n in counts.items():
        if n >= threshold:
            entry.status = VerifyStatus.VALIDATED
            entry.winning_body = body
            return entry.status
    remaining = entry.expected - len(entry.submissions)
    best_possible = max(list(counts.values()) + [0]) + remaining
    if best_possible < threshold and remaining < threshold:
        entry.status = VerifyStatus.REJECTED
        return entry.status
    entry.status = VerifyStatus.PENDING
    return entry.status


class VerificationContract:
    """The communication smart contract's monitor/verify/count state for one
    receiving chain. `key_resolver` maps a mutual node's name to its public
    key so submissions can be attributed before counting."""

    def __init__(self, chain_id: str, key_resolver):
        self.chain_id = chain_id
        self.key_resolver = key_resolver
        self.entries: dict[str, LedgerEntry] = {}

    def entry_for(self, origin_tx_id: str, expected: int) -> LedgerEntry:
        entry = self.entries.get(origin_tx_id)
        if entry is None:
            entry = LedgerEntry(origin_tx_id=origin_tx_id, expected=expected)
            self.entries[origin_tx_id] = entry
        return entry

    def receive(
        self, envelope: TranslatedEnvelope, mutual_set: MutualNodeSet, tick: int
    ) -> tuple[LedgerEntry, bool, bool]:
        """Count one submission that arrived over the link of `mutual_set`;
        returns (entry, resolved, was_duplicate). The entry expects one
        envelope from each member of that set.

        `resolved` is True only for the submission that validated or
        rejected the entry; the entry's status is the outcome.

        Checks run in this order: duplicate, resolved, membership,
        signature, count. A node's second submission for the same origin tx
        is ignored and recorded. A resolved entry (Validated, Rejected or
        Expired) never changes status again, so its envelopes are not
        verified. An envelope from a node outside `mutual_set`, whatever
        key signed it, or with a forged signature, is not counted, so
        translators of other links can never add up to a majority on this
        one.
        """
        node = envelope.translator_node
        entry = self.entry_for(envelope.origin_tx_id, mutual_set.size)
        if node in entry.submissions:
            entry.duplicate_nodes.append(node)
            return entry, False, True
        if entry.status is not VerifyStatus.PENDING or node not in mutual_set.members:
            return entry, False, False
        if not verify(
            envelope.attested_bytes(), envelope.translator_signature, self.key_resolver(node)
        ):
            return entry, False, False
        entry.submissions[node] = envelope
        if verify_translations(entry) is VerifyStatus.PENDING:
            return entry, False, False
        entry.resolved_tick = tick
        return entry, True, False


@dataclass
class Hop:
    hop: str  # "mutual-receipt" | "bridge-verify" | "destination-verify"
    chain: str
    tick: int
    message_count: int
    status: str  # "ok" on the receipt; a verify hop's outcome at its chain


REFUSALS = ("rejected", "expired", "validated-malicious", "registry-rejected")
ACCEPTED = ("validated", "validated-malicious", "registry-rejected")


@dataclass
class DeliveryReport:
    """Every hop a routed transaction took, with logical times and counts;
    every other fact of the report is read from them.

    The first hop is the mutual receipt. A verify hop's status is the
    outcome at its chain: "validated" (applied, and final there),
    "forwarded" (the bridge applied it and sent it on), or a refusal. The
    report's `status` is its last refusal; without one it is "delivered"
    once a bridge-verify hop is "validated" or "validated" hops cover every
    destination (one suffices when there are none), and "pending" before.
    """

    tx_id: str
    kind: str
    origin_chain: str
    destinations: tuple[str, ...]
    hops: list[Hop] = field(default_factory=list)

    @property
    def mutual_receipt_tick(self) -> int | None:
        return self.hops[0].tick if self.hops else None

    @property
    def accepted_ticks(self) -> dict[str, int]:
        return {h.chain: h.tick for h in self.hops if h.status in ACCEPTED}

    @property
    def status(self) -> str:
        refusals = [h.status for h in self.hops if h.status in REFUSALS]
        if refusals:
            return refusals[-1]
        validated = [h for h in self.hops if h.status == "validated"]
        if any(h.hop == "bridge-verify" for h in validated) or (
            validated and set(self.destinations) <= {h.chain for h in validated}
        ):
            return "delivered"
        return "pending"

    @property
    def winning_is_honest(self) -> bool | None:
        """False once a dishonest body won a vote anywhere, else True once
        an honest one did."""
        statuses = {h.status for h in self.hops}
        if "validated-malicious" in statuses:
            return False
        if statuses & {"validated", "forwarded", "registry-rejected"}:
            return True
        return None

    @property
    def duration(self) -> int | None:
        accepted = self.accepted_ticks
        if not accepted:
            return None
        return max(accepted.values()) - self.mutual_receipt_tick

    @property
    def verification_events(self) -> int:
        return sum(1 for h in self.hops if h.hop.endswith("-verify"))

    @property
    def message_count(self) -> int:
        return sum(h.message_count for h in self.hops)

    def hop_records(self) -> list[dict]:
        """One structured record per hop."""
        return [
            {
                "tx_id": self.tx_id,
                "hop": h.hop,
                "chain": h.chain,
                "logical_time": h.tick,
                "message_count": h.message_count,
                "status": h.status,
            }
            for h in self.hops
        ]

