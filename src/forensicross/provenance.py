"""Off-chain case stores, per-stage hash leaves, provenance extraction, and
tamper localization.

Each chain keeps the full case transactions off-chain, ordered per stage
exactly as mined. A stage's leaf is the nested hash of its ordered
transaction digests; the per-chain case root is the Merkle root over the
stage leaves. The bridge's copies of the leaves are the reference: a
mismatch localizes tampering to exact stages. Roots are derived from the
leaves for export only; localization compares leaves and computes none.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Mapping

from .chain import Transaction
from .crypto import DIGEST_SIZE, Digest, hash_bytes, merkle_root
from .errors import MalformedBundle, NotQueryNode

if TYPE_CHECKING:  # pragma: no cover
    from .registry import BridgeRegistry

EMPTY_STAGE_LEAF = hash_bytes(hash_bytes(b""))


def stage_leaf(tx_hashes: list[Digest]) -> Digest:
    """Nested hash of the ordered transaction digests of one stage."""
    return hash_bytes(hash_bytes(b"".join(tx_hashes)))


def case_chain_root(leaves: list[Digest], stage_count: int) -> Digest:
    """Merkle root over one chain's stage leaves; exactly one per stage."""
    if len(leaves) != stage_count:
        raise ValueError(f"expected {stage_count} stage leaves, got {len(leaves)}")
    return merkle_root(leaves)


def flip_first_byte(data: bytes) -> bytes:
    return bytes([data[0] ^ 0xFF]) + data[1:] if data else b"\xff"


class OffchainCaseStore:
    """Per-chain store of full case transactions, ordered per stage."""

    def __init__(self, chain_id: str):
        self.chain_id = chain_id
        self._records: dict[str, dict[int, list[Transaction]]] = {}

    def append(self, case_number: str, stage: int, tx: Transaction) -> None:
        self._records.setdefault(case_number, {}).setdefault(stage, []).append(tx)

    def transactions(self, case_number: str, stage: int) -> list[Transaction]:
        return list(self._records.get(case_number, {}).get(stage, []))

    def stage_lists(self, case_number: str, stage_count: int) -> list[list[Transaction]]:
        return [self.transactions(case_number, s) for s in range(stage_count)]

    def tamper(self, case_number: str, stage: int, index: int) -> Transaction:
        """Fault injection: replace one stored transaction's body in place,
        with its first byte flipped.

        Only this store changes; the chains and the bridge keep the
        original hashes, which is exactly what localization detects.
        """
        stage_txs = self._records[case_number][stage]
        if index < 0:  # no wrap-around: -1 names no stored position
            raise IndexError(f"transaction index {index} is negative")
        original = stage_txs[index]
        tampered = replace(original, body=flip_first_byte(original.body))
        stage_txs[index] = tampered
        return tampered


@dataclass
class ChainSection:
    """One chain's off-chain records for a case, ordered per stage.

    `leaves` and `root` are derived from `stage_transactions` on every read
    and never stored, so a section cannot carry leaves that disagree with
    the records it holds, however those records were replaced or edited.
    """

    chain_id: str
    stage_transactions: list[list[Transaction]]

    @property
    def leaves(self) -> list[Digest]:
        return [
            stage_leaf([tx.digest() for tx in txs]) for txs in self.stage_transactions
        ]

    @property
    def root(self) -> Digest:
        return merkle_root(self.leaves)


@dataclass
class BridgeReference:
    """The bridge registry's stage leaves for one chain's part of a case.

    `root` is derived from `stage_leaves` on every read and never stored, so
    a reference cannot carry a root that disagrees with its leaves. It
    exists for export; `verify_and_localize` compares leaves and never
    computes or checks a root.
    """

    chain_id: str
    stage_leaves: list[Digest]

    @property
    def root(self) -> Digest:
        return merkle_root(self.stage_leaves)


@dataclass
class ProvenanceBundle:
    """Consolidated provenance for one case: every chain's off-chain records
    plus the bridge's reference leaves, addressed to one query node
    (sealed-envelope marker; payloads stay plaintext at this scale).

    The bundle stores records and leaves only. Every root in it is derived
    on read (`ChainSection.root`, `BridgeReference.root`) for export, and is
    neither stored nor checked.
    """

    case_number: str
    stage_count: int
    sections: dict[str, ChainSection]
    bridge_refs: dict[str, BridgeReference]
    recipient_public_key: bytes


@dataclass
class TamperReport:
    """Per chain: () means intact, otherwise the tampered stage indices."""

    case_number: str
    verdicts: dict[str, tuple[int, ...]] = field(default_factory=dict)

    @property
    def tampered(self) -> bool:
        return any(self.verdicts.values())

    def tampered_stages(self, chain_id: str) -> tuple[int, ...]:
        return self.verdicts.get(chain_id, ())


def extract_provenance(
    registry: "BridgeRegistry",
    case_number: str,
    requester_public_key: bytes,
    stores: Mapping[str, OffchainCaseStore],
) -> ProvenanceBundle:
    """Assemble the consolidated bundle for an authorized query node.

    Raises UnknownCase for unregistered cases and NotQueryNode when the
    requester's key is not assigned to the case.
    """
    case = registry.require_case(case_number)
    if requester_public_key not in case.query_nodes:
        raise NotQueryNode(case_number)
    sections: dict[str, ChainSection] = {}
    bridge_refs: dict[str, BridgeReference] = {}
    for chain_id in case.participants:
        sections[chain_id] = ChainSection(
            chain_id=chain_id,
            stage_transactions=stores[chain_id].stage_lists(case_number, case.stage_count),
        )
        bridge_refs[chain_id] = BridgeReference(
            chain_id=chain_id,
            stage_leaves=registry.stage_leaves_for(case_number, chain_id),
        )
    return ProvenanceBundle(
        case_number=case_number,
        stage_count=case.stage_count,
        sections=sections,
        bridge_refs=bridge_refs,
        recipient_public_key=requester_public_key,
    )


def verify_and_localize(bundle: ProvenanceBundle) -> TamperReport:
    """Recompute each chain's stage leaves from the bundled transactions and
    report the stages whose leaf differs from the bridge reference.

    A section stores no leaves or root: `section.leaves` hashes the
    transactions the section holds at the moment it is read, so the verdict
    always follows the records and never a copy made at extraction.

    No root is computed or checked: the verdict is the leaf comparison
    alone, so a forged reference leaf is reported as a tampered stage just
    like a forged record.

    Fails closed: raises MalformedBundle unless every section has a
    reference and each reference a section, both sides hold exactly
    `stage_count` stages, and every reference leaf is `DIGEST_SIZE` bytes.
    """
    stage_count = bundle.stage_count
    if set(bundle.bridge_refs) != set(bundle.sections):
        raise MalformedBundle(
            f"bridge references {sorted(bundle.bridge_refs)} "
            f"do not match sections {sorted(bundle.sections)}"
        )
    report = TamperReport(case_number=bundle.case_number)
    for chain_id, section in bundle.sections.items():
        ref = bundle.bridge_refs[chain_id]
        shape = (len(section.stage_transactions), len(ref.stage_leaves))
        if shape != (stage_count, stage_count):
            raise MalformedBundle(
                f"{chain_id}: expected {stage_count} stages, got {shape[0]} "
                f"transaction lists and {shape[1]} reference leaves"
            )
        for stage, leaf in enumerate(ref.stage_leaves):
            if len(leaf) != DIGEST_SIZE:
                raise MalformedBundle(
                    f"{chain_id}: reference leaf {stage} is {len(leaf)} bytes, "
                    f"expected {DIGEST_SIZE}"
                )
        report.verdicts[chain_id] = tuple(
            stage
            for stage, (local, reference) in enumerate(zip(section.leaves, ref.stage_leaves))
            if local != reference
        )
    return report


def _section_record(section: ChainSection) -> dict:
    leaves = section.leaves  # derived: read once for both the leaves and the root
    return {
        "leaves": [leaf.hex() for leaf in leaves],
        "root": merkle_root(leaves).hex(),
        "stage_tx_ids": [[tx.tx_id for tx in txs] for txs in section.stage_transactions],
    }


def bundle_to_record(bundle: ProvenanceBundle) -> dict:
    """JSON-ready export of a bundle (digests as hex)."""
    return {
        "case": bundle.case_number,
        "stage_count": bundle.stage_count,
        "recipient": bundle.recipient_public_key.hex(),
        "chains": {
            chain_id: _section_record(section)
            for chain_id, section in sorted(bundle.sections.items())
        },
        "bridge_reference": {
            chain_id: {
                "leaves": [leaf.hex() for leaf in ref.stage_leaves],
                "root": ref.root.hex(),
            }
            for chain_id, ref in sorted(bundle.bridge_refs.items())
        },
    }


def report_to_record(report: TamperReport) -> dict:
    return {
        "case": report.case_number,
        "verdicts": {
            chain: {"intact": not stages, "tampered_stages": list(stages)}
            for chain, stages in sorted(report.verdicts.items())
        },
    }
