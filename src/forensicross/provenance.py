"""Off-chain case stores, per-stage hash leaves, provenance extraction, and
tamper localization.

Each chain keeps the full case transactions off-chain, ordered per stage
exactly as mined. A stage's leaf is the nested hash of its ordered
transaction digests; the per-chain case root is the Merkle root over the
stage leaves. The bridge's copies of leaves/roots are the reference: a
mismatch localizes tampering to exact stages.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Mapping

from .chain import Transaction
from .crypto import Digest, hash_bytes, merkle_root
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

    def tamper(
        self,
        case_number: str,
        stage: int,
        index: int,
        mutate: Callable[[bytes], bytes] = flip_first_byte,
    ) -> Transaction:
        """Fault injection: replace one stored transaction's body in place.

        Only this store changes; the chains and the bridge keep the
        original hashes, which is exactly what localization detects.
        """
        stage_txs = self._records[case_number][stage]
        original = stage_txs[index]
        tampered = replace(original, body=mutate(original.body))
        stage_txs[index] = tampered
        return tampered


@dataclass
class ChainSection:
    chain_id: str
    stage_transactions: list[list[Transaction]]
    leaves: list[Digest]
    root: Digest


@dataclass
class BridgeReference:
    chain_id: str
    stage_leaves: list[Digest]
    root: Digest


@dataclass
class ProvenanceBundle:
    """Consolidated provenance for one case: every chain's off-chain records
    plus the bridge's reference leaves/roots, addressed to one query node
    (sealed-envelope marker; payloads stay plaintext at this scale)."""

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
        store = stores[chain_id]
        stage_txs = store.stage_lists(case_number, case.stage_count)
        leaves = [stage_leaf([tx.digest() for tx in txs]) for txs in stage_txs]
        sections[chain_id] = ChainSection(
            chain_id=chain_id,
            stage_transactions=stage_txs,
            leaves=leaves,
            root=case_chain_root(leaves, case.stage_count),
        )
        bridge_refs[chain_id] = BridgeReference(
            chain_id=chain_id,
            stage_leaves=registry.stage_leaves_for(case_number, chain_id),
            root=registry.chain_root(case_number, chain_id),
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

    Fails closed: raises MalformedBundle unless every section has a
    reference and each reference a section, both sides hold exactly
    `stage_count` stages, and each reference root is the Merkle root of its
    own leaves. With the reference root checked, equal leaves are the same
    as equal roots, so a root mismatch is always localized to some stage.
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
        try:
            ref_root = case_chain_root(ref.stage_leaves, stage_count)
        except ValueError as exc:  # a reference leaf of the wrong width
            raise MalformedBundle(f"{chain_id}: {exc}") from exc
        if ref_root != ref.root:
            raise MalformedBundle(f"{chain_id}: bridge root is not the root of its leaves")
        leaves = [
            stage_leaf([tx.digest() for tx in txs])
            for txs in section.stage_transactions
        ]
        report.verdicts[chain_id] = tuple(
            stage
            for stage, (local, reference) in enumerate(zip(leaves, ref.stage_leaves))
            if local != reference
        )
    return report


def bundle_to_record(bundle: ProvenanceBundle) -> dict:
    """JSON-ready export of a bundle (digests as hex)."""
    return {
        "case": bundle.case_number,
        "stage_count": bundle.stage_count,
        "recipient": bundle.recipient_public_key.hex(),
        "chains": {
            chain_id: {
                "leaves": [leaf.hex() for leaf in section.leaves],
                "root": section.root.hex(),
                "stage_tx_ids": [
                    [tx.tx_id for tx in txs] for txs in section.stage_transactions
                ],
            }
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
