"""Bridge-side case registry: case contracts, per-stage hash records,
query-node authorization, and unanimous stage voting.

The registry mutates only when the bridge's communication contract hands it
a validated envelope; reads are snapshot-safe at any tick. Stage voting is
per proposal round: the round closes when every participant has voted, and
the stage advances exactly when the vector is all-Approve. Votes are kept
only in the rounds: the open proposal is the last round while it is not
closed, and the exported stage votes are those of each stage's last closed
round.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .crypto import Digest
from .errors import (
    DoubleVote,
    FutureStage,
    NonParticipant,
    ProposalAlreadyOpen,
    StaleStage,
    UnknownCase,
)
from .lifecycle import AccessPolicy, Case, add_case
from .payloads import VOTE_APPROVE
from .provenance import EMPTY_STAGE_LEAF, case_chain_root, stage_leaf

DEFAULT_STAGE_COUNT = 5


class StageOutcome(Enum):
    ADVANCED = "Advanced"
    AWAITING_VOTES = "AwaitingVotes"
    BLOCKED = "Blocked"


@dataclass
class VoteResult:
    outcome: StageOutcome
    stage: int
    round: int
    reasons: tuple[str, ...] = ()


@dataclass
class StageHashRecord:
    """Ordered transaction hashes one chain reported for one stage; the
    case keys it by (chain, stage)."""

    tx_hashes: list[Digest] = field(default_factory=list)
    leaf: Digest = b""

    def append(self, tx_hash: Digest) -> None:
        self.tx_hashes.append(tx_hash)
        self.leaf = stage_leaf(self.tx_hashes)


@dataclass
class ProposalRound:
    stage: int
    round: int
    proposer_chain: str
    votes: dict[str, tuple[str, str]] = field(default_factory=dict)  # chain -> (vote, reason)
    closed: bool = False


@dataclass
class CaseContract(Case):
    stage_count: int = DEFAULT_STAGE_COUNT
    current_stage: int = 0
    query_nodes: set[bytes] = field(default_factory=set)
    rounds: list[ProposalRound] = field(default_factory=list)
    stage_records: dict[tuple[str, int], StageHashRecord] = field(default_factory=dict)


class BridgeRegistry:
    """Case registry replicated on the bridge chain."""

    def __init__(self, stage_count: int = DEFAULT_STAGE_COUNT):
        self.stage_count = stage_count
        self.cases: dict[str, CaseContract] = {}

    def require_case(self, case_number: str) -> CaseContract:
        try:
            return self.cases[case_number]
        except KeyError:
            raise UnknownCase(case_number) from None

    def _require_participant(self, case: CaseContract, chain_id: str) -> None:
        if chain_id not in case.participants:
            raise NonParticipant(f"{chain_id} not part of {case.case_number}")

    # -- phase 1: case creation ---------------------------------------------

    def register_case(
        self,
        case_number: str,
        source_chain: str,
        destination_chains: tuple[str, ...],
        creator_public_key: bytes,
    ) -> CaseContract:
        return add_case(self.cases, CaseContract(
            case_number, source_chain, tuple(destination_chains), creator_public_key,
            stage_count=self.stage_count,
        ))

    # -- phase 2: access policy ----------------------------------------------

    def store_policy(self, case_number: str, chain_id: str, policy: AccessPolicy) -> None:
        case = self.require_case(case_number)
        self._require_participant(case, chain_id)
        case.policy = policy

    # -- phase 3: query nodes --------------------------------------------------

    def assign_query_nodes(
        self, case_number: str, chain_id: str, public_keys: tuple[bytes, ...]
    ) -> CaseContract:
        case = self.require_case(case_number)
        self._require_participant(case, chain_id)
        case.query_nodes.update(public_keys)
        return case

    # -- phase 4: stage voting --------------------------------------------------

    def next_round(self, case_number: str, stage: int) -> int:
        """Round number the next proposal for `stage` would get."""
        case = self.require_case(case_number)
        return sum(1 for r in case.rounds if r.stage == stage) + 1

    def open_stage_proposal(
        self,
        case_number: str,
        proposer_chain: str,
        stage: int,
        implicit_approve: bool = True,
    ) -> ProposalRound:
        """Start a voting round for advancing to `stage` (= current + 1).

        The proposing chain's submission counts as its Approve unless
        implicit_approve is disabled (used by exhaustive vote enumeration).
        """
        case = self.require_case(case_number)
        self._require_participant(case, proposer_chain)
        if case.rounds and not case.rounds[-1].closed:
            raise ProposalAlreadyOpen(f"{case_number} stage {case.rounds[-1].stage}")
        if stage != case.current_stage + 1 or stage > case.stage_count:
            raise StaleStage(
                f"proposal for stage {stage}, current is {case.current_stage}"
            )
        round_no = self.next_round(case_number, stage)
        proposal = ProposalRound(stage=stage, round=round_no, proposer_chain=proposer_chain)
        if implicit_approve:
            proposal.votes[proposer_chain] = (VOTE_APPROVE, "")
        case.rounds.append(proposal)
        return proposal

    def process_stage_vote(
        self,
        case_number: str,
        chain_id: str,
        stage: int,
        round_: int,
        vote: str,
        reason: str = "",
    ) -> VoteResult:
        """Count one chain's vote; resolves the round once all votes are in."""
        case = self.require_case(case_number)
        self._require_participant(case, chain_id)
        proposal = case.rounds[-1] if case.rounds else None
        if proposal is None or proposal.closed or proposal.stage != stage or proposal.round != round_:
            raise StaleStage(f"no open round {round_} for stage {stage}")
        if chain_id in proposal.votes:
            raise DoubleVote(f"{chain_id} already voted in round {round_}")
        proposal.votes[chain_id] = (vote, reason)
        if len(proposal.votes) < len(case.participants):
            return VoteResult(StageOutcome.AWAITING_VOTES, stage, round_)
        proposal.closed = True
        reasons = tuple(
            f"{c}: {r}" for c, (v, r) in sorted(proposal.votes.items()) if v != VOTE_APPROVE
        )
        if reasons:
            return VoteResult(StageOutcome.BLOCKED, stage, round_, reasons)
        case.current_stage = stage
        return VoteResult(StageOutcome.ADVANCED, stage, round_)

    # -- phase 5 / provenance: stage hash records -------------------------------

    def record_stage_hash(
        self, case_number: str, chain_id: str, stage: int, tx_hash: Digest
    ) -> StageHashRecord:
        case = self.require_case(case_number)
        self._require_participant(case, chain_id)
        if stage > case.current_stage:
            raise FutureStage(f"stage {stage} ahead of {case.current_stage}")
        if not (0 <= stage < case.stage_count):
            raise StaleStage(f"stage {stage} outside 0..{case.stage_count - 1}")
        record = case.stage_records.get((chain_id, stage))
        if record is None:
            record = StageHashRecord()
            case.stage_records[(chain_id, stage)] = record
        record.append(tx_hash)
        return record

    def stage_leaves_for(self, case_number: str, chain_id: str) -> list[Digest]:
        """One leaf per configured stage; unreported stages use the empty leaf."""
        case = self.require_case(case_number)
        leaves = []
        for stage in range(case.stage_count):
            record = case.stage_records.get((chain_id, stage))
            leaves.append(record.leaf if record is not None else EMPTY_STAGE_LEAF)
        return leaves

    def chain_root(self, case_number: str, chain_id: str) -> Digest:
        case = self.require_case(case_number)
        return case_chain_root(self.stage_leaves_for(case_number, chain_id), case.stage_count)

    # -- export ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Deterministic, JSON-ready view of every case."""
        out: dict = {"stage_count": self.stage_count, "cases": {}}
        for case_number in sorted(self.cases):
            case = self.cases[case_number]
            out["cases"][case_number] = {
                "source": case.source_chain,
                "destinations": list(case.destination_chains),
                "creator": case.creator_public_key.hex(),
                "current_stage": case.current_stage,
                "query_nodes": sorted(k.hex() for k in case.query_nodes),
                "policy_digest": case.policy.digest().hex() if case.policy else None,
                # a later round of a stage overwrites an earlier one
                "stage_votes": {
                    str(r.stage): {c: v for c, (v, _r) in sorted(r.votes.items())}
                    for r in case.rounds
                    if r.closed
                },
                "stage_hashes": {
                    chain: {
                        str(stage): {
                            "leaf": case.stage_records[(chain, stage)].leaf.hex(),
                            "tx_hashes": [
                                h.hex() for h in case.stage_records[(chain, stage)].tx_hashes
                            ],
                        }
                        for (c, stage) in sorted(case.stage_records)
                        if c == chain
                    }
                    for chain in sorted({c for (c, _s) in case.stage_records})
                },
                "roots": {
                    chain: self.chain_root(case_number, chain).hex()
                    for chain in sorted(case.participants)
                },
            }
        return out
