from itertools import product

import pytest

from forensicross.crypto import hash_bytes
from forensicross.errors import (
    DoubleVote,
    DuplicateCase,
    FutureStage,
    NoDestinations,
    NonParticipant,
    ProposalAlreadyOpen,
    StaleStage,
    UnknownCase,
)
from forensicross.payloads import VOTE_APPROVE, VOTE_REJECT
from forensicross.registry import BridgeRegistry, StageOutcome
from oracles import nested_stage_leaf

CREATOR = hash_bytes(b"creator-key")


def registry_with_case(destinations=("B",)) -> BridgeRegistry:
    registry = BridgeRegistry()
    registry.register_case("C-1", "A", tuple(destinations), CREATOR)
    return registry


def test_register_case_starts_at_stage_zero():
    registry = registry_with_case()
    case = registry.cases["C-1"]
    assert case.current_stage == 0
    assert case.participants == ("A", "B")
    assert case.creator_public_key == CREATOR


def test_register_case_twice_is_duplicate():
    registry = registry_with_case()
    with pytest.raises(DuplicateCase):
        registry.register_case("C-1", "A", ("B",), CREATOR)


def test_register_case_requires_destinations():
    registry = BridgeRegistry()
    with pytest.raises(NoDestinations):
        registry.register_case("C-2", "A", (), CREATOR)


def test_record_stage_hash_appends_and_recomputes_leaf():
    registry = registry_with_case()
    h1 = hash_bytes(b"tx1")
    record = registry.record_stage_hash("C-1", "A", 0, h1)
    assert record.tx_hashes == [h1]
    assert record.leaf == nested_stage_leaf([h1])
    hashes = [h1] + [hash_bytes(bytes([i])) for i in range(3)]
    for h in hashes[1:]:
        record = registry.record_stage_hash("C-1", "A", 0, h)
    assert record.tx_hashes == hashes
    assert record.leaf == nested_stage_leaf(hashes)


def test_record_stage_hash_rejects_non_participant_and_future_stage():
    registry = registry_with_case()
    with pytest.raises(NonParticipant):
        registry.record_stage_hash("C-1", "Z", 0, hash_bytes(b"x"))
    with pytest.raises(FutureStage):
        registry.record_stage_hash("C-1", "A", 1, hash_bytes(b"x"))
    with pytest.raises(UnknownCase):
        registry.record_stage_hash("C-9", "A", 0, hash_bytes(b"x"))


def test_record_stage_hash_on_a_closed_case_is_stale():
    registry = BridgeRegistry(stage_count=2)
    registry.register_case("C-1", "A", ("B",), CREATOR)
    registry.require_case("C-1").current_stage = 2  # both stages advanced
    with pytest.raises(StaleStage):
        registry.record_stage_hash("C-1", "A", 2, hash_bytes(b"x"))


def test_stage_hash_replay_reproduces_identical_leaves():
    arrivals = [("A", 0, hash_bytes(bytes([i]))) for i in range(6)]
    leaves = []
    for _ in range(2):
        registry = registry_with_case()
        for chain, stage, h in arrivals:
            registry.record_stage_hash("C-1", chain, stage, h)
        leaves.append(registry.stage_leaves_for("C-1", "A"))
    assert leaves[0] == leaves[1]


def test_assign_query_nodes_accumulates_as_set():
    registry = registry_with_case(destinations=("B", "C"))
    k1, k2 = hash_bytes(b"q1"), hash_bytes(b"q2")
    case = registry.assign_query_nodes("C-1", "B", (k1,))
    assert case.query_nodes == {k1}
    registry.assign_query_nodes("C-1", "C", (k2,))
    assert case.query_nodes == {k1, k2}
    registry.assign_query_nodes("C-1", "B", (k1,))
    assert case.query_nodes == {k1, k2}
    with pytest.raises(NonParticipant):
        registry.assign_query_nodes("C-1", "Z", (k1,))


def test_all_approve_advances():
    registry = registry_with_case(destinations=("B", "C"))
    registry.open_stage_proposal("C-1", "A", 1)  # A's submission approves
    assert (
        registry.process_stage_vote("C-1", "B", 1, 1, VOTE_APPROVE).outcome
        is StageOutcome.AWAITING_VOTES
    )
    result = registry.process_stage_vote("C-1", "C", 1, 1, VOTE_APPROVE)
    assert result.outcome is StageOutcome.ADVANCED
    assert registry.cases["C-1"].current_stage == 1


def test_single_reject_blocks_with_reason():
    registry = registry_with_case(destinations=("B", "C"))
    registry.open_stage_proposal("C-1", "A", 1)
    registry.process_stage_vote("C-1", "B", 1, 1, VOTE_REJECT, "missing report")
    result = registry.process_stage_vote("C-1", "C", 1, 1, VOTE_APPROVE)
    assert result.outcome is StageOutcome.BLOCKED
    assert result.reasons == ("B: missing report",)
    assert registry.cases["C-1"].current_stage == 0


def test_scripted_revote_after_block_advances():
    registry = registry_with_case(destinations=("B", "C"))
    registry.open_stage_proposal("C-1", "A", 1)
    registry.process_stage_vote("C-1", "B", 1, 1, VOTE_REJECT, "incomplete")
    registry.process_stage_vote("C-1", "C", 1, 1, VOTE_APPROVE)
    # offline resolution, then a fresh round
    proposal = registry.open_stage_proposal("C-1", "A", 1)
    assert proposal.round == 2
    registry.process_stage_vote("C-1", "B", 1, 2, VOTE_APPROVE)
    result = registry.process_stage_vote("C-1", "C", 1, 2, VOTE_APPROVE)
    assert result.outcome is StageOutcome.ADVANCED


def test_double_vote_rejected():
    registry = registry_with_case(destinations=("B", "C"))
    registry.open_stage_proposal("C-1", "A", 1)
    registry.process_stage_vote("C-1", "B", 1, 1, VOTE_APPROVE)
    with pytest.raises(DoubleVote):
        registry.process_stage_vote("C-1", "B", 1, 1, VOTE_REJECT)


def test_stale_and_out_of_order_proposals():
    registry = registry_with_case()
    with pytest.raises(StaleStage):
        registry.open_stage_proposal("C-1", "A", 2)  # skips stage 1
    registry.open_stage_proposal("C-1", "A", 1)
    with pytest.raises(ProposalAlreadyOpen):
        registry.open_stage_proposal("C-1", "A", 1)
    with pytest.raises(StaleStage):
        registry.process_stage_vote("C-1", "B", 1, 2, VOTE_APPROVE)  # wrong round


def test_stage_never_exceeds_terminal_index():
    registry = registry_with_case()
    for stage in range(1, 6):
        registry.open_stage_proposal("C-1", "A", stage)
        registry.process_stage_vote("C-1", "B", stage, 1, VOTE_APPROVE)
    assert registry.cases["C-1"].current_stage == 5
    with pytest.raises(StaleStage):
        registry.open_stage_proposal("C-1", "A", 6)


def test_unanimity_exhaustive_small():
    # all vote vectors for 2..4 participants; only all-approve advances
    for participants in (2, 3, 4):
        destinations = tuple(chr(ord("B") + i) for i in range(participants - 1))
        for vector in product((VOTE_APPROVE, VOTE_REJECT), repeat=participants):
            registry = BridgeRegistry()
            registry.register_case("C-1", "A", destinations, CREATOR)
            registry.open_stage_proposal("C-1", "A", 1, implicit_approve=False)
            chains = ("A",) + destinations
            result = None
            for chain, vote in zip(chains, vector):
                result = registry.process_stage_vote("C-1", chain, 1, 1, vote, "r")
            expect_advance = all(v == VOTE_APPROVE for v in vector)
            assert (result.outcome is StageOutcome.ADVANCED) == expect_advance, vector
            assert (registry.cases["C-1"].current_stage == 1) == expect_advance


def test_vote_arrival_order_is_irrelevant():
    outcomes = []
    for order in (("B", "C"), ("C", "B")):
        registry = registry_with_case(destinations=("B", "C"))
        registry.open_stage_proposal("C-1", "A", 1)
        votes = {"B": VOTE_REJECT, "C": VOTE_APPROVE}
        result = None
        for chain in order:
            result = registry.process_stage_vote("C-1", chain, 1, 1, votes[chain], "x")
        outcomes.append((result.outcome, result.reasons))
    assert outcomes[0] == outcomes[1]


def test_snapshot_is_deterministic_and_json_ready():
    import json

    registry = registry_with_case(destinations=("B", "C"))
    registry.record_stage_hash("C-1", "A", 0, hash_bytes(b"t"))
    registry.assign_query_nodes("C-1", "B", (hash_bytes(b"q"),))
    snap1 = json.dumps(registry.snapshot(), sort_keys=True)
    snap2 = json.dumps(registry.snapshot(), sort_keys=True)
    assert snap1 == snap2
    parsed = json.loads(snap1)
    assert parsed["cases"]["C-1"]["current_stage"] == 0
