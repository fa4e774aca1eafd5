from itertools import product

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

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
from forensicross.lifecycle import OrgChainState
from forensicross.payloads import VOTE_APPROVE, VOTE_REJECT
from forensicross.registry import BridgeRegistry, StageOutcome
from forensicross.scenario import BRIDGE_CHAIN_ID
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


# each side's creation call: the bridge's registry and a chain's replica
CREATE = {
    "registry": lambda: BridgeRegistry().register_case,
    "replica": lambda: OrgChainState("A").apply_case_create,
}


@pytest.mark.parametrize("side", sorted(CREATE))
def test_register_case_twice_is_duplicate(side):
    create = CREATE[side]()
    first = create("C-1", "A", ("B",), CREATOR)
    with pytest.raises(DuplicateCase):
        create("C-1", "A", ("C",), CREATOR)
    assert first.destination_chains == ("B",)


@pytest.mark.parametrize("side", sorted(CREATE))
def test_register_case_requires_destinations(side):
    with pytest.raises(NoDestinations):
        CREATE[side]()("C-2", "A", (), CREATOR)


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


NUMBERS = ("C-1", "C-2")  # few, so that creations often repeat a number


class CaseReplicas(RuleBasedStateMachine):
    """One registry and k replicas, as the bridge design connects them. A
    creation is applied by its source's replica and sent to the bridge; the
    bridge sends an accepted creation to its destinations and an advance to
    every participant. Creations, proposals, votes and deliveries come in
    any order, and a delivery may be lost."""

    @initialize(k=st.sampled_from([2, 3]))
    def build(self, k):
        self.chains = ("A", "B", "C")[:k]
        self.registry = BridgeRegistry(stage_count=3)
        self.replicas = {chain: OrgChainState(chain) for chain in self.chains}
        self.pending = []  # (target chain, creation arguments or (number, stage))
        self.lost = set()  # (target chain, case number) of each lost delivery
        # C-1 starts on every side, so that a short run reaches its votes
        self._create_at("A", ("C-1", "A", self.chains[1:], b"A"))
        self.deliver_all()

    @staticmethod
    def _create(cases, create, args) -> bool:
        """A side refuses exactly the numbers it holds, and keeps what it holds."""
        held = cases.get(args[0])
        if held is None:
            create(*args)
            return True
        with pytest.raises(DuplicateCase):
            create(*args)
        assert cases[args[0]] is held
        return False

    def _deliver(self, index: int) -> None:
        target, args = self.pending.pop(index)
        if target == BRIDGE_CHAIN_ID:
            if self._create(self.registry.cases, self.registry.register_case, args):
                self.pending += [(chain, args) for chain in args[2]]
            return
        replica = self.replicas[target]
        if len(args) == 4:
            self._create(replica.cases, replica.apply_case_create, args)
            return
        try:
            replica.apply_stage_advance(*args)
        except UnknownCase:
            self.lost.add((target, args[0]))  # the advance outran the creation

    @rule(data=st.data(), number=st.sampled_from(NUMBERS))
    def create(self, data, number):
        source = data.draw(st.sampled_from(self.chains))
        others = [chain for chain in self.chains if chain != source]
        destinations = data.draw(st.lists(st.sampled_from(others), min_size=1, unique=True))
        self._create_at(source, (number, source, tuple(destinations), source.encode()))

    def _create_at(self, source: str, args) -> None:
        replica = self.replicas[source]
        self._create(replica.cases, replica.apply_case_create, args)
        self.pending.append((BRIDGE_CHAIN_ID, args))

    @staticmethod
    def _voting(case) -> bool:
        return bool(case.rounds) and not case.rounds[-1].closed

    def _open(self) -> list:
        return [c for c in self.registry.cases.values() if self._voting(c)]

    def _proposable(self) -> list:
        return [
            c for c in self.registry.cases.values()
            if not self._voting(c) and c.current_stage < c.stage_count
        ]

    @precondition(lambda self: self._proposable())
    @rule(data=st.data())
    def propose(self, data):
        case = data.draw(st.sampled_from(self._proposable()))
        chain = data.draw(st.sampled_from(case.participants))
        self.registry.open_stage_proposal(case.case_number, chain, case.current_stage + 1)

    @precondition(lambda self: self._open())
    @rule(data=st.data(), vote=st.sampled_from([VOTE_APPROVE, VOTE_APPROVE, VOTE_REJECT]))
    def vote(self, data, vote):
        case = data.draw(st.sampled_from(self._open()))
        last = case.rounds[-1]
        chain = data.draw(st.sampled_from([c for c in case.participants if c not in last.votes]))
        result = self.registry.process_stage_vote(
            case.case_number, chain, last.stage, last.round, vote
        )
        if result.outcome is StageOutcome.ADVANCED:
            self.pending += [(c, (case.case_number, result.stage)) for c in case.participants]

    @precondition(lambda self: self.pending)
    @rule(data=st.data())
    def deliver(self, data):
        self._deliver(-1 - data.draw(st.integers(0, len(self.pending) - 1)))  # shrinks to the newest

    @precondition(lambda self: self.pending)
    @rule(data=st.data())
    def lose(self, data):
        target, args = self.pending.pop(data.draw(st.integers(0, len(self.pending) - 1)))
        self.lost.add((target, args[0]))

    @precondition(lambda self: self.pending)
    @rule()
    def deliver_all(self):
        while self.pending:
            self._deliver(0)

    @invariant()
    def no_replica_passes_the_registry(self):
        for replica in self.replicas.values():
            for number, case in replica.cases.items():
                contract = self.registry.cases.get(number)
                assert case.stage <= (contract.current_stage if contract else 0)

    @invariant()
    def at_rest_with_nothing_lost_the_stages_are_equal(self):
        if self.pending:
            return
        for number, contract in self.registry.cases.items():
            reached = [c for c in contract.participants if (c, number) not in self.lost]
            for chain in reached:
                assert self.replicas[chain].require_case(number).stage == contract.current_stage


def test_the_registry_and_every_replica_agree_on_each_case():
    run_state_machine_as_test(
        CaseReplicas,
        settings=settings(max_examples=60, stateful_step_count=40, deadline=None),
    )
