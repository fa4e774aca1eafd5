import random
from dataclasses import replace
from itertools import combinations_with_replacement, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forensicross import comm
from forensicross.chain import PayloadKind, Transaction, make_transaction
from forensicross.comm import (
    DeliveryReport,
    Hop,
    HopOrigin,
    LedgerEntry,
    MutualNodeSet,
    NotMutualNode,
    TranslatedEnvelope,
    VerificationContract,
    VerifyStatus,
    hop_origin,
    translate,
    verify_translations,
)
from forensicross.crypto import KeyPair, sign
from forensicross.errors import (
    EmptyDestinations,
    ForensicrossError,
    InvalidDestinations,
    UnexpectedKind,
)
from forensicross.scenario import FAULT_COMPROMISE, RULE_DROP, RULE_EQUIVOCATE, FaultSpec
from forensicross.payloads import CaseCreatePayload, DataAccessLogPayload, payload_transaction
from forensicross.sim import (
    BRIDGE_CHAIN_ID,
    World,
    flip_last_byte,
    make_comparison_scenario,
    route_transaction,
    run_scenario,
)
from forensicross.topology import Design
from oracles import majority_status

MSET = MutualNodeSet("A", ("n0", "n1", "n2"))
KEYS = {name: KeyPair.derive("comm", name) for name in MSET.members}
USER = KeyPair.derive("comm-user")


def origin_tx(body: bytes = b"case-data") -> Transaction:
    tx = make_transaction(PayloadKind.CASE_CREATE, body, "A", ["B"], USER)
    return replace(tx, tx_id="A:1")


def test_mutual_set_rejects_small_or_even_sizes():
    with pytest.raises(ValueError):
        MutualNodeSet("A", ("x", "y"))
    with pytest.raises(ValueError):
        MutualNodeSet("A", ("w", "x", "y", "z"))


def test_mutual_set_rejects_a_repeated_member():
    with pytest.raises(ValueError, match="distinct"):
        MutualNodeSet("A", ("x", "y", "x"))


def test_two_honest_translators_agree_byte_for_byte():
    tx = origin_tx()
    e0 = translate(hop_origin(tx), "n0", MSET, KEYS["n0"])
    e1 = translate(hop_origin(tx), "n1", MSET, KEYS["n1"])
    # the origin is carried whole, its signature included
    assert e0.canonical_body == e1.canonical_body == tx.canonical_bytes()


def test_compromised_translator_differs_from_honest():
    tx = origin_tx()
    honest = translate(hop_origin(tx), "n0", MSET, KEYS["n0"])
    bad = translate(hop_origin(tx), "n1", MSET, KEYS["n1"], corrupt=flip_last_byte)
    assert bad.canonical_body != honest.canonical_body


def test_translate_given_the_hops_origin_matches_translate_given_the_transaction():
    origin = origin_tx()
    record = make_transaction(
        PayloadKind.INTERCHAIN_ENVELOPE, origin.canonical_bytes(), BRIDGE_CHAIN_ID,
        ["B"], KeyPair.derive("comm-bridge-contract"),
    )
    # a forwarded envelope record routes the origin it embeds, so every
    # translator of either hop signs the same envelope
    assert hop_origin(record) == hop_origin(origin) == HopOrigin(
        "A:1", "A", origin.canonical_bytes(), ("B",)
    )
    for node in MSET.members:
        for corrupt in (None, flip_last_byte):
            assert translate(
                hop_origin(record), node, MSET, KEYS[node], corrupt
            ) == translate(hop_origin(origin), node, MSET, KEYS[node], corrupt)


def test_translate_outside_set_is_an_error():
    with pytest.raises(NotMutualNode):
        translate(hop_origin(origin_tx()), "intruder", MSET, KeyPair.derive("intruder"))


def _entry(expected: int, bodies: list[bytes]) -> LedgerEntry:
    entry = LedgerEntry(origin_tx_id="A:1", expected=expected)
    for i, body in enumerate(bodies):
        entry.submissions[f"node{i}"] = TranslatedEnvelope(
            "A:1", "A", ("B",), body, f"node{i}", b""
        )
    return entry


def test_majority_of_five_with_three_identical_validates():
    # three matching submissions out of five expected: strictly more than half
    status = verify_translations(_entry(5, [b"X", b"X", b"X", b"Y", b"Z"]))
    assert status is VerifyStatus.VALIDATED


def test_unanimous_three_validates():
    assert verify_translations(_entry(3, [b"X", b"X", b"X"])) is VerifyStatus.VALIDATED


def test_split_2_2_1_rejects():
    status = verify_translations(_entry(5, [b"A", b"A", b"B", b"B", b"C"]))
    assert status is VerifyStatus.REJECTED


def test_majority_soundness_against_bruteforce_counter():
    bodies = [b"A", b"B", b"C"]
    for expected in (3, 5, 7, 9):
        for total in range(0, expected + 1):
            for combo in combinations_with_replacement(range(3), total):
                submitted = [bodies[i] for i in combo]
                status = verify_translations(_entry(expected, submitted))
                assert status.value == majority_status(expected, submitted), (
                    expected, submitted,
                )


def test_duplicate_submission_is_ignored_and_recorded():
    contract = VerificationContract("BRIDGE", lambda node: KEYS[node].public_key)
    tx = origin_tx()
    first = translate(hop_origin(tx), "n0", MSET, KEYS["n0"])
    entry, resolved, dup = contract.receive(first, MSET, tick=1)
    assert (resolved, dup) == (False, False) and entry.status is VerifyStatus.PENDING
    entry2, resolved2, dup2 = contract.receive(first, MSET, tick=2)
    assert (resolved2, dup2) == (False, True) and entry2 is entry
    assert entry.status is VerifyStatus.PENDING
    assert entry.duplicate_nodes == ["n0"]
    assert len(entry.submissions) == 1


def test_forged_translator_signature_is_not_counted():
    contract = VerificationContract("BRIDGE", lambda node: KEYS[node].public_key)
    tx = origin_tx()
    envelope = translate(hop_origin(tx), "n0", MSET, KEYS["n0"])
    forged = replace(envelope, canonical_body=envelope.canonical_body + b"!")
    entry, _resolved, dup = contract.receive(forged, MSET, tick=1)
    assert not dup and len(entry.submissions) == 0


def test_rejected_entry_stays_rejected():
    contract = VerificationContract("BRIDGE", lambda node: KEYS[node].public_key)
    tx = origin_tx()
    for i, node in enumerate(MSET.members):
        body_tweak = (lambda b, i=i: b + bytes([i]))  # three divergent bodies
        envelope = translate(hop_origin(tx), node, MSET, KEYS[node], corrupt=body_tweak)
        entry, resolved, _ = contract.receive(envelope, MSET, tick=i)
    assert resolved and entry.status is VerifyStatus.REJECTED
    late = translate(hop_origin(tx), "n0", MSET, KEYS["n0"])
    entry, resolved, dup = contract.receive(late, MSET, tick=9)
    assert dup and not resolved  # n0 already counted; outcome unchanged
    assert entry.status is VerifyStatus.REJECTED


# -- routed pipeline ----------------------------------------------------------


def _world(k: int = 2, design: Design = Design.BRIDGE, faults=(), n_i: int = 3) -> World:
    scenario = make_comparison_scenario(k, design, "single")
    scenario = replace(
        scenario,
        workload=(),
        faults=tuple(faults),
        mutual_per_chain=n_i,
        nodes_per_chain=max(scenario.nodes_per_chain, 2 * n_i + 1),
        bridge_nodes=max(scenario.bridge_nodes, 2 * k * n_i + 1),
        bridge_mutual=k * n_i,
    )
    return World(scenario)


def _case_tx(world: World) -> Transaction:
    user_key = world.users["creator"][1]
    return payload_transaction(CaseCreatePayload("C-9"), "A", user_key, ("B",))


def test_route_honest_single_destination_has_two_verification_events():
    world = _world()
    report = route_transaction(_case_tx(world), world)
    assert report.verification_events == 2
    assert [h.hop for h in report.hops] == [
        "mutual-receipt", "bridge-verify", "destination-verify",
    ]
    assert report.status == "delivered"
    assert report.duration == 2


def test_route_with_minority_compromised_still_validates_honest_body():
    faults = [
        FaultSpec(tick=0, kind=FAULT_COMPROMISE, node="A.m0", rule=RULE_EQUIVOCATE),
    ]
    world = _world(faults=faults)
    report = route_transaction(_case_tx(world), world)
    assert report.status == "delivered"
    assert report.winning_is_honest is True


def test_route_with_colluding_majority_validates_malicious_body():
    # documented failure bound: strictly more than half the translators lie
    faults = [
        FaultSpec(tick=0, kind=FAULT_COMPROMISE, node="A.m0", rule=RULE_EQUIVOCATE),
        FaultSpec(tick=0, kind=FAULT_COMPROMISE, node="A.m1", rule=RULE_EQUIVOCATE),
    ]
    world = _world(faults=faults)
    report = route_transaction(_case_tx(world), world)
    assert report.status == "validated-malicious"
    assert report.winning_is_honest is False


def test_end_to_end_destination_stores_origin_translation_byte_for_byte():
    world = _world()
    tx = _case_tx(world)
    accepted = world.inject_transaction(tx)
    world.run()
    expected_body = hop_origin(accepted).body
    stored = [
        t
        for block in world.chains["B"].blocks
        for t in block.transactions
        if t.payload_kind is PayloadKind.INTERCHAIN_ENVELOPE
    ]
    assert len(stored) == 1
    assert stored[0].body == expected_body
    embedded = Transaction.from_canonical(stored[0].body)
    assert embedded.tx_id == accepted.tx_id
    assert embedded.signature == accepted.signature  # original signature retained


def test_safety_bound_sweep_small():
    rng = random.Random(0)
    for n_i in (3, 5):
        for compromised in range(n_i + 1):
            nodes = [f"A.m{i}" for i in range(n_i)]
            picked = rng.sample(nodes, compromised)
            faults = [
                FaultSpec(tick=0, kind=FAULT_COMPROMISE, node=n, rule=RULE_EQUIVOCATE)
                for n in picked
            ]
            world = _world(faults=faults, n_i=n_i)
            report = route_transaction(_case_tx(world), world)
            malicious_won = report.status == "validated-malicious"
            assert malicious_won == (compromised > n_i / 2), (n_i, compromised)


def test_a_hop_whose_every_envelope_is_dropped_expires_once():
    scenario = make_comparison_scenario(2, Design.BRIDGE)
    drops = tuple(
        FaultSpec(tick=0, kind=FAULT_COMPROMISE, node=node, rule=RULE_DROP)
        for node in ("A.m0", "A.m1", "A.m2")
    )
    world = run_scenario(replace(scenario, faults=drops))
    expired = [e for e in world.events if e["event"] == "envelope_expired"]
    assert len(expired) == 1
    origin_id = expired[0]["origin_tx"]
    assert expired[0]["chain"] == BRIDGE_CHAIN_ID
    assert world.reports[origin_id].status == "expired"
    # the contract holds the outcome even though no envelope reached it
    entry = world.contracts[BRIDGE_CHAIN_ID].entries[origin_id]
    assert entry.status is VerifyStatus.EXPIRED and not entry.submissions
    assert world.conservation()["entries_unresolved"] == 0


@pytest.mark.parametrize("design", [Design.MESH, Design.BRIDGE], ids=lambda d: d.value)
@pytest.mark.parametrize("destinations", [("A", "C"), ("B", "B"), ("Z",)])
def test_route_refuses_destinations_that_are_not_other_chains_each_once(design, destinations):
    # a mesh hop from A to A has no mutual set, and a bridge case naming a
    # chain twice waits for a second vote that chain cannot cast
    world = _world(k=3, design=design)
    user_key = world.users["creator"][1]
    tx = payload_transaction(CaseCreatePayload("C-9"), "A", user_key, destinations)
    with pytest.raises(InvalidDestinations):
        route_transaction(tx, world)
    assert not world.chains["A"].pending_pool and not world.events


@pytest.mark.parametrize("design", [Design.MESH, Design.BRIDGE], ids=lambda d: d.value)
def test_a_built_scenario_naming_its_own_chain_is_an_action_error(design):
    # the loader refuses these rows; a scenario built in code reaches World
    scenario = make_comparison_scenario(3, design)
    row = replace(scenario.workload[0], destinations=("A", "C"))
    world = run_scenario(replace(scenario, workload=(row,)))
    errors = [e["error"] for e in world.events if e["event"] == "action_error"]
    assert errors == ["InvalidDestinations"] and not world.reports


def _access_log_tx(world: World) -> Transaction:
    user_key = world.users["creator"][1]
    payload = DataAccessLogPayload(
        "C-9", user_key.public_key, "investigator", "read", 0, "Denied", bytes(32)
    )
    return payload_transaction(payload, "A", user_key, ("B",))


def _envelope_tx(world: World) -> Transaction:
    body = _case_tx(world).canonical_bytes()
    return make_transaction(PayloadKind.INTERCHAIN_ENVELOPE, body, "A", ("B",), world.users["creator"][1])


def _undirected_case_tx(world: World) -> Transaction:
    return payload_transaction(CaseCreatePayload("C-9"), "A", world.users["creator"][1], ())


@pytest.mark.parametrize("design,build,error", [
    pytest.param(Design.MESH, _access_log_tx, UnexpectedKind, id="mesh-access-log"),
    pytest.param(Design.BRIDGE, _access_log_tx, UnexpectedKind, id="bridge-access-log"),
    pytest.param(Design.MESH, _envelope_tx, UnexpectedKind, id="mesh-envelope"),
    pytest.param(Design.BRIDGE, _envelope_tx, UnexpectedKind, id="bridge-envelope"),
    pytest.param(Design.MESH, _undirected_case_tx, EmptyDestinations, id="mesh-no-destination"),
])
def test_route_refuses_a_transaction_its_source_keeps_to_itself(design, build, error):
    world = _world(design=design)
    with pytest.raises(error):
        route_transaction(build(world), world)
    assert not world.chains["A"].pending_pool and not world.events


def test_a_bridge_route_with_no_destination_is_refused_by_the_registry():
    # the bridge is every organization chain's next hop
    world = _world(design=Design.BRIDGE)
    assert route_transaction(_undirected_case_tx(world), world).status == "registry-rejected"


def test_route_refuses_a_source_that_is_not_a_chain_of_the_world():
    world = _world(design=Design.MESH)
    user_key = world.users["creator"][1]
    tx = payload_transaction(CaseCreatePayload("C-9"), "Z", user_key, ("B",))
    with pytest.raises(ForensicrossError):
        route_transaction(tx, world)
    assert not world.events


# -- a report read from its hops ----------------------------------------------

REFUSALS = ("rejected", "expired", "validated-malicious", "registry-rejected")


def _report(destinations: tuple[str, ...], *hops: tuple[str, str, int, str]) -> DeliveryReport:
    """A report with a mutual receipt on A at tick 0, then one verify hop per
    (hop, chain, tick, status) row."""
    report = DeliveryReport("A:1", "CaseCreate", "A", destinations)
    report.hops = [Hop("mutual-receipt", "A", 0, 0, "ok")]
    report.hops += [Hop(hop, chain, tick, 3, status) for hop, chain, tick, status in hops]
    return report


@pytest.mark.parametrize("destinations", [("B", "C", "D"), ()], ids=["case", "stage-proposal"])
@pytest.mark.parametrize("refusal", REFUSALS)
def test_one_refusal_among_validated_hops_is_final_in_every_order(destinations, refusal):
    rows = [
        ("destination-verify", "B", 0, "validated"),
        ("destination-verify", "C", 0, "validated"),
        ("destination-verify", "D", 0, refusal),
    ]
    for order in permutations(rows):
        hops = [(hop, chain, tick, status) for tick, (hop, chain, _t, status) in enumerate(order, 1)]
        assert _report(destinations, *hops).status == refusal, order


@pytest.mark.parametrize("first,last", list(permutations(REFUSALS, 2)))
def test_the_last_of_two_refusals_names_the_status(first, last):
    report = _report(
        ("B", "C", "D"),
        ("destination-verify", "B", 1, first),
        ("destination-verify", "C", 2, "validated"),
        ("destination-verify", "D", 3, last),
    )
    assert report.status == last


def test_a_forwarded_hop_gives_no_accepted_tick():
    report = _report(("B",), ("bridge-verify", "BRIDGE", 1, "forwarded"))
    assert (report.accepted_ticks, report.duration, report.status) == ({}, None, "pending")
    report.hops.append(Hop("destination-verify", "B", 2, 3, "validated"))
    assert (report.accepted_ticks, report.duration, report.status) == ({"B": 2}, 2, "delivered")


def test_a_bridge_verify_hop_that_validates_delivers():
    report = _report(("B",), ("bridge-verify", "BRIDGE", 1, "validated"))
    assert report.status == "delivered" and report.accepted_ticks == {"BRIDGE": 1}


def test_a_report_with_no_destinations_is_delivered_by_its_first_validated_one():
    # a stage proposal names no destinations; the bridge picks the chains
    report = _report((), ("bridge-verify", "BRIDGE", 1, "forwarded"))
    assert report.status == "pending"
    report.hops.append(Hop("destination-verify", "B", 2, 3, "validated"))
    assert report.status == "delivered"
    report.hops.append(Hop("destination-verify", "C", 3, 3, "validated"))
    assert report.status == "delivered" and report.duration == 3


def test_every_destination_must_validate_before_delivery():
    report = _report(("B", "C"), ("destination-verify", "B", 1, "validated"))
    assert report.status == "pending"
    report.hops.append(Hop("destination-verify", "C", 4, 3, "validated"))
    assert report.status == "delivered" and report.duration == 4


@pytest.mark.parametrize("statuses,honest,duration", [
    ((), None, None),
    (("expired",), None, None),
    (("rejected",), None, None),
    (("forwarded",), True, None),
    (("forwarded", "registry-rejected"), True, 2),
    (("forwarded", "validated", "rejected"), True, 2),
    (("validated", "validated-malicious"), False, 2),
    (("validated-malicious", "validated"), False, 2),
    (("validated-malicious", "expired"), False, 1),
])
def test_honesty_and_duration_follow_from_the_hops(statuses, honest, duration):
    report = _report(
        ("B", "C", "D"),
        *(("destination-verify", chain, tick, status)
          for tick, (chain, status) in enumerate(zip("BCD", statuses), 1)),
    )
    assert report.mutual_receipt_tick == 0
    assert (report.winning_is_honest, report.duration) == (honest, duration)


# -- check order in receive ---------------------------------------------------


def _validated_contract() -> tuple[VerificationContract, Transaction]:
    """A contract whose entry for origin_tx() was validated by n0 and n1."""
    contract = VerificationContract("BRIDGE", lambda node: KEYS[node].public_key)
    tx = origin_tx()
    for tick, node in enumerate(("n0", "n1")):
        envelope = translate(hop_origin(tx), node, MSET, KEYS[node])
        entry, resolved, _dup = contract.receive(envelope, MSET, tick=tick)
    assert resolved and entry.status is VerifyStatus.VALIDATED
    return contract, tx


def _count_verify_calls(monkeypatch) -> list[int]:
    calls = [0]
    real_verify = comm.verify

    def counting_verify(*args):
        calls[0] += 1
        return real_verify(*args)

    monkeypatch.setattr(comm, "verify", counting_verify)
    return calls


def _unknown_envelope(tx: Transaction, node: str = "intruder") -> TranslatedEnvelope:
    envelope = TranslatedEnvelope(
        tx.tx_id, tx.source_chain, tx.destination_chains,
        hop_origin(tx).body, node, b"",
    )
    key = KeyPair.derive("unknown", node)
    return replace(envelope, translator_signature=sign(envelope.attested_bytes(), key))


def test_receive_on_resolved_entry_never_verifies(monkeypatch):
    contract, tx = _validated_contract()
    calls = _count_verify_calls(monkeypatch)
    late = translate(hop_origin(tx), "n2", MSET, KEYS["n2"])
    forged = replace(late, canonical_body=late.canonical_body + b"!")
    for envelope in (late, forged):
        entry, resolved, dup = contract.receive(envelope, MSET, tick=5)
        assert (resolved, dup) == (False, False)
        assert entry.status is VerifyStatus.VALIDATED
        assert sorted(entry.submissions) == ["n0", "n1"]
    assert calls[0] == 0


def test_late_envelope_on_expired_entry_is_not_verified_or_counted(monkeypatch):
    contract = VerificationContract("BRIDGE", lambda node: KEYS[node].public_key)
    tx = origin_tx()
    origin = hop_origin(tx)
    entry, _resolved, _dup = contract.receive(translate(origin, "n0", MSET, KEYS["n0"]), MSET, tick=0)
    entry.status, entry.resolved_tick = VerifyStatus.EXPIRED, 5  # as World._check_timeout does
    calls = _count_verify_calls(monkeypatch)
    entry, resolved, dup = contract.receive(translate(origin, "n1", MSET, KEYS["n1"]), MSET, tick=6)
    assert (resolved, dup) == (False, False)
    assert entry.status is VerifyStatus.EXPIRED and entry.resolved_tick == 5
    assert list(entry.submissions) == ["n0"]
    assert calls[0] == 0


def test_forged_envelope_on_pending_entry_is_verified_and_not_counted(monkeypatch):
    contract = VerificationContract("BRIDGE", lambda node: KEYS[node].public_key)
    tx = origin_tx()
    contract.receive(translate(hop_origin(tx), "n0", MSET, KEYS["n0"]), MSET, tick=0)
    calls = _count_verify_calls(monkeypatch)
    honest = translate(hop_origin(tx), "n1", MSET, KEYS["n1"])
    forged = replace(honest, translator_signature=sign(honest.attested_bytes(), KEYS["n2"]))
    entry, resolved, dup = contract.receive(forged, MSET, tick=1)
    assert calls[0] == 1
    assert (resolved, dup) == (False, False) and entry.status is VerifyStatus.PENDING
    assert list(entry.submissions) == ["n0"]


def test_unknown_translator_is_not_counted_on_pending_entry():
    contract = VerificationContract("BRIDGE", lambda node: KEYS[node].public_key)
    tx = origin_tx()
    contract.receive(translate(hop_origin(tx), "n0", MSET, KEYS["n0"]), MSET, tick=0)
    entry, resolved, dup = contract.receive(_unknown_envelope(tx), MSET, tick=1)
    assert (resolved, dup) == (False, False) and entry.status is VerifyStatus.PENDING
    assert list(entry.submissions) == ["n0"]


def test_unknown_translator_is_not_counted_on_resolved_entry():
    contract, tx = _validated_contract()
    entry, resolved, dup = contract.receive(_unknown_envelope(tx), MSET, tick=5)
    assert (resolved, dup) == (False, False) and entry.status is VerifyStatus.VALIDATED
    assert sorted(entry.submissions) == ["n0", "n1"]


def test_world_contract_fails_closed_on_unknown_translator():
    world = _world()
    contract = world.contracts[BRIDGE_CHAIN_ID]
    tx = origin_tx()
    mset = world.links[("A", BRIDGE_CHAIN_ID)]
    entry, resolved, dup = contract.receive(_unknown_envelope(tx), mset, tick=0)
    assert (resolved, dup) == (False, False) and entry.status is VerifyStatus.PENDING
    members = mset.members
    for tick, node in enumerate(members[:2], start=1):
        envelope = translate(hop_origin(tx), node, mset, world._node_key(node))
        entry, resolved, _dup = contract.receive(envelope, mset, tick=tick)
    assert resolved and entry.status is VerifyStatus.VALIDATED
    entry, resolved, dup = contract.receive(_unknown_envelope(tx, "ghost"), mset, tick=9)
    assert (resolved, dup) == (False, False) and entry.status is VerifyStatus.VALIDATED
    assert sorted(entry.submissions) == sorted(members[:2])


@pytest.mark.parametrize("design, target, their_link, outsiders", [
    (Design.MESH, "B", ("A", "C"), ("A~C.m0", "A~C.m1")),
    (Design.BRIDGE, BRIDGE_CHAIN_ID, ("C", BRIDGE_CHAIN_ID), ("C.m0", "C.m1")),
], ids=["mesh", "bridge"])
def test_translators_of_another_link_never_make_a_majority(design, target, their_link, outsiders):
    # two compromised nodes of another link, a minority there, sign a
    # corrupt body of an origin from A under a fresh ledger key
    world = World(make_comparison_scenario(3, design))
    contract = world.contracts[target]
    origin = hop_origin(replace(_case_tx(world), tx_id="A:99"))
    corrupt = replace(origin, body=flip_last_byte(origin.body))
    arrival = world.links[("A", target)]
    for tick, node in enumerate(outsiders):
        envelope = translate(corrupt, node, world.links[their_link], world._node_key(node))
        entry, resolved, dup = contract.receive(envelope, arrival, tick=tick)
        assert (resolved, dup) == (False, False) and entry.status is VerifyStatus.PENDING
        assert entry.submissions == {}
    # the link's own members still decide the entry
    for tick, node in enumerate(arrival.members[:2], start=len(outsiders)):
        envelope = translate(origin, node, arrival, world._node_key(node))
        entry, resolved, _dup = contract.receive(envelope, arrival, tick=tick)
    assert resolved and entry.status is VerifyStatus.VALIDATED
    assert entry.winning_body == origin.body


# -- generated envelope sequences ---------------------------------------------

UNKNOWN = "ghost"
ENVELOPE_KINDS = ("honest", "corrupted", "forged", "unknown")


def _generated_envelope(tx, node, kind, variant, mset, keys) -> TranslatedEnvelope:
    if kind == "unknown":
        return _unknown_envelope(tx, UNKNOWN)
    honest = translate(hop_origin(tx), node, mset, keys[node])
    if kind == "honest":
        return honest
    corrupted = honest.canonical_body + bytes([variant])
    if kind == "forged":
        # the honest body's signature, carried on a different body
        return replace(honest, canonical_body=corrupted)
    return translate(hop_origin(tx), node, mset, keys[node], corrupt=lambda _body: corrupted)


@settings(max_examples=60, deadline=None)
@given(
    expected=st.sampled_from([3, 5, 7]),
    steps=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=6),
            st.sampled_from(ENVELOPE_KINDS),
            st.integers(min_value=0, max_value=1),
        ),
        max_size=14,
    ),
)
def test_receive_matches_majority_oracle_on_generated_sequences(expected, steps):
    members = tuple(f"n{i}" for i in range(expected))
    mset = MutualNodeSet("A", members)
    keys = {node: KeyPair.derive("prop", node) for node in members}
    contract = VerificationContract("BRIDGE", lambda node: keys[node].public_key)
    tx = origin_tx()
    counted: dict[str, bytes] = {}  # first validly signed envelope per node
    outcome = None
    resolving_calls = 0
    for tick, (index, kind, variant) in enumerate(steps):
        node = members[index % expected]
        envelope = _generated_envelope(tx, node, kind, variant, mset, keys)
        is_duplicate = kind != "unknown" and node in counted
        if outcome is None and kind in ("honest", "corrupted") and not is_duplicate:
            counted[node] = envelope.canonical_body
        entry, resolved, dup = contract.receive(envelope, mset, tick=tick)
        assert dup == is_duplicate
        status = entry.status
        assert status.value == majority_status(expected, list(counted.values()))
        # only the call that takes the entry out of Pending resolves it
        resolving_calls += resolved
        assert resolved == (outcome is None and status is not VerifyStatus.PENDING)
        if outcome is not None:
            assert status is outcome
        elif resolved:
            outcome = status
            assert entry.resolved_tick == tick
    assert resolving_calls <= 1
