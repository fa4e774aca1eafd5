import random
from dataclasses import replace
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forensicross import comm
from forensicross.chain import PayloadKind, Transaction, make_transaction
from forensicross.comm import (
    HopOrigin,
    LedgerEntry,
    MutualNodeSet,
    NotMutualNode,
    TranslatedEnvelope,
    VerificationContract,
    VerifyStatus,
    canonical_translation,
    hop_origin,
    translate,
    verify_translations,
)
from forensicross.crypto import KeyPair, sign
from forensicross.scenario import FAULT_COMPROMISE, FaultSpec, RULE_EQUIVOCATE
from forensicross.payloads import CaseCreatePayload, payload_transaction
from forensicross.sim import (
    BRIDGE_CHAIN_ID,
    World,
    flip_last_byte,
    make_comparison_scenario,
    route_transaction,
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


def test_two_honest_translators_agree_byte_for_byte():
    tx = origin_tx()
    e0 = translate(tx, "n0", MSET, KEYS["n0"])
    e1 = translate(tx, "n1", MSET, KEYS["n1"])
    assert e0.canonical_body == e1.canonical_body == canonical_translation(tx)


def test_compromised_translator_differs_from_honest():
    tx = origin_tx()
    honest = translate(tx, "n0", MSET, KEYS["n0"])
    bad = translate(tx, "n1", MSET, KEYS["n1"], corrupt=flip_last_byte)
    assert bad.canonical_body != honest.canonical_body


def test_translate_given_the_hops_origin_matches_translate_given_the_transaction():
    origin = origin_tx()
    record = make_transaction(
        PayloadKind.INTERCHAIN_ENVELOPE, origin.canonical_bytes(), BRIDGE_CHAIN_ID,
        ["B"], KeyPair.derive("comm-bridge-contract"),
    )
    # a forwarded envelope record routes the origin it embeds
    assert hop_origin(record) == hop_origin(origin) == HopOrigin(
        "A:1", "A", origin.canonical_bytes()
    )
    for tx in (origin, record):
        precomputed = hop_origin(tx)
        for node in MSET.members:
            for corrupt in (None, flip_last_byte):
                assert translate(
                    tx, node, MSET, KEYS[node], corrupt, precomputed
                ) == translate(tx, node, MSET, KEYS[node], corrupt)


def test_translate_outside_set_is_an_error():
    with pytest.raises(NotMutualNode):
        translate(origin_tx(), "intruder", MSET, KeyPair.derive("intruder"))


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
    first = translate(tx, "n0", MSET, KEYS["n0"])
    entry, status, dup = contract.receive(first, expected=3, tick=1)
    assert not dup and status is VerifyStatus.PENDING
    entry2, status2, dup2 = contract.receive(first, expected=3, tick=2)
    assert dup2 and entry2 is entry and status2 is VerifyStatus.PENDING
    assert entry.duplicate_nodes == ["n0"]
    assert len(entry.submissions) == 1


def test_forged_translator_signature_is_not_counted():
    contract = VerificationContract("BRIDGE", lambda node: KEYS[node].public_key)
    tx = origin_tx()
    envelope = translate(tx, "n0", MSET, KEYS["n0"])
    forged = replace(envelope, canonical_body=envelope.canonical_body + b"!")
    entry, _status, dup = contract.receive(forged, expected=3, tick=1)
    assert not dup and len(entry.submissions) == 0


def test_rejected_entry_stays_rejected():
    contract = VerificationContract("BRIDGE", lambda node: KEYS[node].public_key)
    tx = origin_tx()
    for i, node in enumerate(MSET.members):
        body_tweak = (lambda b, i=i: b + bytes([i]))  # three divergent bodies
        envelope = translate(tx, node, MSET, KEYS[node], corrupt=body_tweak)
        entry, status, _ = contract.receive(envelope, expected=3, tick=i)
    assert status is VerifyStatus.REJECTED
    late = translate(tx, "n0", MSET, KEYS["n0"])
    entry, status, dup = contract.receive(late, expected=3, tick=9)
    assert dup  # n0 already counted; outcome unchanged
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
    expected_body = canonical_translation(accepted)
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


# -- check order in receive ---------------------------------------------------


def _validated_contract() -> tuple[VerificationContract, Transaction]:
    """A contract whose entry for origin_tx() was validated by n0 and n1."""
    contract = VerificationContract("BRIDGE", lambda node: KEYS[node].public_key)
    tx = origin_tx()
    for tick, node in enumerate(("n0", "n1")):
        envelope = translate(tx, node, MSET, KEYS[node])
        _entry, status, _dup = contract.receive(envelope, expected=3, tick=tick)
    assert status is VerifyStatus.VALIDATED
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
        canonical_translation(tx), node, b"",
    )
    key = KeyPair.derive("unknown", node)
    return replace(envelope, translator_signature=sign(envelope.attested_bytes(), key))


def test_receive_on_resolved_entry_never_verifies(monkeypatch):
    contract, tx = _validated_contract()
    calls = _count_verify_calls(monkeypatch)
    late = translate(tx, "n2", MSET, KEYS["n2"])
    forged = replace(late, canonical_body=late.canonical_body + b"!")
    for envelope in (late, forged):
        entry, status, dup = contract.receive(envelope, expected=3, tick=5)
        assert (status, dup) == (VerifyStatus.VALIDATED, False)
        assert sorted(entry.submissions) == ["n0", "n1"]
    assert calls[0] == 0


def test_late_envelope_on_expired_entry_is_not_verified_or_counted(monkeypatch):
    contract = VerificationContract("BRIDGE", lambda node: KEYS[node].public_key)
    tx = origin_tx()
    entry, _status, _dup = contract.receive(translate(tx, "n0", MSET, KEYS["n0"]), 3, tick=0)
    entry.status, entry.resolved_tick = VerifyStatus.EXPIRED, 5  # as World._check_timeout does
    calls = _count_verify_calls(monkeypatch)
    entry, status, dup = contract.receive(translate(tx, "n1", MSET, KEYS["n1"]), 3, tick=6)
    assert (status, dup) == (VerifyStatus.EXPIRED, False)
    assert entry.status is VerifyStatus.EXPIRED and entry.resolved_tick == 5
    assert list(entry.submissions) == ["n0"]
    assert calls[0] == 0


def test_forged_envelope_on_pending_entry_is_verified_and_not_counted(monkeypatch):
    contract = VerificationContract("BRIDGE", lambda node: KEYS[node].public_key)
    tx = origin_tx()
    contract.receive(translate(tx, "n0", MSET, KEYS["n0"]), expected=3, tick=0)
    calls = _count_verify_calls(monkeypatch)
    honest = translate(tx, "n1", MSET, KEYS["n1"])
    forged = replace(honest, translator_signature=sign(honest.attested_bytes(), KEYS["n2"]))
    entry, status, dup = contract.receive(forged, expected=3, tick=1)
    assert calls[0] == 1
    assert (status, dup) == (VerifyStatus.PENDING, False)
    assert list(entry.submissions) == ["n0"]


def test_unknown_translator_is_not_counted_on_pending_entry():
    contract = VerificationContract("BRIDGE", lambda node: KEYS[node].public_key)
    tx = origin_tx()
    contract.receive(translate(tx, "n0", MSET, KEYS["n0"]), expected=3, tick=0)
    entry, status, dup = contract.receive(_unknown_envelope(tx), expected=3, tick=1)
    assert (status, dup) == (VerifyStatus.PENDING, False)
    assert list(entry.submissions) == ["n0"]


def test_unknown_translator_is_not_counted_on_resolved_entry():
    contract, tx = _validated_contract()
    entry, status, dup = contract.receive(_unknown_envelope(tx), expected=3, tick=5)
    assert (status, dup) == (VerifyStatus.VALIDATED, False)
    assert sorted(entry.submissions) == ["n0", "n1"]


def test_world_contract_fails_closed_on_unknown_translator():
    world = _world()
    contract = world.contracts[BRIDGE_CHAIN_ID]
    tx = origin_tx()
    pending = contract.receive(_unknown_envelope(tx), expected=3, tick=0)
    assert pending[1:] == (VerifyStatus.PENDING, False)
    members = world.mutual_sets["A"].members
    for tick, node in enumerate(members[:2], start=1):
        envelope = translate(tx, node, world.mutual_sets["A"], world.keys[node])
        entry, status, _dup = contract.receive(envelope, expected=3, tick=tick)
    assert status is VerifyStatus.VALIDATED
    resolved = contract.receive(_unknown_envelope(tx, "ghost"), expected=3, tick=9)
    assert resolved[1:] == (VerifyStatus.VALIDATED, False)
    assert sorted(entry.submissions) == sorted(members[:2])


# -- generated envelope sequences ---------------------------------------------

UNKNOWN = "ghost"
ENVELOPE_KINDS = ("honest", "corrupted", "forged", "unknown")


def _generated_envelope(tx, node, kind, variant, mset, keys) -> TranslatedEnvelope:
    if kind == "unknown":
        return _unknown_envelope(tx, UNKNOWN)
    honest = translate(tx, node, mset, keys[node])
    if kind == "honest":
        return honest
    corrupted = honest.canonical_body + bytes([variant])
    if kind == "forged":
        # the honest body's signature, carried on a different body
        return replace(honest, canonical_body=corrupted)
    return translate(tx, node, mset, keys[node], corrupt=lambda _body: corrupted)


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
    resolved = None
    for tick, (index, kind, variant) in enumerate(steps):
        node = members[index % expected]
        envelope = _generated_envelope(tx, node, kind, variant, mset, keys)
        is_duplicate = kind != "unknown" and node in counted
        if resolved is None and kind in ("honest", "corrupted") and not is_duplicate:
            counted[node] = envelope.canonical_body
        entry, status, dup = contract.receive(envelope, expected=expected, tick=tick)
        assert dup == is_duplicate
        assert status.value == majority_status(expected, list(counted.values()))
        assert entry.status is status
        if resolved is not None:
            assert status is resolved
        elif status is not VerifyStatus.PENDING:
            resolved = status
