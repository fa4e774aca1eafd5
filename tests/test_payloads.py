"""Canonical encodings: pinned payload bytes per kind, and round-trips and
decoder fuzzing for payloads, transactions and access policies.

The pinned hex strings are the canonical bytes every chain signs and
hashes; a codec change that moves them changes every transaction id and
digest in the simulator. Every decoder may raise only `DecodeError` on bad
bytes.
"""
from dataclasses import replace
from typing import get_type_hints

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import transactions
from forensicross.canonical import DecodeError, enc_bytes, enc_int, enc_str, enc_str_list
from forensicross.chain import (
    EMPTY_BLOCK_MARKER,
    Chain,
    PayloadKind,
    Transaction,
    make_transaction,
)
from forensicross.comm import HopOrigin, MutualNodeSet, translate
from forensicross.crypto import ZERO_DIGEST, KeyPair, hash_bytes, verify
from forensicross.lifecycle import AccessPolicy, Action
from forensicross.payloads import (
    PAYLOAD_KINDS,
    PHASE_BLOCKED,
    VOTE_REJECT,
    AccessControlPayload,
    CaseCreatePayload,
    DataAccessLogPayload,
    ProvenanceRequestPayload,
    QueryNodeAssignPayload,
    StageProposalPayload,
    StageVotePayload,
    decode_payload,
    encode_payload,
    payload_transaction,
)

PAYLOAD_CLASSES = {
    PayloadKind.CASE_CREATE: CaseCreatePayload,
    PayloadKind.ACCESS_CONTROL: AccessControlPayload,
    PayloadKind.QUERY_NODE_ASSIGN: QueryNodeAssignPayload,
    PayloadKind.STAGE_PROPOSAL: StageProposalPayload,
    PayloadKind.STAGE_VOTE: StageVotePayload,
    PayloadKind.DATA_ACCESS_LOG: DataAccessLogPayload,
    PayloadKind.PROVENANCE_REQUEST: ProvenanceRequestPayload,
}

PINNED = [
    (
        CaseCreatePayload("C-7"),
        "00000003432d37",
    ),
    (
        AccessControlPayload("Fall-Ü1", b"\x00\x01policy"),
        "0000000846616c6c2dc39c31000000080001706f6c696379",
    ),
    (
        QueryNodeAssignPayload("C-9", ()),
        "00000003432d390000000000000000",
    ),
    (
        QueryNodeAssignPayload("C-9", (b"\xaa\xaa", b"")),
        "00000003432d39000000000000000200000002aaaa00000000",
    ),
    (  # phase and reasons defaulted
        StageProposalPayload("C-7", 1, 0),
        "00000003432d3700000000000000010000000000000000000000046f70656e"
        "0000000000000000",
    ),
    (
        StageProposalPayload("C-7", 2, 1, PHASE_BLOCKED, ("no custody", "証拠なし")),
        "00000003432d370000000000000002000000000000000100000007626c6f636b6564"
        "00000000000000020000000a6e6f20637573746f64790000000ce8a8bce68ba0e381"
        "aae38197",
    ),
    (
        StageVotePayload("C-7", 2, 1, VOTE_REJECT, "hash ≠ leaf"),
        "00000003432d37000000000000000200000000000000010000000672656a656374"
        "0000000d6861736820e289a0206c656166",
    ),
    (
        DataAccessLogPayload(
            "C-7", b"\x11" * 3, "auditor", "read", 3, "Denied", b"\x22" * 3
        ),
        "00000003432d37000000031111110000000761756469746f7200000004726561640000"
        "0000000000030000000644656e69656400000003222222",
    ),
    (
        ProvenanceRequestPayload("Δ-1", b"\x33" * 3),
        "00000004ce942d3100000003333333",
    ),
]


def test_each_payload_class_has_its_own_kind():
    assert PAYLOAD_KINDS == {cls: kind for kind, cls in PAYLOAD_CLASSES.items()}


@pytest.mark.parametrize("payload,expected_hex", PINNED, ids=lambda v: type(v).__name__)
def test_payload_canonical_bytes_are_pinned(payload, expected_hex):
    data = encode_payload(payload)
    assert data.hex() == expected_hex
    assert decode_payload(PAYLOAD_KINDS[type(payload)], data) == payload


def test_pinned_samples_cover_every_payload_kind():
    assert {PAYLOAD_KINDS[type(p)] for p, _ in PINNED} == set(PAYLOAD_CLASSES)


def test_signed_record_layouts_match_their_fields_in_documented_order():
    """The bytes a transaction, a block header and a translator attestation
    are hashed and signed over, built field by field from the primitives:
    a codec that reorders, drops or re-types a field fails here, not only
    in the golden runs' hashes."""
    key = KeyPair.derive("layout-sender")
    signed = (
        enc_str("StageVote") + enc_bytes(b"\x01vote") + enc_str("A") + enc_str_list(["B", "C"])
    )
    tx = make_transaction(PayloadKind.STAGE_VOTE, b"\x01vote", "A", ["B", "C"], key)
    assert tx.signing_bytes() == signed
    assert verify(signed, tx.signature, key.public_key)
    tx = replace(tx, tx_id="A:1")
    assert tx.canonical_bytes() == (
        enc_str("A:1") + enc_bytes(key.public_key) + signed + enc_bytes(tx.signature)
    )
    assert Transaction.from_canonical(tx.canonical_bytes()) == tx

    block = Chain("A", [key.public_key]).mine_block(key, timestamp=17)
    header = (
        enc_int(0) + enc_bytes(ZERO_DIGEST) + enc_bytes(EMPTY_BLOCK_MARKER)
        + enc_int(17) + enc_bytes(key.public_key)
    )
    assert block.header_bytes() == header
    assert block.header_digest() == hash_bytes(header)
    assert verify(hash_bytes(header), block.validator_signature, key.public_key)

    node = "A~B.m0"
    origin = HopOrigin("A:1", "A", tx.canonical_bytes(), ("B", "C"))
    envelope = translate(origin, node, MutualNodeSet("A", (node, "A~B.m1", "A~B.m2")), key)
    attested = (
        enc_str("A:1") + enc_str("A") + enc_str_list(["B", "C"])
        + enc_bytes(tx.canonical_bytes()) + enc_str(node)
    )
    assert envelope.attested_bytes() == attested
    assert verify(attested, envelope.translator_signature, key.public_key)


@pytest.mark.parametrize("payload", [p for p, _ in PINNED], ids=lambda v: type(v).__name__)
@pytest.mark.parametrize("destinations", [(), ("B", "C")], ids=["local", "cross-chain"])
def test_payload_transaction_signs_the_payload_as_its_kind(payload, destinations):
    key = KeyPair.derive("payload-sender")
    tx = payload_transaction(payload, "A", key, destinations)
    assert tx.payload_kind is PAYLOAD_KINDS[type(payload)]
    assert decode_payload(tx.payload_kind, tx.body) == payload
    assert tx.source_chain == "A"
    assert tx.destination_chains == destinations
    assert tx.sender_public_key == key.public_key
    assert tx.tx_id == ""  # assigned at submission
    assert verify(tx.signing_bytes(), tx.signature, key.public_key)


_FIELD_STRATEGIES = {
    str: st.text(),
    bytes: st.binary(max_size=40),
    int: st.integers(min_value=0, max_value=2**64 - 1),
    tuple[str, ...]: st.lists(st.text(), max_size=4).map(tuple),
    tuple[bytes, ...]: st.lists(st.binary(max_size=40), max_size=4).map(tuple),
}


def _payload_strategy(cls):
    hints = get_type_hints(cls)
    return st.builds(cls, **{name: _FIELD_STRATEGIES[hint] for name, hint in hints.items()})


payloads = st.one_of(*(_payload_strategy(cls) for cls in PAYLOAD_CLASSES.values()))


@settings(max_examples=300, deadline=None)
@given(payloads)
def test_every_payload_kind_round_trips(payload):
    assert decode_payload(PAYLOAD_KINDS[type(payload)], encode_payload(payload)) == payload


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(sorted(PAYLOAD_CLASSES, key=lambda k: k.value)), st.binary(max_size=120))
def test_arbitrary_bytes_raise_only_decode_error(kind, data):
    try:
        decode_payload(kind, data)
    except DecodeError:
        pass


@settings(max_examples=300, deadline=None)
@given(payloads, st.data())
def test_truncated_or_extended_encodings_raise_decode_error(payload, data):
    kind = PAYLOAD_KINDS[type(payload)]
    encoded = encode_payload(payload)
    cut = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
    with pytest.raises(DecodeError):
        decode_payload(kind, encoded[:cut])
    with pytest.raises(DecodeError):
        decode_payload(kind, encoded + data.draw(st.binary(min_size=1, max_size=8)))


# -- transactions and access policies ----------------------------------------------

@st.composite
def policies(draw):
    roles = draw(st.lists(st.text(max_size=8), min_size=1, max_size=4, unique=True))
    grants = draw(st.dictionaries(
        st.tuples(st.sampled_from(roles), st.integers(min_value=0, max_value=2**64 - 1)),
        st.sets(st.sampled_from(list(Action))),
        max_size=5,
    ))
    return AccessPolicy.build(roles, grants)


DECODERS = {
    "transaction": (transactions, Transaction.canonical_bytes, Transaction.from_canonical),
    "policy": (policies(), AccessPolicy.canonical_bytes, AccessPolicy.from_canonical),
}


@pytest.mark.parametrize("name", sorted(DECODERS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_transactions_and_policies_round_trip(name, data):
    values, encode, decode = DECODERS[name]
    value = data.draw(values)
    assert decode(encode(value)) == value


@pytest.mark.parametrize("name", sorted(DECODERS))
@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=160))
def test_decoders_raise_only_decode_error_on_arbitrary_bytes(name, data):
    try:
        DECODERS[name][2](data)
    except DecodeError:
        pass


@pytest.mark.parametrize("name", sorted(DECODERS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_decoders_reject_truncated_or_extended_encodings(name, data):
    values, encode, decode = DECODERS[name]
    encoded = encode(data.draw(values))
    cut = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
    with pytest.raises(DecodeError):
        decode(encoded[:cut])
    with pytest.raises(DecodeError):
        decode(encoded + data.draw(st.binary(min_size=1, max_size=8)))


@pytest.mark.parametrize("roles,action", [(["analyst"], "delete"), ([], "read")],
                         ids=["unknown-action", "undeclared-role"])
def test_bad_policy_bytes_are_a_decode_error(roles, action):
    data = (
        enc_str_list(roles) + enc_int(1)
        + enc_str("analyst") + enc_int(0) + enc_str_list([action])
    )
    with pytest.raises(DecodeError):
        AccessPolicy.from_canonical(data)


def test_non_canonical_policy_bytes_are_a_decode_error():
    # unsorted, repeated roles and two grants for one (role, stage): this used
    # to decode to a policy granting only upload, re-encoded to 57 of 91 bytes
    data = (
        enc_str_list(["b", "a", "a"]) + enc_int(2)
        + enc_str("a") + enc_int(0) + enc_str_list(["read"])
        + enc_str("a") + enc_int(0) + enc_str_list(["upload"])
    )
    assert len(data) == 91
    with pytest.raises(DecodeError, match="not canonical"):
        AccessPolicy.from_canonical(data)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_policy_bytes_that_decode_re_encode_to_themselves(data):
    # structure-aware bytes reach the decoder's success path far more often
    # than arbitrary bytes do
    roles = data.draw(st.lists(st.sampled_from(["a", "b", "c"]), max_size=4))
    grants = data.draw(st.lists(st.tuples(
        st.sampled_from(["a", "b", "c"]), st.integers(min_value=0, max_value=2),
        st.lists(st.sampled_from([a.value for a in Action]), max_size=3),
    ), max_size=4))
    encoded = enc_str_list(roles) + enc_int(len(grants))
    for role, stage, actions in grants:
        encoded += enc_str(role) + enc_int(stage) + enc_str_list(actions)
    for candidate in (encoded, data.draw(st.binary(max_size=80))):
        try:
            policy = AccessPolicy.from_canonical(candidate)
        except DecodeError:
            continue
        assert policy.canonical_bytes() == candidate


@settings(max_examples=300, deadline=None)
@given(transactions, st.text(max_size=16))
@example(Transaction("A-1", b"pk", PayloadKind.CASE_CREATE, b"", "A", (), b"sig"), "Bogus")
def test_transaction_with_any_kind_text_decodes_or_raises_decode_error(tx, kind):
    encoded = (
        enc_str(tx.tx_id) + enc_bytes(tx.sender_public_key) + enc_str(kind)
        + enc_bytes(tx.body) + enc_str(tx.source_chain)
        + enc_str_list(tx.destination_chains) + enc_bytes(tx.signature)
    )
    try:
        decoded = Transaction.from_canonical(encoded)
    except DecodeError:
        assert kind not in {k.value for k in PayloadKind}
    else:
        assert decoded.payload_kind.value == kind
