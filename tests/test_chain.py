import hashlib
import json
import pickle
import random
from dataclasses import replace
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SCENARIOS, build_random_chain, mutate_block_somewhere, transactions
from forensicross import chain as chain_module
from forensicross.chain import (
    Block,
    Chain,
    ChainFault,
    EMPTY_BLOCK_MARKER,
    PayloadKind,
    SubmitError,
    Transaction,
    UnauthorizedValidator,
    dump_chain,
    make_transaction,
    tx_root,
    validate_chain,
)
from forensicross.crypto import KeyPair, ZERO_DIGEST, hash_bytes, sign
from forensicross.scenario import BRIDGE_CHAIN_ID, load_scenario
from forensicross.sim import World, run_scenario
from oracles import recursive_merkle_root, sha


def fresh_chain(n_validators: int = 3) -> tuple[Chain, list[KeyPair], KeyPair]:
    validators = [KeyPair.derive(f"v{i}") for i in range(n_validators)]
    user = KeyPair.derive("user")
    return Chain("A", [v.public_key for v in validators]), validators, user


def some_tx(user: KeyPair, body: bytes = b"payload", dests=("B",)) -> Transaction:
    return make_transaction(PayloadKind.CASE_CREATE, body, "A", list(dests), user)


def test_submit_accepts_wellformed_and_assigns_id():
    chain, _v, user = fresh_chain()
    accepted = chain.submit_transaction(some_tx(user))
    assert accepted.tx_id == "A:1"
    assert chain.pending_pool == [accepted]


def test_submit_rejects_resubmitted_id():
    chain, _v, user = fresh_chain()
    accepted = chain.submit_transaction(some_tx(user))
    with pytest.raises(SubmitError) as err:
        chain.submit_transaction(accepted)
    assert err.value.reason == "DuplicateTxId"


def test_submit_rejects_flipped_body_with_original_signature():
    chain, _v, user = fresh_chain()
    tx = some_tx(user, body=b"evidence")
    for i in range(len(tx.body)):
        for bit in range(8):
            body = bytearray(tx.body)
            body[i] ^= 1 << bit
            bad = replace(tx, body=bytes(body))
            with pytest.raises(SubmitError) as err:
                chain.submit_transaction(bad)
            assert err.value.reason == "InvalidSignature"


def test_submit_rejects_unknown_payload_kind():
    chain, _v, user = fresh_chain()
    tx = replace(some_tx(user), payload_kind="CaseCreate")  # raw string, not the enum
    with pytest.raises(SubmitError) as err:
        chain.submit_transaction(tx)
    assert err.value.reason == "UnknownPayloadKind"


def test_a_sender_key_that_is_not_32_bytes_is_an_invalid_signature():
    chain, _v, user = fresh_chain()
    tx = replace(some_tx(user), sender_public_key=user.public_key[:31])
    with pytest.raises(SubmitError) as err:
        chain.submit_transaction(tx)
    assert err.value.reason == "InvalidSignature"
    assert chain.pending_pool == []


def test_a_carried_tx_id_is_kept_once_and_then_refused():
    chain, _v, user = fresh_chain()
    carried = replace(some_tx(user), tx_id="X:7")  # the signature does not cover the id
    assert chain.submit_transaction(carried) is carried
    other = replace(some_tx(user, body=b"other"), tx_id="X:7")
    with pytest.raises(SubmitError) as err:
        chain.submit_transaction(other)
    assert err.value.reason == "DuplicateTxId"
    assert chain.pending_pool == [carried]


def test_a_malformed_authority_key_fails_the_validator_signature_check():
    # the block names the scheduled authority, whose key cannot verify anything
    validator = KeyPair(public_key=bytes(31), private_key=hash_bytes(b"short key"))
    chain = Chain("T", [validator.public_key])
    chain.mine_block(validator)
    assert validate_chain(chain) == ChainFault(0, "validator signature invalid")


def test_a_chain_needs_an_authority():
    with pytest.raises(ValueError, match="must not be empty"):
        Chain("T", [])


def test_mine_drains_pool_and_links():
    chain, validators, user = fresh_chain()
    for i in range(3):
        chain.submit_transaction(some_tx(user, body=bytes([i])))
    block = chain.mine_block(validators[0])
    assert len(block.transactions) == 3
    assert block.prev_hash == ZERO_DIGEST
    assert chain.pending_pool == []
    # independent recomputation of the merkle root over tx digests
    assert block.tx_merkle_root == recursive_merkle_root(
        [tx.digest() for tx in block.transactions]
    )


def test_mine_rejects_non_authority():
    chain, _v, user = fresh_chain()
    chain.submit_transaction(some_tx(user))
    with pytest.raises(UnauthorizedValidator):
        chain.mine_block(KeyPair.derive("outsider"))


def test_second_block_prev_hash_recomputed_independently():
    chain, validators, user = fresh_chain()
    chain.submit_transaction(some_tx(user))
    first = chain.mine_block(validators[0])
    chain.submit_transaction(some_tx(user, body=b"second"))
    second = chain.mine_block(validators[1])
    # hand-rolled header layout: u64 height, framed prev/root, u64 ts, framed key
    def frame(b: bytes) -> bytes:
        return len(b).to_bytes(4, "big") + b

    header = (
        first.height.to_bytes(8, "big")
        + frame(first.prev_hash)
        + frame(first.tx_merkle_root)
        + first.timestamp.to_bytes(8, "big")
        + frame(first.validator_public_key)
    )
    assert second.prev_hash == hashlib.sha256(header).digest()


def test_a_block_keeps_the_timestamp_its_caller_gives():
    chain, validators, user = fresh_chain()
    first = chain.mine_block(validators[0])
    chain.submit_transaction(some_tx(user))
    second = chain.mine_block(validators[1], timestamp=7)
    assert (first.timestamp, second.timestamp) == (0, 7)
    assert not hasattr(chain, "clock")
    assert validate_chain(chain) is None
    forged = replace(second, timestamp=8)  # the timestamp is in the signed header
    chain.blocks[1] = replace(forged, validator_signature=second.validator_signature)
    assert validate_chain(chain) == ChainFault(1, "validator signature invalid")


def test_empty_block_uses_empty_marker():
    chain, validators, _user = fresh_chain()
    block = chain.mine_block(validators[0])
    assert block.tx_merkle_root == EMPTY_BLOCK_MARKER
    assert validate_chain(chain) is None


def test_validate_ok_on_untampered_chain():
    chain, _validators = build_random_chain(random.Random(1), blocks=10)
    assert validate_chain(chain) is None


def test_validate_hashes_each_block_header_once(monkeypatch):
    chain, _validators = build_random_chain(random.Random(2), blocks=6)
    calls = [0]
    real_digest = Block.header_digest

    def counting_digest(block):
        calls[0] += 1
        return real_digest(block)

    monkeypatch.setattr(Block, "header_digest", counting_digest)
    assert validate_chain(chain) is None
    assert calls[0] == len(chain.blocks)


def test_validate_reads_each_transaction_digest_once(monkeypatch):
    chain, _validators = build_random_chain(random.Random(8), blocks=8)
    calls = [0]
    real_digest = Transaction.digest

    def counting_digest(tx):
        calls[0] += 1
        return real_digest(tx)

    monkeypatch.setattr(Transaction, "digest", counting_digest)
    assert validate_chain(chain) is None
    assert calls[0] == sum(len(b.transactions) for b in chain.blocks)


def test_mine_block_hashes_the_header_once(monkeypatch):
    chain, validators, _user = fresh_chain()
    calls = [0]

    def counting_hash(data):
        calls[0] += 1
        return hash_bytes(data)

    monkeypatch.setattr(chain_module, "hash_bytes", counting_hash)
    block = chain.mine_block(validators[0])  # empty: no Merkle hashing
    assert block.header_digest() == hash_bytes(block.header_bytes())
    assert calls[0] == 1


def test_every_mined_header_digest_is_the_hash_of_its_header_bytes(scenario_dir):
    world = run_scenario(load_scenario(scenario_dir / "lifecycle_full.yaml"))
    blocks = [b for c in world.chains.values() for b in c.blocks]
    assert blocks
    for block in blocks:
        assert "_header_digest" in vars(block)  # carried over from mining
        assert block.header_digest() == hash_bytes(block.header_bytes())


def test_validate_reports_a_block_that_repeats_its_last_transaction(scenario_dir):
    world = run_scenario(load_scenario(scenario_dir / "lifecycle_full.yaml"))
    chain = world.chains[BRIDGE_CHAIN_ID]
    height, block = next(
        (i, b) for i, b in enumerate(chain.blocks)
        if len(b.transactions) >= 3 and len(b.transactions) % 2 == 1
    )
    padded = block.transactions + block.transactions[-1:]
    # duplicate-last padding: the repeated copy has the header's root
    assert tx_root(padded) == block.tx_merkle_root
    chain.blocks[height] = replace(block, transactions=padded)
    assert validate_chain(chain) == ChainFault(height, "duplicate transaction")


@cache
def _chain_of_widths() -> Chain:
    """Blocks of 1 to 5 distinct transactions, one block per width."""
    chain, validators, user = fresh_chain()
    for height, width in enumerate((1, 2, 3, 4, 5)):
        for j in range(width):
            chain.submit_transaction(some_tx(user, body=f"{height}:{j}".encode()))
        chain.mine_block(validators[height % len(validators)])
    return chain


TUPLE_CHANGES = ("append", "drop", "duplicate", "reorder")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(TUPLE_CHANGES), st.data())
def test_validate_reports_every_change_to_a_block_transaction_tuple(change, data):
    """The header stays as mined; only the block's transaction tuple moves."""
    chain = _chain_of_widths()
    eligible = [
        h for h, b in enumerate(chain.blocks)
        if len(b.transactions) >= (2 if change == "reorder" else 1)
    ]
    height = data.draw(st.sampled_from(eligible), label="height")
    block = chain.blocks[height]
    txs = block.transactions
    if change == "append":
        others = [tx for b in chain.blocks if b is not block for tx in b.transactions]
        changed = txs + (data.draw(st.sampled_from(others), label="appended"),)
    elif change == "drop":
        j = data.draw(st.integers(0, len(txs) - 1), label="dropped")
        changed = txs[:j] + txs[j + 1:]
    elif change == "duplicate":
        j = data.draw(st.integers(0, len(txs) - 1), label="copied")
        k = data.draw(st.integers(0, len(txs)), label="inserted at")
        changed = txs[:k] + (txs[j],) + txs[k:]
    else:
        changed = tuple(data.draw(
            st.permutations(txs).filter(lambda p: tuple(p) != txs), label="order"
        ))
    expected = "duplicate transaction" if change == "duplicate" else "tx merkle root mismatch"
    assert validate_chain(chain) is None
    chain.blocks[height] = replace(block, transactions=changed)
    try:
        assert validate_chain(chain) == ChainFault(height, expected)
    finally:
        chain.blocks[height] = block


def test_validate_localizes_mutated_tx():
    rng = random.Random(2)
    chain, _validators = build_random_chain(rng, blocks=10)
    target = next(h for h in range(4, 10) if chain.blocks[h].transactions)
    block = chain.blocks[target]
    txs = list(block.transactions)
    txs[0] = replace(txs[0], body=txs[0].body + b"!")
    chain.blocks[target] = replace(block, transactions=tuple(txs))
    fault = validate_chain(chain)
    assert fault is not None and fault.height == target


def test_validate_catches_signature_over_wrong_header():
    rng = random.Random(3)
    chain, validators = build_random_chain(rng, blocks=10)
    block = chain.blocks[7]
    # the scheduled validator signs a *different* header: valid key, wrong content
    signer = next(v for v in validators if v.public_key == block.validator_public_key)
    wrong_header = replace(block, timestamp=block.timestamp + 1).header_digest()
    chain.blocks[7] = replace(block, validator_signature=sign(wrong_header, signer))
    assert validate_chain(chain) == ChainFault(7, "validator signature invalid")


def test_mine_rejects_off_schedule_authority():
    chain, validators, user = fresh_chain()
    chain.submit_transaction(some_tx(user))
    with pytest.raises(UnauthorizedValidator):
        chain.mine_block(validators[1])
    assert chain.blocks == [] and len(chain.pending_pool) == 1
    chain.mine_block(validators[0])
    assert len(chain.blocks) == 1


def test_validate_reports_a_correctly_signed_off_schedule_block():
    chain, validators, user = fresh_chain()
    chain.mine_block(validators[0])
    chain.submit_transaction(some_tx(user))
    block = chain.mine_block(validators[1])
    # validators[2] is an authority and signs the header correctly, but
    # height 1 belongs to validators[1]
    unsigned = replace(block, validator_public_key=validators[2].public_key)
    chain.blocks[1] = replace(
        unsigned, validator_signature=sign(unsigned.header_digest(), validators[2])
    )
    assert validate_chain(chain) == ChainFault(1, "unexpected validator")


def _seal(chain: Chain, signers: list[KeyPair]) -> None:
    """Append one linked, empty block per signer, each signed by it
    whatever the schedule says."""
    prev = ZERO_DIGEST
    for height, signer in enumerate(signers):
        unsigned = Block(height, prev, EMPTY_BLOCK_MARKER, (), signer.public_key, b"", height)
        block = replace(unsigned, validator_signature=sign(unsigned.header_digest(), signer))
        chain.blocks.append(block)
        prev = block.header_digest()


def _list_authority() -> tuple[Chain, list[KeyPair]]:
    chain, validators, _user = fresh_chain()
    return chain, validators


def _world_authority() -> tuple[Chain, list[KeyPair]]:
    world = World(load_scenario(SCENARIOS / "bridge_small.yaml"))
    seed_label = f"scenario:{world.scenario.seed}"
    validators = [KeyPair.derive(seed_label, ":node:", n) for n in world.node_names["A"]]
    return world.chains["A"], validators


@pytest.mark.parametrize("build", [_list_authority, _world_authority], ids=["list", "world"])
@pytest.mark.parametrize("outsider_first", [True, False], ids=["outsider", "off-schedule"])
def test_validate_names_each_wrong_validator_at_the_lowest_height(build, outsider_first):
    chain, validators = build()
    n = len(validators)
    signers = [validators[h % n] for h in range(n + 2)]
    # a key outside the authority set, and an authority whose turn is
    # neither height 2 nor height n + 1
    outsider, off_schedule = KeyPair.derive("outsider"), validators[0]
    low, high = (outsider, off_schedule) if outsider_first else (off_schedule, outsider)
    signers[2], signers[n + 1] = low, high
    _seal(chain, signers)
    reason = "validator not in authority set" if outsider_first else "unexpected validator"
    assert validate_chain(chain) == ChainFault(2, reason)


def test_mining_is_append_only():
    chain, validators, user = fresh_chain()
    chain.submit_transaction(some_tx(user))
    chain.mine_block(validators[0])
    digests_before = [b.header_digest() for b in chain.blocks]
    chain.submit_transaction(some_tx(user, body=b"later"))
    chain.mine_block(validators[1])
    assert [b.header_digest() for b in chain.blocks[:-1]] == digests_before


def test_tamper_sensitivity_sweep():
    rng = random.Random(4)
    chain, _validators = build_random_chain(rng, blocks=12)
    for _ in range(100):
        i = rng.randrange(len(chain.blocks))
        original = chain.blocks[i]
        mutated, what = mutate_block_somewhere(original, rng)
        chain.blocks[i] = mutated
        fault = validate_chain(chain)
        assert fault is not None, f"undetected mutation of {what} at {i}"
        assert fault.height <= i, f"{what}: reported {fault.height} > {i}"
        chain.blocks[i] = original
        assert validate_chain(chain) is None


def test_dump_chain_is_line_delimited_hex(tmp_path):
    chain, _validators = build_random_chain(random.Random(5), blocks=4)
    path = tmp_path / "chain.jsonl"
    dump_chain(chain, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    for line in lines:
        record = json.loads(line)
        assert set(record) >= {"height", "hash", "prev_hash", "tx_merkle_root"}
        bytes.fromhex(record["hash"])  # lowercase hex round-trips
        assert record["hash"] == record["hash"].lower()


# -- per-object digest memos ---------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(transactions)
def test_digest_is_sha256_of_canonical_bytes_on_every_call(tx):
    expected = sha(tx.canonical_bytes())
    assert tx.digest() == expected
    assert tx.digest() == expected


TX_FIELD_CHANGES = {
    "tx_id": "A:99",
    "sender_public_key": b"\x01" * 32,
    "payload_kind": PayloadKind.STAGE_VOTE,
    "body": b"other body",
    "source_chain": "Z",
    "destination_chains": ("B", "C"),
    "signature": b"\x02" * 64,
}


@pytest.mark.parametrize("field", sorted(TX_FIELD_CHANGES))
def test_replace_after_a_cached_digest_hashes_the_new_fields(field):
    _chain, _v, user = fresh_chain()
    tx = some_tx(user)
    original = tx.digest()
    changed = replace(tx, **{field: TX_FIELD_CHANGES[field]})
    assert changed.digest() == sha(changed.canonical_bytes())
    assert changed.digest() != original
    assert tx.digest() == original


def test_cached_digests_leave_equality_hash_repr_and_pickling_unchanged():
    chain, _validators = build_random_chain(random.Random(6), blocks=3)
    mined = next(b for b in chain.blocks if b.transactions)
    # copies made by replace start without a memo
    tx, block = replace(mined.transactions[0]), replace(mined)
    assert "_digest" not in vars(tx) and "_header_digest" not in vars(block)
    fresh_tx, fresh_block = pickle.loads(pickle.dumps((tx, block)))
    before = (repr(tx), hash(tx), repr(block), hash(block))
    pickled = pickle.dumps((tx, block))
    tx.digest()
    block.header_digest()
    assert "_digest" in vars(tx) and "_header_digest" in vars(block)
    assert (repr(tx), hash(tx), repr(block), hash(block)) == before
    assert tx == fresh_tx and block == fresh_block
    assert pickle.dumps((tx, block)) == pickled
    restored_tx, restored_block = pickle.loads(pickled)
    assert restored_tx.digest() == tx.digest()
    assert restored_block.header_digest() == block.header_digest()


def test_swapped_transaction_is_caught_after_digests_are_cached():
    chain, _validators = build_random_chain(random.Random(7), blocks=8)
    assert validate_chain(chain) is None  # caches every tx and header digest
    target = next(h for h in range(2, 8) if chain.blocks[h].transactions)
    block = chain.blocks[target]
    txs = list(block.transactions)
    txs[-1] = replace(txs[-1], body=txs[-1].body + b"!")
    chain.blocks[target] = replace(block, transactions=tuple(txs))
    assert validate_chain(chain) == ChainFault(target, "tx merkle root mismatch")
