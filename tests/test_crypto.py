import hashlib
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from forensicross.crypto import (
    EmptyLeavesError,
    KeyPair,
    MalformedKeyError,
    MerkleTree,
    hash_bytes,
    merkle_root,
    sign,
    verify,
)
from forensicross.scenario import load_scenario
from forensicross.sim import World, write_event_log
from oracles import recursive_merkle_root, sha

# the standard SHA-256 digest of empty input
SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def test_hash_of_empty_input_is_the_standard_constant():
    assert hash_bytes(b"").hex() == SHA256_EMPTY
    assert len(hash_bytes(b"")) == 32


def test_hash_is_deterministic():
    assert hash_bytes(b"abc") == hash_bytes(b"abc")


def test_hash_sensitive_to_appended_byte():
    rng = random.Random(2101)
    for _ in range(10_000):
        data = rng.randbytes(rng.randint(0, 64))
        assert hash_bytes(data) != hash_bytes(data + b"\x00")


def test_sign_verify_roundtrip():
    key = KeyPair.derive("roundtrip")
    sig = sign(b"message", key)
    assert verify(b"message", sig, key.public_key)


def test_verify_rejects_other_key():
    a, b = KeyPair.derive("a"), KeyPair.derive("b")
    sig = sign(b"message", a)
    assert not verify(b"message", sig, b.public_key)


def test_verify_rejects_any_single_bit_flip():
    key = KeyPair.derive("bitflip")
    msg = b"The quick brown fox"
    sig = sign(msg, key)
    for byte_index in range(len(msg)):
        for bit in range(8):
            flipped = bytearray(msg)
            flipped[byte_index] ^= 1 << bit
            assert not verify(bytes(flipped), sig, key.public_key)


def test_malformed_key_raises_never_verifies():
    key = KeyPair.derive("ok")
    sig = sign(b"m", key)
    with pytest.raises(MalformedKeyError):
        verify(b"m", sig, b"\x01" * 16)
    with pytest.raises(MalformedKeyError):
        KeyPair.from_seed(b"short")


def test_signatures_are_deterministic_per_message_and_key():
    key = KeyPair.derive("det")
    assert sign(b"x", key) == sign(b"x", key)


def test_key_derivation_is_deterministic_and_label_sensitive():
    assert KeyPair.derive("n1").public_key == KeyPair.derive("n1").public_key
    assert KeyPair.derive("n1").public_key != KeyPair.derive("n2").public_key


def test_merkle_single_leaf_is_root():
    leaf = sha(b"only")
    assert merkle_root([leaf]) == leaf


def test_merkle_two_leaves_is_one_pairing():
    d1, d2 = sha(b"1"), sha(b"2")
    assert merkle_root([d1, d2]) == hashlib.sha256(d1 + d2).digest()


def test_merkle_five_random_leaves_matches_recursive_oracle():
    rng = random.Random(5)
    leaves = [sha(rng.randbytes(8)) for _ in range(5)]
    assert merkle_root(leaves) == recursive_merkle_root(leaves)


def test_merkle_matches_oracle_for_all_widths_up_to_33():
    rng = random.Random(33)
    for width in range(1, 34):
        leaves = [sha(rng.randbytes(8)) for _ in range(width)]
        assert merkle_root(leaves) == recursive_merkle_root(leaves), width


@settings(max_examples=300, deadline=None)
@given(st.lists(st.binary(min_size=32, max_size=32), min_size=1, max_size=64))
def test_merkle_root_matches_the_recursive_oracle_on_generated_leaves(leaves):
    assert merkle_root(leaves) == recursive_merkle_root(leaves)


def test_merkle_root_changes_when_any_leaf_changes():
    rng = random.Random(7)
    leaves = [sha(rng.randbytes(8)) for _ in range(9)]
    base = merkle_root(leaves)
    for i in range(len(leaves)):
        changed = list(leaves)
        changed[i] = sha(changed[i])
        assert merkle_root(changed) != base, i


def test_merkle_empty_is_an_error():
    with pytest.raises(EmptyLeavesError):
        merkle_root([])


def test_merkle_tree_levels_shape():
    leaves = [sha(bytes([i])) for i in range(5)]
    tree = MerkleTree(leaves)
    assert tree.levels[0] == leaves
    assert [len(level) for level in tree.levels] == [5, 3, 2, 1]
    assert tree.root == tree.levels[-1][0]


def test_merkle_rejects_wrong_width_leaf():
    with pytest.raises(ValueError):
        merkle_root([b"\x01" * 31])


def test_key_is_not_parsed_before_first_sign():
    # from_seed, not derive: a derived key is shared and may have signed already
    key = KeyPair.from_seed(hash_bytes(b"lazy"))
    assert "_signer" not in vars(key)
    sign(b"m", key)
    assert "_signer" in vars(key)


def test_reused_key_signs_exactly_like_a_fresh_parse():
    key = KeyPair.derive("reused")
    for i in range(3):
        sign(b"earlier message %d" % i, key)
    reference = Ed25519PrivateKey.from_private_bytes(key.private_key)
    for message in (b"", b"m", b"a longer message" * 8):
        # Ed25519 is deterministic: the bytes must match exactly
        assert sign(message, key) == reference.sign(message)


def test_signing_leaves_equality_hash_and_repr_unchanged():
    key = KeyPair.derive("eq")
    sign(b"m", key)
    fresh = KeyPair.from_seed(key.private_key)
    assert fresh is not key and "_signer" not in vars(fresh)
    assert key == fresh
    assert hash(key) == hash(fresh)
    assert repr(key) == repr(fresh)


def test_key_that_has_signed_still_pickles():
    key = KeyPair.derive("pickle")
    signature = sign(b"m", key)
    restored = pickle.loads(pickle.dumps(key))
    assert restored == key
    assert sign(b"m", restored) == signature


def test_derive_returns_one_shared_key_per_label_tuple():
    key = KeyPair.derive("scenario:7", ":node:", "A.m0")
    assert KeyPair.derive("scenario:7", ":node:", "A.m0") is key
    assert KeyPair.derive("scenario:7", ":node:", "A.m1") is not key
    assert key == KeyPair.from_seed(hash_bytes(b"scenario:7:node:A.m0"))


def _world_keys(world: World) -> list[KeyPair]:
    users = [key for _spec, key in world.users.values()]
    return [*world.keys.values(), *world.contract_keys.values(), *users]


def test_worlds_of_one_scenario_share_their_keys(scenario_dir, tmp_path):
    scenario = load_scenario(scenario_dir / "lifecycle_full.yaml")
    first, second = World(scenario), World(scenario)
    pairs = list(zip(_world_keys(first), _world_keys(second), strict=True))
    assert pairs and all(a is b for a, b in pairs)
    # the second world signs with keys the first has already used
    write_event_log(first.run(), tmp_path / "first.jsonl")
    write_event_log(second.run(), tmp_path / "second.jsonl")
    assert (tmp_path / "second.jsonl").read_bytes() == (tmp_path / "first.jsonl").read_bytes()
