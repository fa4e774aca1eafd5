import ctypes
import hashlib
import os
import pickle
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from forensicross import crypto
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
    fields = {"public_key", "private_key"}
    assert set(vars(key)) == fields
    sign(b"m", key)
    # only the active backend's signing key is built
    cached = "_signer" if crypto._SODIUM is None else "_sodium_secret"
    assert set(vars(key)) == fields | {cached}


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
    # the second world signs with keys the first has already used
    write_event_log(first.run(), tmp_path / "first.jsonl")
    write_event_log(second.run(), tmp_path / "second.jsonl")
    assert (tmp_path / "second.jsonl").read_bytes() == (tmp_path / "first.jsonl").read_bytes()
    # a node's key is derived when the node first acts, so compare after both runs
    pairs = list(zip(_world_keys(first), _world_keys(second), strict=True))
    assert pairs and all(a is b for a, b in pairs)


# The library loaded at import; fixtures may set `crypto._SODIUM` to None.
SODIUM = crypto._SODIUM
needs_sodium = pytest.mark.skipif(
    SODIUM is None,
    reason=f"{crypto._SODIUM_SONAME} is not on this host, so only the OpenSSL path exists",
)

# the order of the Ed25519 base point (RFC 8032 section 5.1)
L = 2**252 + 27742317777372353535851937790883648493
# the encoding of the identity point: a small-order key that OpenSSL admits
IDENTITY = b"\x01" + bytes(31)


def _on_both_paths(thunk) -> list:
    """thunk() with libsodium, then with OpenSSL alone."""
    outcomes = []
    for lib in (SODIUM, None):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(crypto, "_SODIUM", lib)
            outcomes.append(thunk())
    return outcomes


def _base_times(scalar: int) -> bytes:
    """The encoding of [scalar]B, for 0 < scalar < L."""
    lib = ctypes.CDLL(crypto._SODIUM_SONAME)
    lib.crypto_scalarmult_ed25519_base_noclamp.argtypes = (ctypes.c_char_p, ctypes.c_char_p)
    lib.crypto_scalarmult_ed25519_base_noclamp.restype = ctypes.c_int
    point = ctypes.create_string_buffer(32)
    assert lib.crypto_scalarmult_ed25519_base_noclamp(point, scalar.to_bytes(32, "little")) == 0
    return point.raw


def _flip_bit(data: bytes, bit: int) -> bytes:
    flipped = bytearray(data)
    flipped[bit // 8] ^= 1 << (bit % 8)
    return bytes(flipped)


@needs_sodium
@settings(max_examples=150, deadline=None)
@given(
    seed=st.binary(min_size=32, max_size=32),
    other=st.binary(min_size=32, max_size=32),
    message=st.binary(max_size=200),
)
def test_both_paths_sign_the_same_bytes(seed, other, message):
    key = KeyPair.from_seed(seed)
    # a pair whose public_key field is not its seed's signs with the seed alone
    mismatched = KeyPair(public_key=KeyPair.from_seed(other).public_key, private_key=seed)
    reference = Ed25519PrivateKey.from_private_bytes(seed).sign(message)
    assert _on_both_paths(lambda: sign(message, key)) == [reference, reference]
    assert _on_both_paths(lambda: sign(message, mismatched)) == [reference, reference]


@needs_sodium
@settings(max_examples=150, deadline=None)
@given(
    seed=st.binary(min_size=32, max_size=32),
    message=st.binary(min_size=1, max_size=200),
    bits=st.tuples(*[st.integers(0, 255)] * 3),
    message_bit=st.integers(0, 8 * 200 - 1),
    scalar=st.integers(1, L - 1),
)
def test_both_paths_give_the_same_verdicts(seed, message, bits, message_bit, scalar):
    key = KeyPair.from_seed(seed)
    signature = sign(message, key)
    r_bit, s_bit, key_bit = bits
    s_plus_l = (int.from_bytes(signature[32:], "little") + L).to_bytes(32, "little")
    # with the identity as A, [S]B = R + [h]A holds for R = [S]B and any message
    small_order = _base_times(scalar) + scalar.to_bytes(32, "little")
    cases = [
        (message, signature, key.public_key, True),
        (message, _flip_bit(signature, r_bit), key.public_key, False),
        (message, _flip_bit(signature, 256 + s_bit), key.public_key, False),
        (_flip_bit(message, message_bit % (8 * len(message))), signature, key.public_key, False),
        (message, signature, _flip_bit(key.public_key, key_bit), False),
        (message, signature[:32] + s_plus_l, key.public_key, False),
        (message, signature, IDENTITY, False),
        (message, small_order, IDENTITY, True),
    ]
    for msg, sig, public_key, expected in cases:
        outcomes = _on_both_paths(lambda: verify(msg, sig, public_key))
        assert outcomes == [expected, expected], (msg, sig, public_key)
    # the small-order case is decided by OpenSSL: libsodium refuses it alone
    assert not crypto._sodium_accepts(SODIUM, message, small_order, IDENTITY)


@settings(max_examples=150, deadline=None)
@given(seed=st.binary(min_size=32, max_size=32))
def test_both_paths_derive_openssls_public_key(seed):
    reference = Ed25519PrivateKey.from_private_bytes(seed).public_key().public_bytes_raw()
    outcomes = _on_both_paths(lambda: KeyPair.from_seed(seed).public_key)
    assert outcomes == [reference, reference]


def test_the_pinned_rfc8032_vector_is_what_openssl_derives_and_signs():
    # libsodium is checked against this vector at import, OpenSSL here
    reference = Ed25519PrivateKey.from_private_bytes(crypto._RFC8032_SEED)
    assert reference.public_key().public_bytes_raw() == crypto._RFC8032_PUBLIC_KEY
    assert reference.sign(b"") == crypto._RFC8032_SIGNATURE


def _in_a_fresh_interpreter(code: str) -> str:
    """stdout of `code` run by a new interpreter that imports this tree's
    `forensicross`."""
    source = str(Path(crypto.__file__).parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120, check=True,
    )
    return done.stdout


LOADED_OPENSSL = "print('cryptography' in sys.modules)"


@needs_sodium
def test_a_run_with_libsodium_never_loads_openssl(scenario_dir, tmp_path):
    # a top-level `cryptography` import anywhere in the package would put
    # its 7.5 MB back into every process
    scenario, out = scenario_dir / "tamper_demo.yaml", tmp_path / "out"
    code = f"""import sys
import forensicross
from forensicross.cli import main
assert main(["run", "--scenario", {str(scenario)!r}, "--out", {str(out)!r}]) == 0
{LOADED_OPENSSL}"""
    # the last line; `run` prints its summary first
    assert _in_a_fresh_interpreter(code).splitlines()[-1] == "False"


@needs_sodium
def test_a_forged_signature_is_refused_by_openssl_which_it_loads():
    code = f"""import sys
from forensicross.crypto import KeyPair, sign, verify
key = KeyPair.derive("forged")
signature = sign(b"m", key)
print(verify(b"m", signature, key.public_key))
{LOADED_OPENSSL}
print(verify(b"n", signature, key.public_key))
{LOADED_OPENSSL}"""
    assert _in_a_fresh_interpreter(code).split() == ["True", "False", "False", "True"]


@needs_sodium
def test_a_small_order_r_is_decided_by_openssl():
    # R = S = 0 under the identity key: [0]B = identity + [h]identity
    signature = IDENTITY + bytes(32)
    assert not crypto._sodium_accepts(SODIUM, b"m", signature, IDENTITY)
    assert _on_both_paths(lambda: verify(b"m", signature, IDENTITY)) == [True, True]


def _fake_sodium(**replaced) -> types.SimpleNamespace:
    """libsodium's four entry points that `crypto` calls, computed with
    `cryptography`, with the named ones replaced."""

    def seed_keypair(public, secret, seed):
        public_key = Ed25519PrivateKey.from_private_bytes(seed).public_key().public_bytes_raw()
        public.raw, secret.raw = public_key, seed + public_key
        return 0

    def sign_detached(signature, _length_out, message, length, secret):
        signature.raw = Ed25519PrivateKey.from_private_bytes(secret[:32]).sign(message[:length])
        return 0

    def verify_detached(signature, message, length, public_key):
        try:
            Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message[:length])
        except InvalidSignature:
            return -1
        return 0

    functions = {
        "sodium_init": lambda: 0,
        "crypto_sign_ed25519_seed_keypair": seed_keypair,
        "crypto_sign_ed25519_detached": sign_detached,
        "crypto_sign_ed25519_verify_detached": verify_detached,
    }
    functions.update(replaced)
    return types.SimpleNamespace(**functions)


# a library that is consistent with itself but is not Ed25519: its verify
# accepts exactly what its sign returns, so only the byte comparison with
# the RFC 8032 vector refuses it
def _sign_other_bytes(signature, _length_out, message, length, secret):
    signature.raw = hashlib.sha512(secret[32:] + message[:length]).digest()
    return 0


def _verify_other_bytes(signature, message, length, public_key):
    return 0 if signature == hashlib.sha512(public_key + message[:length]).digest() else -1


# a library that derives another seed's public key but signs correctly
def _derive_other_key(public, secret, seed):
    public_key = Ed25519PrivateKey.from_private_bytes(hash_bytes(seed)).public_key()
    public.raw = public_key.public_bytes_raw()
    secret.raw = seed + public.raw
    return 0


BROKEN_LIBRARIES = {
    "sodium_init fails": {"sodium_init": lambda: -1},
    "verify accepts everything": {"crypto_sign_ed25519_verify_detached": lambda *args: 0},
    "derives the wrong public key": {"crypto_sign_ed25519_seed_keypair": _derive_other_key},
    "sign returns wrong bytes": {
        "crypto_sign_ed25519_detached": _sign_other_bytes,
        "crypto_sign_ed25519_verify_detached": _verify_other_bytes,
    },
}


def test_a_library_that_matches_openssl_passes_the_known_answer_test():
    fake = _fake_sodium()
    assert crypto._checked_sodium(fake) is fake


@pytest.mark.parametrize("fault", sorted(BROKEN_LIBRARIES))
def test_a_broken_library_leaves_the_openssl_path_in_use(monkeypatch, fault):
    fake = _fake_sodium(**BROKEN_LIBRARIES[fault])
    assert crypto._checked_sodium(fake) is None
    monkeypatch.setattr(crypto.ctypes, "CDLL", lambda soname: fake)
    monkeypatch.setattr(crypto, "_SODIUM", crypto._load_sodium())
    assert crypto._SODIUM is None
    key = KeyPair.from_seed(hash_bytes(fault.encode()))
    signature = sign(b"m", key)
    assert signature == Ed25519PrivateKey.from_private_bytes(key.private_key).sign(b"m")
    assert verify(b"m", signature, key.public_key)
    assert not verify(b"m", bytes(64), key.public_key)
    assert "_sodium_secret" not in vars(key)


def test_a_library_without_the_ed25519_symbols_is_not_used():
    fake = _fake_sodium()
    del fake.crypto_sign_ed25519_verify_detached
    assert crypto._checked_sodium(fake) is None


def test_a_host_without_libsodium_loads_none(monkeypatch):
    def absent(soname):
        raise OSError(f"{soname}: cannot open shared object file")

    monkeypatch.setattr(crypto.ctypes, "CDLL", absent)
    assert crypto._load_sodium() is None


def test_openssl_refuses_a_key_that_is_not_32_bytes():
    with pytest.raises(MalformedKeyError):
        crypto._openssl_verify(b"m", bytes(64), bytes(31))


def test_openssl_refuses_a_signature_of_the_wrong_length():
    key = KeyPair.derive("wrong length")
    signature = sign(b"m", key)
    for wrong in (signature[:63], signature + b"\x00", b""):
        assert crypto._openssl_verify(b"m", wrong, key.public_key) is False
        assert verify(b"m", wrong, key.public_key) is False
