"""Hashing, Ed25519 signatures, and Merkle trees.

All digests are 32-byte SHA-256 values. Merkle trees duplicate the last
node at odd-width levels; a single-leaf tree's root is that leaf.

Ed25519 (RFC 8032) runs on one of two backends with the same bytes and the
same verdicts. When the host has libsodium (`libsodium.so.23`) and it
reproduces RFC 8032 section 7.1 TEST 1 at import, it derives every public
key, signs every `bytes` message and gives every acceptance: on a 2-CPU
x86-64 host, libsodium 1.0.18 signs in about 47 µs and verifies in about
95–118 µs, where OpenSSL through `cryptography` takes about 63 µs and
214–232 µs. OpenSSL decides every input libsodium refuses, so every
verdict is OpenSSL's. `cryptography` is imported only when OpenSSL is
called: loading it costs about 7.5 MB of peak RSS, and a process that
signs and accepts only valid signatures never needs it. Without
libsodium, `_SODIUM` is None and OpenSSL does all of the work. There is no
option to choose: a host without libsodium has only OpenSSL.
"""
from __future__ import annotations

import ctypes
import hashlib
from dataclasses import dataclass
from functools import cache, cached_property
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

Digest = bytes

DIGEST_SIZE = 32
ZERO_DIGEST = b"\x00" * DIGEST_SIZE


class MalformedKeyError(ValueError):
    """A key that cannot possibly verify anything."""


class EmptyLeavesError(ValueError):
    """Merkle root of zero leaves is undefined here (a case has >= 1 stage)."""


def hash_bytes(data: bytes) -> Digest:
    """SHA-256 of raw bytes; the one hash function used everywhere."""
    return hashlib.sha256(data).digest()


@dataclass(frozen=True)
class KeyPair:
    """Ed25519 key pair; private_key is the 32-byte seed.

    `from_seed` takes the public key from the active backend: libsodium's
    `crypto_sign_ed25519_seed_keypair`, or OpenSSL. The signing key of the
    active backend is built on the first `sign` and cached on the instance
    (outside `__eq__`, `__hash__` and `repr`, and dropped by
    `__getstate__`): libsodium's 64-byte secret key (`_sodium_secret`), or
    OpenSSL's parsed key (`_signer`). It is not built eagerly: most derived
    keys never sign, and each cached key costs memory.
    """

    public_key: bytes
    private_key: bytes

    @classmethod
    def from_seed(cls, seed: bytes) -> "KeyPair":
        if len(seed) != 32:
            raise MalformedKeyError(f"seed must be 32 bytes, got {len(seed)}")
        if _SODIUM is None or not isinstance(seed, bytes):
            public_key = _openssl_private_key(seed).public_key().public_bytes_raw()
        else:
            public_key = _sodium_secret_key(_SODIUM, seed)[32:]
        return cls(public_key=public_key, private_key=seed)

    @classmethod
    @cache
    def derive(cls, *labels: str | bytes) -> "KeyPair":
        """Deterministic key pair from arbitrary labels (simulation seeding).

        The seed is SHA-256 of the concatenated labels and the public key is
        a pure function of the seed (RFC 8032), so equal labels always give
        an equal, frozen key. Each key is therefore derived once per process
        and the same object is returned for equal labels: every `World` of a
        seed shares its node, contract and user keys, and each key's signing
        key is built once. The cache is unbounded; the distinct keys are the
        contract and user keys of the scenarios a process loads and the keys
        of the nodes that act in them (139 for `compare_designs(2, 20,
        "broadcast")`, 31 for `"single"`). Each costs about 390 bytes with its
        cache entry. Once it has signed, libsodium's cached secret key adds
        about 170 bytes, and OpenSSL's parsed key about 420–460. Use
        `from_seed` for a separate, uncached object.
        """
        h = hashlib.sha256()
        for label in labels:
            h.update(label.encode("utf-8") if isinstance(label, str) else label)
        return cls.from_seed(h.digest())

    @cached_property
    def _signer(self) -> Ed25519PrivateKey:
        return _openssl_private_key(self.private_key)

    @cached_property
    def _sodium_secret(self) -> bytes:
        return _sodium_secret_key(_SODIUM, self.private_key)

    def __getstate__(self) -> dict:
        # the cached signing keys are dropped; they are rebuilt on the next sign
        return {"public_key": self.public_key, "private_key": self.private_key}


def sign(message: bytes, key: KeyPair) -> bytes:
    """Ed25519 signature of `message` under the key's seed (deterministic).

    With libsodium, `crypto_sign_ed25519_detached` signs with the seed
    followed by the public key libsodium derives from it, never the
    `public_key` field, so a KeyPair whose fields do not match signs exactly
    as OpenSSL signs it. A message that is not `bytes` goes to OpenSSL.
    """
    if _SODIUM is None or not isinstance(message, bytes):
        return key._signer.sign(message)
    return _sodium_sign(_SODIUM, message, key._sodium_secret)


def verify(message: bytes, signature: bytes, public_key: bytes) -> bool:
    """True iff signature is valid. Malformed keys raise, they never verify.

    The answer is OpenSSL's for every input. With libsodium, a `bytes`
    message with a 64-byte `bytes` signature is first checked by
    `crypto_sign_ed25519_verify_detached`, and its acceptance is final.
    That is sound because libsodium accepts a subset of what OpenSSL
    accepts: both check `[S]B = R + [h]A` without the cofactor, with
    `h = SHA-512(R || A || M)`, a canonical `S` and a byte comparison of
    `R`, and libsodium also refuses a small-order or non-canonical `A` and
    a small-order `R`. Every input libsodium refuses, and every other
    input, is decided by OpenSSL, which is imported for it
    (`_openssl_verify`), so a forged signature costs two verifies. A key
    that is not 32 `bytes` raises here; OpenSSL parses a 32-byte key only
    where it decides, and that parse refused none of 20,000 random keys.
    """
    if not isinstance(public_key, bytes) or len(public_key) != 32:
        raise MalformedKeyError("public key must be 32 raw bytes")
    if (
        _SODIUM is not None
        and isinstance(message, bytes)
        and isinstance(signature, bytes)
        and len(signature) == 64
        and _sodium_accepts(_SODIUM, message, signature, public_key)
    ):
        return True
    return _openssl_verify(message, signature, public_key)


class MerkleTree:
    """Binary hash tree over an ordered list of digests.

    levels[0] is the leaf list; each next level pairs adjacent nodes as
    hash(left || right), duplicating the last node when a level is odd.

    The duplication makes the root ambiguous: leaves (a, b, c) and
    (a, b, c, c) share one root (the CVE-2012-2459 pattern), so
    `validate_chain` refuses a block that repeats a transaction. RFC 6962
    §2.1 closes the ambiguity in the construction itself, with
    domain-separated leaf and node hashes and no duplication, but adopting
    it would change every block hash and every pinned golden hash.
    """

    def __init__(self, leaves: list[Digest]):
        if not leaves:
            raise EmptyLeavesError("merkle tree needs at least one leaf")
        for leaf in leaves:
            if len(leaf) != DIGEST_SIZE:
                raise ValueError(f"leaf must be {DIGEST_SIZE} bytes, got {len(leaf)}")
        self.levels: list[list[Digest]] = [list(leaves)]
        level = self.levels[0]
        while len(level) > 1:
            if len(level) % 2 == 1:
                level = level + [level[-1]]
            level = [
                hash_bytes(level[i] + level[i + 1]) for i in range(0, len(level), 2)
            ]
            self.levels.append(level)

    @property
    def root(self) -> Digest:
        return self.levels[-1][0]


def merkle_root(leaves: list[Digest]) -> Digest:
    """Root of the duplicate-last-padded tree; a single leaf is its own root."""
    return MerkleTree(leaves).root


# `cryptography` is imported inside these two functions, not at module
# level: loading OpenSSL costs about 7.5 MB of peak RSS, and a process with
# libsodium calls them only for a verdict libsodium cannot give.
def _openssl_private_key(seed: bytes) -> Ed25519PrivateKey:
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

    return Ed25519PrivateKey.from_private_bytes(seed)


def _openssl_verify(message: bytes, signature: bytes, public_key: bytes) -> bool:
    from cryptography.exceptions import InvalidSignature
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

    try:
        pub = Ed25519PublicKey.from_public_bytes(public_key)
    except ValueError as exc:
        raise MalformedKeyError(str(exc)) from exc
    try:
        pub.verify(signature, message)
        return True
    except InvalidSignature:
        return False
    except ValueError:
        # e.g. signature of the wrong length
        return False


# libsodium's soname on Debian and Ubuntu (package libsodium23). It is
# loaded by that name: `ctypes.util.find_library` would start an `ldconfig`
# subprocess and cost about 1 MB of memory.
_SODIUM_SONAME = "libsodium.so.23"

# the argument types of each libsodium function called; each returns an int
_SODIUM_FUNCTIONS = {
    "sodium_init": (),
    "crypto_sign_ed25519_seed_keypair": (ctypes.c_char_p,) * 3,
    "crypto_sign_ed25519_detached": (
        ctypes.c_char_p, ctypes.c_void_p, ctypes.c_char_p, ctypes.c_ulonglong, ctypes.c_char_p,
    ),
    "crypto_sign_ed25519_verify_detached": (
        ctypes.c_char_p, ctypes.c_char_p, ctypes.c_ulonglong, ctypes.c_char_p,
    ),
}


def _sodium_secret_key(lib, seed: bytes) -> bytes:
    """libsodium's 64-byte secret key: the seed, then its public key."""
    public = ctypes.create_string_buffer(32)
    secret = ctypes.create_string_buffer(64)
    lib.crypto_sign_ed25519_seed_keypair(public, secret, seed)
    return secret.raw


def _sodium_sign(lib, message: bytes, secret: bytes) -> bytes:
    signature = ctypes.create_string_buffer(64)
    lib.crypto_sign_ed25519_detached(signature, None, message, len(message), secret)
    return signature.raw


def _sodium_accepts(lib, message: bytes, signature: bytes, public_key: bytes) -> bool:
    return lib.crypto_sign_ed25519_verify_detached(
        signature, message, len(message), public_key
    ) == 0


# RFC 8032 section 7.1, TEST 1: a seed, its public key, and its signature
# of the empty message
_RFC8032_SEED = bytes.fromhex(
    "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"
)
_RFC8032_PUBLIC_KEY = bytes.fromhex(
    "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
)
_RFC8032_SIGNATURE = bytes.fromhex(
    "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
    "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
)


def _checked_sodium(lib):
    """`lib` with its Ed25519 functions typed, if it reproduces RFC 8032
    TEST 1: it derives the vector's public key from its seed, signs the
    empty message to the vector's exact bytes, accepts that signature and
    refuses it with one bit flipped; otherwise None."""
    try:
        for name, argtypes in _SODIUM_FUNCTIONS.items():
            function = getattr(lib, name)
            function.argtypes, function.restype = argtypes, ctypes.c_int
    except AttributeError:  # a library without these symbols
        return None
    if lib.sodium_init() < 0:
        return None
    secret = _sodium_secret_key(lib, _RFC8032_SEED)
    signature = _sodium_sign(lib, b"", secret)
    flipped = bytes([signature[0] ^ 1]) + signature[1:]
    if (
        secret[32:] == _RFC8032_PUBLIC_KEY
        and signature == _RFC8032_SIGNATURE
        and _sodium_accepts(lib, b"", signature, _RFC8032_PUBLIC_KEY)
        and not _sodium_accepts(lib, b"", flipped, _RFC8032_PUBLIC_KEY)
    ):
        return lib
    return None


def _load_sodium():
    """The host's libsodium if it loads and passes `_checked_sodium`, else None."""
    try:
        lib = ctypes.CDLL(_SODIUM_SONAME)
    except OSError:  # not installed
        return None
    return _checked_sodium(lib)


_SODIUM = _load_sodium()
