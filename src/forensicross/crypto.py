"""Hashing, Ed25519 signatures, and Merkle trees.

All digests are 32-byte SHA-256 values. Merkle trees duplicate the last
node at odd-width levels; a single-leaf tree's root is that leaf.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cache, cached_property

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

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

    The parsed signing key is built on the first `sign` and cached on the
    instance (outside `__eq__`, `__hash__` and `repr`). It is not built
    eagerly: most derived keys never sign, and each parsed key costs memory.
    """

    public_key: bytes
    private_key: bytes

    @classmethod
    def from_seed(cls, seed: bytes) -> "KeyPair":
        if len(seed) != 32:
            raise MalformedKeyError(f"seed must be 32 bytes, got {len(seed)}")
        priv = Ed25519PrivateKey.from_private_bytes(seed)
        return cls(public_key=priv.public_key().public_bytes_raw(), private_key=seed)

    @classmethod
    @cache
    def derive(cls, *labels: str | bytes) -> "KeyPair":
        """Deterministic key pair from arbitrary labels (simulation seeding).

        The seed is SHA-256 of the concatenated labels and the public key is
        a pure function of the seed (RFC 8032), so equal labels always give
        an equal, frozen key. Each key is therefore derived once per process
        and the same object is returned for equal labels: every `World` of a
        seed shares its node, contract and user keys, and a key's parsed
        signer is built once. The cache is unbounded; the distinct keys are
        the names of the scenarios a process loads (1,813 for
        `compare_designs(2, 20, ...)`). Each costs about 390 bytes with its
        cache entry, plus about 460 bytes once it has signed. Use
        `from_seed` for a separate, uncached object.
        """
        h = hashlib.sha256()
        for label in labels:
            h.update(label.encode("utf-8") if isinstance(label, str) else label)
        return cls.from_seed(h.digest())

    @cached_property
    def _signer(self) -> Ed25519PrivateKey:
        return Ed25519PrivateKey.from_private_bytes(self.private_key)

    def __getstate__(self) -> dict:
        # the parsed key cannot be pickled; it is rebuilt on the next sign
        return {"public_key": self.public_key, "private_key": self.private_key}


def sign(message: bytes, key: KeyPair) -> bytes:
    return key._signer.sign(message)


def verify(message: bytes, signature: bytes, public_key: bytes) -> bool:
    """True iff signature is valid. Malformed keys raise, they never verify."""
    if not isinstance(public_key, bytes) or len(public_key) != 32:
        raise MalformedKeyError("public key must be 32 raw bytes")
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


class MerkleTree:
    """Binary hash tree over an ordered list of digests.

    levels[0] is the leaf list; each next level pairs adjacent nodes as
    hash(left || right), duplicating the last node when a level is odd.
    """

    def __init__(self, leaves: list[Digest]):
        if not leaves:
            raise EmptyLeavesError("merkle tree needs at least one leaf")
        for leaf in leaves:
            if len(leaf) != DIGEST_SIZE:
                raise ValueError(f"leaf must be {DIGEST_SIZE} bytes, got {len(leaf)}")
        self.leaves = list(leaves)
        self.levels: list[list[Digest]] = [list(leaves)]
        level = list(leaves)
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
