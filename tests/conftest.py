from __future__ import annotations

import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from forensicross import crypto
from forensicross.chain import Block, Chain, PayloadKind, Transaction, make_transaction
from forensicross.crypto import KeyPair

SCENARIOS = Path(__file__).parent.parent / "scenarios"


# arbitrary field values: enough for the codec and the digest, not signed
transactions = st.builds(
    Transaction,
    tx_id=st.text(max_size=12),
    sender_public_key=st.binary(max_size=32),
    payload_kind=st.sampled_from(list(PayloadKind)),
    body=st.binary(max_size=60),
    source_chain=st.text(max_size=6),
    destination_chains=st.lists(st.text(max_size=6), max_size=4).map(tuple),
    signature=st.binary(max_size=64),
)


@pytest.fixture
def scenario_dir() -> Path:
    return SCENARIOS


@pytest.fixture
def openssl_only(monkeypatch) -> None:
    """Ed25519 through OpenSSL alone, as on a host without libsodium."""
    monkeypatch.setattr(crypto, "_SODIUM", None)


def build_random_chain(
    rng: random.Random, blocks: int = 10, keys: int = 3
) -> tuple[Chain, list[KeyPair]]:
    """A chain of `blocks` blocks with random payload transactions."""
    validators = [KeyPair.derive(f"val{i}:{rng.random()}") for i in range(keys)]
    user = KeyPair.derive(f"user:{rng.random()}")
    chain = Chain("T", [v.public_key for v in validators])
    for height in range(blocks):
        for _ in range(rng.randint(0, 3)):
            body = rng.randbytes(rng.randint(1, 40))
            tx = make_transaction(
                PayloadKind.DATA_ACCESS_LOG, body, "T",
                ["X"] if rng.random() < 0.3 else [], user,
            )
            chain.submit_transaction(tx)
        chain.mine_block(validators[height % keys], timestamp=height)
    return chain, validators


def _flip_bytes(data: bytes, index: int) -> bytes:
    return data[:index] + bytes([data[index] ^ 0xFF]) + data[index + 1:]


def _flip_str(text: str, index: int) -> str:
    return text[:index] + chr(ord(text[index]) ^ 1) + text[index + 1:]


def mutate_block_somewhere(block: Block, rng: random.Random) -> tuple[Block, str]:
    """Flip one byte/bit of one field value somewhere in the block, including
    inside its transactions. Returns (mutated block, description)."""
    choices: list[tuple[str, callable]] = [
        ("prev_hash", lambda b: replace(b, prev_hash=_flip_bytes(b.prev_hash, rng.randrange(32)))),
        ("tx_merkle_root", lambda b: replace(b, tx_merkle_root=_flip_bytes(b.tx_merkle_root, rng.randrange(32)))),
        ("timestamp", lambda b: replace(b, timestamp=b.timestamp ^ (1 << rng.randrange(16)))),
        ("height", lambda b: replace(b, height=b.height ^ (1 << rng.randrange(8)))),
        ("validator_public_key", lambda b: replace(b, validator_public_key=_flip_bytes(b.validator_public_key, rng.randrange(32)))),
        ("validator_signature", lambda b: replace(b, validator_signature=_flip_bytes(b.validator_signature, rng.randrange(64)))),
    ]
    if block.transactions:
        j = rng.randrange(len(block.transactions))

        def mutate_tx(b: Block, j=j) -> Block:
            tx = b.transactions[j]
            tx_choices: list[tuple[str, Transaction]] = [
                ("tx_id", replace(tx, tx_id=_flip_str(tx.tx_id, rng.randrange(len(tx.tx_id))))),
                ("sender", replace(tx, sender_public_key=_flip_bytes(tx.sender_public_key, rng.randrange(32)))),
                ("body", replace(tx, body=_flip_bytes(tx.body, rng.randrange(len(tx.body))) if tx.body else b"\xff")),
                ("source", replace(tx, source_chain=_flip_str(tx.source_chain, rng.randrange(len(tx.source_chain))))),
                ("signature", replace(tx, signature=_flip_bytes(tx.signature, rng.randrange(64)))),
            ]
            if tx.destination_chains:
                d = rng.randrange(len(tx.destination_chains))
                dests = list(tx.destination_chains)
                dests[d] = _flip_str(dests[d], rng.randrange(len(dests[d])))
                tx_choices.append(("destinations", replace(tx, destination_chains=tuple(dests))))
            _name, mutated = rng.choice(tx_choices)
            txs = list(b.transactions)
            txs[j] = mutated
            return replace(b, transactions=tuple(txs))

        choices.append(("transaction", mutate_tx))
    name, fn = rng.choice(choices)
    return fn(block), name
