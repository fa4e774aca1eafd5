"""A private proof-of-authority chain and what happens when history is edited.

Three validators take turns mining. Any byte changed in an old block breaks
either its transaction Merkle root, its header signature, or the next
block's linkage, and validation reports the lowest broken height.
"""
from dataclasses import replace
from pathlib import Path
from tempfile import gettempdir

from forensicross import (
    Chain,
    KeyPair,
    PayloadKind,
    dump_chain,
    make_transaction,
    validate_chain,
)

validators = [KeyPair.derive("validator", str(i)) for i in range(3)]
user = KeyPair.derive("clerk")
chain = Chain("EVIDENCE", [v.public_key for v in validators])

for height in range(6):
    for item in range(2):
        tx = make_transaction(
            PayloadKind.DATA_ACCESS_LOG,
            f"record {height}-{item}".encode(),
            "EVIDENCE",
            [],
            user,
        )
        chain.submit_transaction(tx)
    block = chain.mine_block(validators[height % 3], timestamp=height)
    print(f"mined block {block.height}: {len(block.transactions)} txs, "
          f"hash {block.header_digest().hex()[:16]}…")

print()
print("validate untampered chain:", validate_chain(chain))

# rewrite one transaction body deep in the chain
target = chain.blocks[2]
txs = list(target.transactions)
txs[0] = replace(txs[0], body=b"record 2-0 (doctored)")
chain.blocks[2] = replace(target, transactions=tuple(txs))
fault = validate_chain(chain)
print(f"after editing a block-2 transaction: broken at height {fault.height} ({fault.reason})")

# restore and dump the chain for inspection
chain.blocks[2] = target
path = Path(gettempdir()) / "evidence-chain.jsonl"
dump_chain(chain, path)
print(f"chain dumped to {path} ({len(path.read_text().splitlines())} lines)")
