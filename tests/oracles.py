"""Independent reference implementations the tests check the package against.

Everything here goes straight to hashlib/arithmetic on purpose: these must
not share code paths with the implementations they verify.
"""
from __future__ import annotations

import hashlib
from collections import Counter
from itertools import combinations


def sha(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def recursive_merkle_root(leaves: list[bytes]) -> bytes:
    """Pairwise bottom-up root with duplicate-last padding."""
    if len(leaves) == 1:
        return leaves[0]
    if len(leaves) % 2 == 1:
        leaves = leaves + [leaves[-1]]
    parents = [sha(leaves[i] + leaves[i + 1]) for i in range(0, len(leaves), 2)]
    return recursive_merkle_root(parents)


def nested_stage_leaf(tx_hashes: list[bytes]) -> bytes:
    return sha(sha(b"".join(tx_hashes)))


def majority_status(expected: int, bodies: list[bytes]) -> str:
    """Brute-force strict-majority counter.

    Validated iff some body already holds strictly more than expected/2
    counts. Otherwise Pending iff some completion by the remaining
    (expected - len(bodies)) nodes could still produce such a body: by
    monotonicity it suffices to award every remaining submission to one
    candidate body (each seen body, or one fresh body) and test it.
    """
    counts = Counter(bodies)
    if counts and max(counts.values()) * 2 > expected:
        return "Validated"
    remaining = expected - len(bodies)
    candidates = list(counts.values()) + [0]
    if any((c + remaining) * 2 > expected for c in candidates):
        return "Pending"
    return "Rejected"


def complete_graph_edges(k: int) -> int:
    return len(list(combinations(range(k), 2)))


def min_bridge_nodes_search(k: int, set_size: int = 3) -> int:
    """Smallest m that admits k disjoint mutual sets of `set_size` under the
    sizing rules: each set below half the bridge (strictly), the sets fit
    disjointly, and the combined per-chain share at most half of m."""
    m = 1
    while True:
        fits = k * set_size <= m
        below_half = set_size < m / 2
        share_ok = set_size <= m / 2
        if fits and below_half and share_ok:
            return m
        m += 1


def eager_topology(
    design: str, chains: list[str], nodes_per_chain: int, bridge_nodes: int, n_i: int
) -> tuple[dict[str, list[str]], dict[tuple[str, str], tuple[str, tuple[str, ...]]]]:
    """Every chain's node names and every link's (label, members), all built
    up front: a bridge link is `c` with "BRIDGE", a mesh link is each pair
    `a~b` in chain order; a chain's nodes are the members of its links in
    link order, then `c.r0`, `c.r1`, ... up to the chain's size."""
    if design == "bridge":
        edges = [(c, "BRIDGE", c) for c in chains]
        sizes = {**{c: nodes_per_chain for c in chains}, "BRIDGE": bridge_nodes}
    else:
        edges = [(a, b, a + "~" + b) for a, b in combinations(chains, 2)]
        sizes = {c: nodes_per_chain for c in chains}
    names: dict[str, list[str]] = {c: [] for c in sizes}
    links = {}
    for a, b, label in edges:
        members = tuple("%s.m%d" % (label, i) for i in range(n_i))
        links[(a, b)] = links[(b, a)] = (label, members)
        names[a].extend(members)
        names[b].extend(members)
    for c, size in sizes.items():
        names[c].extend("%s.r%d" % (c, j) for j in range(size - len(names[c])))
    return names, links
