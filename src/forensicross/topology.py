"""Mutual-node sizing rules and the mesh-vs-bridge comparison.

Two ways to interconnect k private chains: a complete graph of direct
mutual-node pairs (mesh), or one bridge chain every organization chain
shares mutual nodes with. The functions here give the minimum mutual-node
counts, bridge sizing, the crossover point where the bridge wins, and the
per-message verification-hop counts the simulator must reproduce.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import count

MIN_MUTUAL_PER_LINK = 3  # smallest odd size above 2


class Design(Enum):
    MESH = "mesh"
    BRIDGE = "bridge"


@dataclass(frozen=True)
class TopologyParams:
    """k chains of n nodes each; n_i mutual nodes per chain; a bridge of m
    nodes holding b_i mutual nodes in total (bridge design only)."""

    k: int
    m: int
    n: int
    n_i: int
    b_i: int

    def __post_init__(self):
        for name in ("k", "m", "n", "n_i", "b_i"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class Violation:
    rule: str
    detail: str


def validate_topology(params: TopologyParams, design: Design) -> list[Violation]:
    """Every violated constraint, tagged by rule; empty list means ok.

    The upper bound on total bridge mutual nodes (rule eq5) is applied to
    each chain's share b_i/k, the only reading under which the minimum
    bridge configuration (n_i = 3, m = 6k+1) is itself valid.
    """
    v: list[Violation] = []
    k, m, n, n_i, b_i = params.k, params.m, params.n, params.n_i, params.b_i

    if n_i <= 2:
        v.append(Violation("eq1", f"mutual set size {n_i} must exceed 2"))
    if not (2 < n_i < n / 2):
        v.append(Violation("eq2", f"need 2 < n_i < n/2, got n_i={n_i}, n={n}"))

    if design is Design.MESH:
        if (k - 1) * n_i > n:
            v.append(
                Violation(
                    "eq3",
                    f"{k - 1} disjoint pair sets of {n_i} exceed the {n} nodes per chain",
                )
            )
    else:
        if n_i >= m / 2:
            v.append(Violation("eq1", f"need n_i < m/2, got n_i={n_i}, m={m}"))
        if b_i != k * n_i:
            v.append(
                Violation("eq3", f"bridge mutual total {b_i} != k*n_i = {k * n_i}")
            )
        if k * n_i > m:
            v.append(
                Violation("eq3", f"{k} disjoint sets of {n_i} exceed the {m} bridge nodes")
            )
        share = b_i / k
        if not (2 < share <= min(n / 2, m / 2)):
            v.append(
                Violation(
                    "eq5",
                    f"per-chain bridge share {share:g} outside (2, min(n/2, m/2)={min(n / 2, m / 2):g}]",
                )
            )
    # a strict majority of an even set can be a tie; both designs need odd sets
    if n_i % 2 == 0:
        v.append(Violation("odd", f"mutual set size {n_i} must be odd"))
    return v


def mesh_mutual_nodes(k: int) -> int:
    """Minimum mutual nodes for a complete graph of k chains: 3 per edge."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return k * (k - 1) * MIN_MUTUAL_PER_LINK // 2


def bridge_mutual_nodes(k: int) -> int:
    """Minimum mutual nodes when every chain pairs with the bridge instead."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return MIN_MUTUAL_PER_LINK * k


def bridge_requirements(k: int) -> tuple[int, int]:
    """(m_min, b_min): minimum bridge size 6k+1 and mutual-node total 3k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return 6 * k + 1, bridge_mutual_nodes(k)


def crossover_k() -> int:
    """Smallest k at which the bridge needs no more mutual nodes than the mesh."""
    for k in count(1):
        if bridge_mutual_nodes(k) <= mesh_mutual_nodes(k):
            return k
    raise AssertionError("unreachable")


def communication_counts(k: int, pattern: str) -> tuple[int, int]:
    """(mesh_hops, bridge_hops): inter-chain verification events per message.

    Mesh pays one verification per destination; the bridge adds one
    source-to-bridge verification in front of the per-destination ones.
    pattern is "single" (one destination) or "broadcast" (all k-1 others).
    """
    if k < 2:
        raise ValueError("cross-chain communication needs k >= 2")
    if pattern == "single":
        destinations = 1
    elif pattern == "broadcast":
        destinations = k - 1
    else:
        raise ValueError(f"unknown pattern {pattern!r}")
    return destinations, 1 + destinations


def comparison_table(k_min: int, k_max: int) -> list[dict]:
    """Rows of the mesh-vs-bridge comparison for k in [k_min, k_max]."""
    if not (1 <= k_min <= k_max):
        raise ValueError(f"bad k range [{k_min}, {k_max}]")
    rows = []
    for k in range(k_min, k_max + 1):
        if k >= 2:
            mesh_hops, bridge_hops = communication_counts(k, "broadcast")
        else:
            mesh_hops, bridge_hops = 0, 0
        m_min, b_min = bridge_requirements(k)
        rows.append(
            {
                "k": k,
                "mesh_mutual": mesh_mutual_nodes(k),
                "bridge_mutual": bridge_mutual_nodes(k),
                "mesh_hops_broadcast": mesh_hops,
                "bridge_hops_broadcast": bridge_hops,
                "m_min": m_min,
                "b_min": b_min,
            }
        )
    return rows
