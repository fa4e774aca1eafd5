"""Cross-chain digital-forensics collaboration over a bridge chain.

Private proof-of-authority chains exchange case traffic through mutual
nodes and strict-majority verification; a bridge-side registry tracks the
staged case lifecycle; per-stage Merkle provenance localizes tampering.
A deterministic simulator reproduces the communication and sizing
comparisons at desk scale.
"""

from .chain import (
    Block,
    Chain,
    ChainFault,
    PayloadKind,
    Transaction,
    dump_chain,
    make_transaction,
    validate_chain,
)
from .comm import (
    DeliveryReport,
    MutualNodeSet,
    TranslatedEnvelope,
    VerificationContract,
    VerifyStatus,
    hop_origin,
    translate,
    verify_translations,
)
from .crypto import Digest, KeyPair, MerkleTree, hash_bytes, merkle_root, sign, verify
from .lifecycle import (
    AccessPolicy,
    Action,
    ALLOWED,
    DENIED,
    OrgChainState,
    check_access,
)
from .provenance import (
    OffchainCaseStore,
    ProvenanceBundle,
    TamperReport,
    case_chain_root,
    extract_provenance,
    stage_leaf,
    verify_and_localize,
)
from .registry import BridgeRegistry, CaseContract, StageHashRecord, StageOutcome
from .scenario import Scenario, load_scenario
from .sim import World, compare_designs, route_transaction, run_scenario
from .topology import (
    Design,
    TopologyParams,
    bridge_requirements,
    communication_counts,
    comparison_table,
    crossover_k,
    mesh_mutual_nodes,
    validate_topology,
)

__version__ = "0.1.0"
