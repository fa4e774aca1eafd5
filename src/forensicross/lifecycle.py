"""Organization-chain side of a case: creation requests, the staged role
matrix, and retrieval/upload logging.

Every chain keeps its own view of each shared case (creator, participants,
current stage, the dispatched policy). Access decisions are deny-by-default
lookups in a (role, stage) -> actions matrix; every attempt, allowed or
denied, becomes a DataAccessLog transaction on the local chain.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .canonical import DecodeError, Reader, dec_enum, enc_int, enc_str, enc_str_list
from .chain import PayloadKind, Transaction, make_transaction
from .crypto import Digest, KeyPair, hash_bytes
from .errors import (
    EmptyDestinations,
    MalformedPolicy,
    UnknownCase,
    UnknownUser,
)
from .payloads import (
    AccessControlPayload,
    CaseCreatePayload,
    DataAccessLogPayload,
    ProvenanceRequestPayload,
    QueryNodeAssignPayload,
    StageProposalPayload,
    StageVotePayload,
    encode_payload,
)

DEFAULT_STAGE_NAMES = (
    "identification",
    "preservation",
    "collection",
    "analysis",
    "reporting",
)


class Action(Enum):
    READ = "read"
    UPLOAD = "upload"
    PROPOSE_STAGE = "propose-stage"
    QUERY = "query"


ALLOWED = "Allowed"
DENIED = "Denied"


@dataclass(frozen=True)
class AccessPolicy:
    """Static (role, stage) -> actions matrix; absent entries mean deny."""

    roles: frozenset[str]
    grants: tuple[tuple[str, int, frozenset[Action]], ...]  # (role, stage, actions)

    @classmethod
    def build(
        cls, roles: list[str], grants: dict[tuple[str, int], set[Action]]
    ) -> "AccessPolicy":
        for (role, _stage), _actions in grants.items():
            if role not in roles:
                raise MalformedPolicy(f"grant references undeclared role {role!r}")
        normalized = tuple(
            (role, stage, frozenset(actions))
            for (role, stage), actions in sorted(grants.items())
        )
        return cls(roles=frozenset(roles), grants=normalized)

    def actions_for(self, role: str, stage: int) -> frozenset[Action]:
        for r, s, actions in self.grants:
            if r == role and s == stage:
                return actions
        return frozenset()

    def canonical_bytes(self) -> bytes:
        out = enc_str_list(sorted(self.roles))
        out += enc_int(len(self.grants))
        for role, stage, actions in self.grants:
            out += enc_str(role)
            out += enc_int(stage)
            out += enc_str_list(sorted(a.value for a in actions))
        return out

    @classmethod
    def from_canonical(cls, data: bytes) -> "AccessPolicy":
        r = Reader(data)
        roles = r.read_str_list()
        grants: dict[tuple[str, int], set[Action]] = {}
        for _ in range(r.read_int()):
            role = r.read_str()
            stage = r.read_int()
            actions = {dec_enum(Action, v) for v in r.read_str_list()}
            grants[(role, stage)] = actions
        r.expect_end()
        try:
            return cls.build(roles, grants)
        except MalformedPolicy as exc:
            raise DecodeError(str(exc)) from exc

    def digest(self) -> Digest:
        return hash_bytes(self.canonical_bytes())


def check_access(policy: AccessPolicy, role: str, stage: int, action: Action) -> str:
    """ALLOWED iff the action is explicitly granted for (role, stage)."""
    return ALLOWED if action in policy.actions_for(role, stage) else DENIED


@dataclass
class AccessLogEntry:
    case_number: str
    actor_public_key: bytes
    role: str
    action: Action
    stage: int
    decision: str
    tick: int
    tx_id: str = ""

    def to_record(self) -> dict:
        return {
            "case": self.case_number,
            "actor": self.actor_public_key.hex(),
            "role": self.role,
            "action": self.action.value,
            "stage": self.stage,
            "decision": self.decision,
            "tick": self.tick,
            "tx_id": self.tx_id,
        }


@dataclass
class LocalCase:
    """One chain's replica of a shared case's control state."""

    case_number: str
    source_chain: str
    destination_chains: tuple[str, ...]
    creator_public_key: bytes
    stage: int = 0
    policy: AccessPolicy | None = None
    proposal_attempts: dict[int, int] = field(default_factory=dict)

    @property
    def participants(self) -> tuple[str, ...]:
        return (self.source_chain, *self.destination_chains)


class OrgChainState:
    """Lifecycle state machine of one organization chain."""

    def __init__(self, chain_id: str):
        self.chain_id = chain_id
        self.registered_users: dict[bytes, str] = {}  # public key -> role
        self.cases: dict[str, LocalCase] = {}
        self.access_log: list[AccessLogEntry] = []

    def register_user(self, key: KeyPair, role: str) -> None:
        self.registered_users[key.public_key] = role

    def require_user(self, key: KeyPair) -> str:
        try:
            return self.registered_users[key.public_key]
        except KeyError:
            raise UnknownUser(f"user not registered on {self.chain_id}") from None

    def require_case(self, case_number: str) -> LocalCase:
        try:
            return self.cases[case_number]
        except KeyError:
            raise UnknownCase(f"{case_number} unknown on {self.chain_id}") from None

    # -- transaction builders -------------------------------------------------

    def create_case_request(
        self, user: KeyPair, case_number: str, destinations: list[str]
    ) -> Transaction:
        self.require_user(user)
        if not destinations:
            raise EmptyDestinations(case_number)
        body = encode_payload(CaseCreatePayload(case_number))
        return make_transaction(
            PayloadKind.CASE_CREATE, body, self.chain_id, destinations, user
        )

    def dispatch_access_policy(
        self, user: KeyPair, case_number: str, policy: AccessPolicy
    ) -> Transaction:
        self.require_user(user)
        case = self.require_case(case_number)
        body = encode_payload(AccessControlPayload(case_number, policy.canonical_bytes()))
        return make_transaction(
            PayloadKind.ACCESS_CONTROL, body, self.chain_id, case.destination_chains, user
        )

    def assign_query_nodes_request(
        self, user: KeyPair, case_number: str, public_keys: list[bytes]
    ) -> Transaction:
        self.require_user(user)
        self.require_case(case_number)
        body = encode_payload(QueryNodeAssignPayload(case_number, tuple(public_keys)))
        return make_transaction(PayloadKind.QUERY_NODE_ASSIGN, body, self.chain_id, (), user)

    def propose_stage_request(
        self, user: KeyPair, case_number: str, stage: int
    ) -> Transaction:
        self.require_user(user)
        case = self.require_case(case_number)
        attempt = case.proposal_attempts.get(stage, 0) + 1
        case.proposal_attempts[stage] = attempt
        body = encode_payload(StageProposalPayload(case_number, stage, attempt))
        return make_transaction(PayloadKind.STAGE_PROPOSAL, body, self.chain_id, (), user)

    def stage_vote_tx(
        self, signer: KeyPair, case_number: str, stage: int, round_: int,
        vote: str, reason: str = ""
    ) -> Transaction:
        body = encode_payload(StageVotePayload(case_number, stage, round_, vote, reason))
        return make_transaction(PayloadKind.STAGE_VOTE, body, self.chain_id, (), signer)

    def provenance_request_tx(self, user: KeyPair, case_number: str) -> Transaction:
        self.require_user(user)
        self.require_case(case_number)
        body = encode_payload(ProvenanceRequestPayload(case_number, user.public_key))
        return make_transaction(
            PayloadKind.PROVENANCE_REQUEST, body, self.chain_id, (), user
        )

    def data_access_tx(
        self, user: KeyPair, case_number: str, action: Action,
        payload_digest: Digest, tick: int,
    ) -> tuple[Transaction, AccessLogEntry]:
        """Decide the attempt against the stored policy and produce the
        on-chain log transaction. Denials are logged the same way."""
        role = self.require_user(user)
        case = self.require_case(case_number)
        if case.policy is None:
            decision = DENIED  # nothing granted until a policy is dispatched
        else:
            decision = check_access(case.policy, role, case.stage, action)
        entry = AccessLogEntry(
            case_number=case_number,
            actor_public_key=user.public_key,
            role=role,
            action=action,
            stage=case.stage,
            decision=decision,
            tick=tick,
        )
        body = encode_payload(DataAccessLogPayload(
            case_number=case_number,
            actor_public_key=user.public_key,
            role=role,
            action=action.value,
            stage=case.stage,
            decision=decision,
            payload_digest=payload_digest,
        ))
        tx = make_transaction(PayloadKind.DATA_ACCESS_LOG, body, self.chain_id, (), user)
        return tx, entry

    # -- replica updates -------------------------------------------------------

    def apply_case_create(
        self, case_number: str, source_chain: str,
        destinations: tuple[str, ...], creator: bytes,
    ) -> LocalCase:
        case = LocalCase(
            case_number=case_number,
            source_chain=source_chain,
            destination_chains=destinations,
            creator_public_key=creator,
        )
        self.cases.setdefault(case_number, case)
        return self.cases[case_number]

    def apply_policy(self, case_number: str, policy: AccessPolicy) -> None:
        self.require_case(case_number).policy = policy

    def apply_stage_advance(self, case_number: str, stage: int) -> None:
        case = self.require_case(case_number)
        if stage > case.stage:
            case.stage = stage
