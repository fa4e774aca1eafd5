"""Organization-chain side of a case: registered users, each chain's case
replica, the staged role matrix, and retrieval/upload logging.

Every chain keeps its own view of each shared case (creator, participants,
current stage, the dispatched policy). Access decisions are deny-by-default
lookups in a (role, stage) -> actions matrix; every attempt, allowed or
denied, becomes a DataAccessLog transaction on the local chain.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .canonical import DecodeError, Reader, dec_enum, enc_int, enc_str, enc_str_list
from .chain import Transaction
from .crypto import Digest, KeyPair, hash_bytes
from .errors import MalformedPolicy, UnknownCase, UnknownUser
from .payloads import DataAccessLogPayload, payload_transaction

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
            policy = cls.build(roles, grants)
        except MalformedPolicy as exc:
            raise DecodeError(str(exc)) from exc
        # unsorted or repeated roles and grants would otherwise collapse, so
        # distinct signed bodies could decode to one policy
        if policy.canonical_bytes() != data:
            raise DecodeError("policy bytes are not canonical")
        return policy

    def digest(self) -> Digest:
        return hash_bytes(self.canonical_bytes())


def check_access(policy: AccessPolicy, role: str, stage: int, action: Action) -> str:
    """ALLOWED iff the action is explicitly granted for (role, stage)."""
    return ALLOWED if action in policy.actions_for(role, stage) else DENIED


@dataclass
class LocalCase:
    """One chain's replica of a shared case's control state.

    `rounds` maps a stage to the last proposal round the bridge sent this
    chain for it: opened, advanced or blocked. A proposal from this chain
    takes the next round, so a refused proposal uses no round number, and
    any participant can re-propose a blocked stage.
    """

    case_number: str
    source_chain: str
    destination_chains: tuple[str, ...]
    creator_public_key: bytes
    stage: int = 0
    policy: AccessPolicy | None = None
    rounds: dict[int, int] = field(default_factory=dict)

    @property
    def participants(self) -> tuple[str, ...]:
        return (self.source_chain, *self.destination_chains)


class OrgChainState:
    """Lifecycle state machine of one organization chain."""

    def __init__(self, chain_id: str):
        self.chain_id = chain_id
        self.registered_users: dict[bytes, str] = {}  # public key -> role
        self.cases: dict[str, LocalCase] = {}

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

    def data_access_tx(
        self, user: KeyPair, case_number: str, action: Action, payload_digest: Digest
    ) -> tuple[Transaction, DataAccessLogPayload]:
        """Decide the attempt against the stored policy and produce the
        on-chain log transaction and the payload it carries. Denials are
        logged the same way. The chain is the access log: nothing else
        keeps the attempt."""
        role = self.require_user(user)
        case = self.require_case(case_number)
        if case.policy is None:
            decision = DENIED  # nothing granted until a policy is dispatched
        else:
            decision = check_access(case.policy, role, case.stage, action)
        payload = DataAccessLogPayload(
            case_number=case_number,
            actor_public_key=user.public_key,
            role=role,
            action=action.value,
            stage=case.stage,
            decision=decision,
            payload_digest=payload_digest,
        )
        return payload_transaction(payload, self.chain_id, user), payload

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
