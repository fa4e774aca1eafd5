"""Scenario files: the deterministic inputs that drive every simulation run.

A scenario is a YAML mapping with the topology, timing parameters, users,
one access policy, a timed workload, scripted votes, and fault injections.
Identical scenarios produce byte-identical event logs and metrics.
"""
from __future__ import annotations

import string
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .errors import ScenarioError
from .lifecycle import Action, AccessPolicy
from .topology import Design, TopologyParams

BRIDGE_CHAIN_ID = "BRIDGE"

ACTION_CREATE_CASE = "create-case"
ACTION_DISPATCH_POLICY = "dispatch-policy"
ACTION_ASSIGN_QUERY_NODES = "assign-query-nodes"
ACTION_PROPOSE_STAGE = "propose-stage"
ACTION_ACCESS = "access"
ACTION_REQUEST_PROVENANCE = "request-provenance"

WORKLOAD_ACTIONS = {
    ACTION_CREATE_CASE,
    ACTION_DISPATCH_POLICY,
    ACTION_ASSIGN_QUERY_NODES,
    ACTION_PROPOSE_STAGE,
    ACTION_ACCESS,
    ACTION_REQUEST_PROVENANCE,
}

# actions that need the bridge-side case registry
BRIDGE_ONLY_ACTIONS = {
    ACTION_DISPATCH_POLICY,
    ACTION_ASSIGN_QUERY_NODES,
    ACTION_PROPOSE_STAGE,
    ACTION_REQUEST_PROVENANCE,
}

FAULT_COMPROMISE = "compromise-mutual-node"
FAULT_TAMPER = "tamper-offchain"

# the `op` values an access row may name; a row without one reads
ACCESS_OPS = {a.value for a in Action}

RULE_EQUIVOCATE = "equivocate"
RULE_DROP = "drop"


def chain_names(k: int) -> list[str]:
    if k <= 26:
        return list(string.ascii_uppercase[:k])
    return [f"C{i + 1}" for i in range(k)]


@dataclass(frozen=True)
class UserSpec:
    name: str
    chain: str
    role: str


@dataclass(frozen=True)
class WorkloadAction:
    tick: int
    action: str
    chain: str
    user: str = ""
    case: str = ""
    destinations: tuple[str, ...] = ()
    op: str = ""
    payload: str = ""
    nodes: tuple[str, ...] = ()
    stage: int = 0


@dataclass(frozen=True)
class VoteSpec:
    case: str
    stage: int
    round: int
    chain: str
    vote: str
    reason: str = ""


@dataclass(frozen=True)
class FaultSpec:
    tick: int
    kind: str
    node: str = ""
    rule: str = RULE_EQUIVOCATE
    chain: str = ""
    case: str = ""
    stage: int = 0
    tx_index: int = 0


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    design: Design
    k: int
    nodes_per_chain: int
    mutual_per_chain: int
    bridge_nodes: int
    bridge_mutual: int
    stage_count: int = 5
    link_latency: int = 1
    block_times: dict[str, int] = field(default_factory=dict)
    pending_timeout: int = 50
    max_ticks: int = 10_000
    users: tuple[UserSpec, ...] = ()
    policy: AccessPolicy | None = None
    workload: tuple[WorkloadAction, ...] = ()
    votes: tuple[VoteSpec, ...] = ()
    faults: tuple[FaultSpec, ...] = ()

    @property
    def chain_ids(self) -> list[str]:
        return chain_names(self.k)

    @property
    def topology(self) -> TopologyParams:
        return TopologyParams(
            k=self.k,
            m=self.bridge_nodes,
            n=self.nodes_per_chain,
            n_i=self.mutual_per_chain,
            b_i=self.bridge_mutual,
        )

    def block_time(self, chain_id: str) -> int:
        return self.block_times.get(chain_id, self.block_times.get("default", 1))


def _require(mapping: dict, key: str, context: str):
    _check_mapping(mapping, context)
    if key not in mapping:
        raise ScenarioError(f"{context}: missing required key {key!r}")
    return mapping[key]


def _at_least(value: int, minimum: int, name: str) -> int:
    """`value` if it is at least `minimum`; otherwise a ScenarioError naming
    the field, so an out-of-range number is refused at load, not in a run."""
    if value < minimum:
        raise ScenarioError(f"{name} must be >= {minimum}, got {value}")
    return value


def _list(value, context: str) -> list:
    """`value` if it is a list; otherwise a ScenarioError naming the field,
    so a scalar is never iterated and a string is never read letter by
    letter."""
    if not isinstance(value, list):
        raise ScenarioError(f"{context} must be a list, got {type(value).__name__}")
    return value


def _check_mapping(value, context: str) -> None:
    if not isinstance(value, dict):
        raise ScenarioError(f"{context} must be a mapping, got {type(value).__name__}")


def _check_keys(mapping: dict, allowed: set[str], context: str) -> None:
    _check_mapping(mapping, context)
    unknown = set(mapping) - allowed
    if unknown:
        raise ScenarioError(f"{context}: unknown keys {sorted(unknown)}")


def policy_from_dict(data: dict) -> AccessPolicy:
    _check_keys(data, {"roles", "grants"}, "policy")
    roles = _list(_require(data, "roles", "policy"), "policy.roles")
    grants: dict[tuple[str, int], set[Action]] = {}
    for i, grant in enumerate(_list(data.get("grants", []), "policy.grants")):
        context = f"policy.grants[{i}]"
        _check_keys(grant, {"role", "stages", "actions"}, context)
        role = _require(grant, "role", context)
        listed = _list(_require(grant, "actions", context), f"{context}.actions")
        try:
            actions = {Action(a) for a in listed}
        except ValueError as exc:
            raise ScenarioError(f"{context}: {exc}") from exc
        for stage in _list(_require(grant, "stages", context), f"{context}.stages"):
            grants.setdefault((role, int(stage)), set()).update(actions)
    return AccessPolicy.build(roles, grants)


def scenario_from_dict(data: dict, name: str) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario file must be a mapping")
    _check_keys(
        data,
        {
            "name", "seed", "design", "topology", "stage_count", "link_latency",
            "block_time", "pending_timeout", "max_ticks", "users", "policy",
            "workload", "votes", "faults",
        },
        "scenario",
    )
    try:
        design = Design(_require(data, "design", "scenario"))
    except ValueError as exc:
        raise ScenarioError(f"scenario: {exc}") from exc

    topo = _require(data, "topology", "scenario")
    _check_keys(
        topo,
        {"chains", "nodes_per_chain", "mutual_per_chain", "bridge_nodes", "bridge_mutual"},
        "topology",
    )
    k = int(_require(topo, "chains", "topology"))
    n = int(_require(topo, "nodes_per_chain", "topology"))
    n_i = int(_require(topo, "mutual_per_chain", "topology"))
    m = int(topo.get("bridge_nodes", 6 * k + 1))
    b_i = int(topo.get("bridge_mutual", k * n_i))

    chains = set(chain_names(k))

    block_time_raw = data.get("block_time", 1)
    if isinstance(block_time_raw, int):
        block_times = {"default": block_time_raw}
    elif isinstance(block_time_raw, dict):
        bad = set(block_time_raw) - chains - {"default", BRIDGE_CHAIN_ID}
        if bad:
            raise ScenarioError(f"block_time: unknown chains {sorted(bad)}")
        block_times = {str(c): int(v) for c, v in block_time_raw.items()}
    else:
        raise ScenarioError("block_time must be an integer or mapping")
    if any(v < 1 for v in block_times.values()):
        raise ScenarioError("block times must be >= 1")

    users = []
    user_names = set()
    for i, u in enumerate(_list(data.get("users", []), "users")):
        context = f"users[{i}]"
        _check_keys(u, {"name", "chain", "role"}, context)
        user = UserSpec(
            name=str(_require(u, "name", context)),
            chain=str(_require(u, "chain", context)),
            role=str(_require(u, "role", context)),
        )
        if user.chain not in chains:
            raise ScenarioError(f"{context}: unknown chain {user.chain!r}")
        if user.name in user_names:
            raise ScenarioError(f"{context}: duplicate user {user.name!r}")
        user_names.add(user.name)
        users.append(user)

    policy = policy_from_dict(data["policy"]) if "policy" in data else None

    workload = []
    for i, w in enumerate(_list(data.get("workload", []), "workload")):
        context = f"workload[{i}]"
        _check_keys(
            w,
            {"tick", "action", "chain", "user", "case", "destinations", "op",
             "payload", "nodes", "stage"},
            context,
        )
        action = str(_require(w, "action", context))
        if action not in WORKLOAD_ACTIONS:
            raise ScenarioError(f"{context}: unknown action {action!r}")
        if design is Design.MESH and action in BRIDGE_ONLY_ACTIONS:
            raise ScenarioError(
                f"{context}: action {action!r} requires the bridge design"
            )
        chain = str(_require(w, "chain", context))
        if chain not in chains:
            raise ScenarioError(
                f"{context}: workload references unknown chain {chain!r}"
            )
        destinations = tuple(
            str(d) for d in _list(w.get("destinations", []), f"{context}.destinations")
        )
        for d in destinations:
            if d not in chains:
                raise ScenarioError(
                    f"{context}: workload references unknown chain {d!r}"
                )
        op = str(w.get("op", ""))
        if action == ACTION_ACCESS and op and op not in ACCESS_OPS:
            raise ScenarioError(
                f"{context}: op {op!r} is not one of {sorted(ACCESS_OPS)}"
            )
        user = str(w.get("user", ""))
        if user and user not in user_names:
            raise ScenarioError(f"{context}: unknown user {user!r}")
        nodes = tuple(str(x) for x in _list(w.get("nodes", []), f"{context}.nodes"))
        for node_user in nodes:
            if node_user not in user_names:
                raise ScenarioError(f"{context}: unknown user {node_user!r} in nodes")
        workload.append(
            WorkloadAction(
                tick=_at_least(int(_require(w, "tick", context)), 0, f"{context}.tick"),
                action=action,
                chain=chain,
                user=user,
                case=str(w.get("case", "")),
                destinations=destinations,
                op=op,
                payload=str(w.get("payload", "")),
                nodes=nodes,
                stage=_at_least(int(w.get("stage", 0)), 0, f"{context}.stage"),
            )
        )

    votes = []
    for i, v in enumerate(_list(data.get("votes", []), "votes")):
        context = f"votes[{i}]"
        _check_keys(v, {"case", "stage", "round", "chain", "vote", "reason"}, context)
        chain = str(_require(v, "chain", context))
        if chain not in chains:
            raise ScenarioError(f"{context}: unknown chain {chain!r}")
        vote = str(_require(v, "vote", context))
        if vote not in ("approve", "reject"):
            raise ScenarioError(f"{context}: vote must be approve or reject")
        votes.append(
            VoteSpec(
                case=str(_require(v, "case", context)),
                stage=_at_least(int(_require(v, "stage", context)), 0, f"{context}.stage"),
                round=_at_least(int(v.get("round", 1)), 0, f"{context}.round"),
                chain=chain,
                vote=vote,
                reason=str(v.get("reason", "")),
            )
        )

    faults = []
    for i, f in enumerate(_list(data.get("faults", []), "faults")):
        context = f"faults[{i}]"
        kind = str(_require(f, "kind", context))
        if kind == FAULT_COMPROMISE:
            _check_keys(f, {"tick", "kind", "node", "rule"}, context)
            rule = str(f.get("rule", RULE_EQUIVOCATE))
            if rule not in (RULE_EQUIVOCATE, RULE_DROP):
                raise ScenarioError(f"{context}: unknown corruption rule {rule!r}")
            faults.append(
                FaultSpec(
                    tick=_at_least(int(f.get("tick", 0)), 0, f"{context}.tick"),
                    kind=kind,
                    node=str(_require(f, "node", context)),
                    rule=rule,
                )
            )
        elif kind == FAULT_TAMPER:
            _check_keys(f, {"tick", "kind", "chain", "case", "stage", "tx_index"}, context)
            chain = str(_require(f, "chain", context))
            if chain not in chains:
                raise ScenarioError(f"{context}: unknown chain {chain!r}")
            faults.append(
                FaultSpec(
                    tick=_at_least(int(_require(f, "tick", context)), 0, f"{context}.tick"),
                    kind=kind,
                    chain=chain,
                    case=str(_require(f, "case", context)),
                    stage=_at_least(int(_require(f, "stage", context)), 0, f"{context}.stage"),
                    tx_index=_at_least(int(f.get("tx_index", 0)), 0, f"{context}.tx_index"),
                )
            )
        else:
            raise ScenarioError(f"{context}: unknown fault kind {kind!r}")

    return Scenario(
        name=str(data.get("name", name)),
        seed=int(data.get("seed", 0)),
        design=design,
        k=k,
        nodes_per_chain=n,
        mutual_per_chain=n_i,
        bridge_nodes=m,
        bridge_mutual=b_i,
        stage_count=_at_least(int(data.get("stage_count", 5)), 1, "stage_count"),
        link_latency=_at_least(int(data.get("link_latency", 1)), 1, "link_latency"),
        block_times=block_times,
        pending_timeout=_at_least(int(data.get("pending_timeout", 50)), 1, "pending_timeout"),
        max_ticks=_at_least(int(data.get("max_ticks", 10_000)), 1, "max_ticks"),
        users=tuple(users),
        policy=policy,
        workload=tuple(sorted(workload, key=lambda a: a.tick)),
        votes=tuple(votes),
        faults=tuple(faults),
    )


# PyYAML built without LibYAML has no CSafeLoader
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file; parse errors carry line numbers.

    A missing or unreadable path raises `OSError` (`FileNotFoundError` for a
    missing one); bytes that are not UTF-8 raise `ScenarioError`.

    The file is parsed with LibYAML's `yaml.CSafeLoader`, which builds the
    same data as the pure-Python `yaml.SafeLoader` about seven times faster;
    with the pure-Python loader, parsing was most of a scenario's set-up
    time. PyYAML can be built without LibYAML, and such an install falls
    back to `yaml.SafeLoader`.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path} is not UTF-8 text: {exc}") from exc
    try:
        data = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise ScenarioError(f"parse error in {path}{where}: {exc}") from exc
    if data is None:
        raise ScenarioError(f"{path}: empty scenario file")
    return scenario_from_dict(data, name=path.stem)
