"""Scenario files: the deterministic inputs that drive every simulation run.

A scenario is a YAML mapping with the topology, timing parameters, users,
one access policy, a timed workload, scripted votes, and fault injections.
Identical scenarios produce byte-identical event logs and metrics.

Schema rule: every value is read as its declared type, with no coercion.
A row (a user, workload action, vote or fault) may have exactly its
class's field names as keys, a key it leaves out takes the class's
default, and the field's annotation picks the reader: `int` takes an
exact integer (not a bool or a float), `str` a string, and
`tuple[str, ...]` a list of strings. The top-level, topology and policy
fields go through the same readers. The least value of every integer
field is in one table, `MINIMUMS`, and the greatest of each topology size
`World` builds keys for in another, `MAXIMUMS`. Any other value is a
`ScenarioError` that names the field, such as `workload[3].tick`.
"""
from __future__ import annotations

import string
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import get_type_hints

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


@dataclass(frozen=True, slots=True)
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
    # keyword-only, so it can have a default and keep its place in the repr
    round: int = field(default=1, kw_only=True)
    chain: str
    vote: str
    reason: str = ""


@dataclass(frozen=True)
class FaultSpec:
    # a compromise fault may leave out its tick; `kind` has a default only
    # because `tick` does, and every fault row must name it
    tick: int = 0
    kind: str = ""
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


# the least value each integer field may take, by field name
MINIMUMS = {
    **dict.fromkeys(("tick", "stage", "stages", "round", "tx_index"), 0),
    **dict.fromkeys(("chains", "nodes_per_chain", "mutual_per_chain", "bridge_nodes",
                     "bridge_mutual", "stage_count", "link_latency", "pending_timeout",
                     "max_ticks", "block_time"), 1),
}
# the greatest value of each size World names a node per unit of, by field
# name: far above compare_designs(2, 20) (20 chains of 58 nodes, a bridge of
# 121). A World makes a node's name and a link's mutual set only when read, so
# the largest bridge world (16,896 node names) builds in about 0.3 ms and the
# largest mesh world (2,016 links) in about 1.4 ms; routing one broadcast case
# then derives the keys of 192 bridge nodes, and the process peaks at 25 MB
# (2 CPUs, Python 3.11)
MAXIMUMS = {"chains": 64, "nodes_per_chain": 256, "bridge_nodes": 512}


def _exact(kind: type, noun: str, value, context: str, name: str):
    # exact: YAML reads `true` as a bool, which Python counts as an int
    if type(value) is not kind:
        raise ScenarioError(f"{context}.{name} must be {noun}, got {type(value).__name__}")
    return value


_str = partial(_exact, str, "a string")
# a list, so a scalar is never iterated and a string never read letter by letter
_list = partial(_exact, list, "a list")


def _int(value, context: str, name: str) -> int:
    _exact(int, "an integer", value, context, name)
    minimum = MINIMUMS.get(name)
    if minimum is not None and value < minimum:
        raise ScenarioError(f"{context}.{name} must be >= {minimum}, got {value}")
    maximum = MAXIMUMS.get(name)
    if maximum is not None and value > maximum:
        raise ScenarioError(f"{context}.{name} must be <= {maximum}, got {value}")
    return value


def _as_is(value, context: str, name: str):
    return value


def _tuple_of(read):
    """A reader for a list whose every item `read` takes, giving a tuple."""
    def read_list(value, context: str, name: str) -> tuple:
        return tuple(read(item, context, name) for item in _list(value, context, name))
    return read_list


def _block_times(value, context: str, name: str) -> dict[str, int]:
    """One block time for every chain, or a mapping from chain to its own."""
    if isinstance(value, dict):
        return {chain: _int(time, context, name) for chain, time in value.items()}
    return {"default": _int(value, context, name)}


def _read_fields(raw, schema: dict, context: str) -> dict:
    """Mapping `raw` read by `schema`, key -> (reader, required). A key that
    `raw` leaves out is left out, so the caller's default applies."""
    if not isinstance(raw, dict):
        raise ScenarioError(f"{context} must be a mapping, got {type(raw).__name__}")
    unknown = raw.keys() - schema.keys()
    if unknown:
        raise ScenarioError(f"{context}: unknown keys {sorted(unknown, key=str)}")
    for key, (_read, required) in schema.items():
        if required and key not in raw:
            raise ScenarioError(f"{context}: missing required key {key!r}")
    return {key: schema[key][0](value, context, key) for key, value in raw.items()}


_strs = _tuple_of(_str)
_READERS = {int: _int, str: _str, tuple[str, ...]: _strs}

# row class -> {field: (the reader its annotation picks, required: it has no default)}
ROW_FIELDS = {
    cls: {
        f.name: (_READERS[get_type_hints(cls)[f.name]], f.default is MISSING)
        for f in fields(cls)
    }
    for cls in (UserSpec, WorkloadAction, VoteSpec, FaultSpec)
}

# each fault kind reads only its own keys, and requires some of them
FAULT_FIELDS = {
    kind: {key: (ROW_FIELDS[FaultSpec][key][0], key in required) for key in keys}
    for kind, keys, required in (
        (FAULT_COMPROMISE, ("tick", "kind", "node", "rule"), {"kind", "node"}),
        (FAULT_TAMPER, ("tick", "kind", "chain", "case", "stage", "tx_index"),
         {"tick", "kind", "chain", "case", "stage"}),
    )
}

TOPOLOGY_FIELDS = {
    "chains": (_int, True),
    "nodes_per_chain": (_int, True),
    "mutual_per_chain": (_int, True),
    "bridge_nodes": (_int, False),
    "bridge_mutual": (_int, False),
}

POLICY_FIELDS = {"roles": (_strs, True), "grants": (_list, False)}
GRANT_FIELDS = {
    "role": (_str, True),
    "stages": (_tuple_of(_int), True),
    "actions": (_strs, True),
}

# topology and policy are read by their own tables; the row sections row by row
SCENARIO_FIELDS = {
    "name": (_str, False),
    "seed": (_int, False),
    "design": (_str, True),
    "topology": (_as_is, True),
    "stage_count": (_int, False),
    "link_latency": (_int, False),
    "block_time": (_block_times, False),
    "pending_timeout": (_int, False),
    "max_ticks": (_int, False),
    "users": (_list, False),
    "policy": (_as_is, False),
    "workload": (_list, False),
    "votes": (_list, False),
    "faults": (_list, False),
}


def _rows(top: dict, section: str, cls) -> list:
    """Each row of `section`, read as a `cls`."""
    return [
        cls(**_read_fields(raw, ROW_FIELDS[cls], f"{section}[{i}]"))
        for i, raw in enumerate(top.get(section, ()))
    ]


def policy_from_dict(data: dict) -> AccessPolicy:
    policy = _read_fields(data, POLICY_FIELDS, "policy")
    grants: dict[tuple[str, int], set[Action]] = {}
    for i, raw in enumerate(policy.get("grants", ())):
        context = f"policy.grants[{i}]"
        grant = _read_fields(raw, GRANT_FIELDS, context)
        role = grant["role"]
        if role not in policy["roles"]:
            raise ScenarioError(f"{context}.role {role!r} is not in policy.roles")
        try:
            actions = {Action(a) for a in grant["actions"]}
        except ValueError as exc:
            raise ScenarioError(f"{context}: {exc}") from exc
        for stage in grant["stages"]:
            grants.setdefault((role, stage), set()).update(actions)
    return AccessPolicy.build(list(policy["roles"]), grants)


def scenario_from_dict(data: dict, name: str) -> Scenario:
    top = _read_fields(data, SCENARIO_FIELDS, "scenario")
    try:
        design = Design(top["design"])
    except ValueError as exc:
        raise ScenarioError(f"scenario: {exc}") from exc
    topo = _read_fields(top["topology"], TOPOLOGY_FIELDS, "topology")
    k, n_i = topo["chains"], topo["mutual_per_chain"]
    known = set(chain_names(k)).__contains__

    block_times = top.get("block_time", {"default": 1})
    bad = [c for c in block_times if c not in ("default", BRIDGE_CHAIN_ID) and not known(c)]
    if bad:
        raise ScenarioError(f"block_time: unknown chains {sorted(bad, key=str)}")

    users = _rows(top, "users", UserSpec)
    user_names = set()
    for i, user in enumerate(users):
        if not known(user.chain):
            raise ScenarioError(f"users[{i}]: unknown chain {user.chain!r}")
        if user.name in user_names:
            raise ScenarioError(f"users[{i}]: duplicate user {user.name!r}")
        user_names.add(user.name)

    policy = policy_from_dict(top["policy"]) if "policy" in top else None

    workload = _rows(top, "workload", WorkloadAction)
    for i, a in enumerate(workload):
        context = f"workload[{i}]"
        if a.action not in WORKLOAD_ACTIONS:
            raise ScenarioError(f"{context}: unknown action {a.action!r}")
        if design is Design.MESH and a.action in BRIDGE_ONLY_ACTIONS:
            raise ScenarioError(f"{context}: action {a.action!r} requires the bridge design")
        for chain in (a.chain, *a.destinations):
            if not known(chain):
                raise ScenarioError(f"{context}: workload references unknown chain {chain!r}")
        if a.chain in a.destinations or len(set(a.destinations)) != len(a.destinations):
            raise ScenarioError(
                f"{context}.destinations: {list(a.destinations)} must name chains "
                f"other than {a.chain!r}, each once"
            )
        if a.action == ACTION_ACCESS and a.op and a.op not in ACCESS_OPS:
            raise ScenarioError(f"{context}: op {a.op!r} is not one of {sorted(ACCESS_OPS)}")
        if a.user and a.user not in user_names:
            raise ScenarioError(f"{context}: unknown user {a.user!r}")
        for node_user in a.nodes:
            if node_user not in user_names:
                raise ScenarioError(f"{context}: unknown user {node_user!r} in nodes")

    votes = _rows(top, "votes", VoteSpec)
    for i, vote in enumerate(votes):
        if not known(vote.chain):
            raise ScenarioError(f"votes[{i}]: unknown chain {vote.chain!r}")
        if vote.vote not in ("approve", "reject"):
            raise ScenarioError(f"votes[{i}]: vote must be approve or reject")

    faults = []
    for i, raw in enumerate(top.get("faults", ())):
        context = f"faults[{i}]"
        # typed by every fault field first, so the kind is a string, then
        # read again by the keys of that kind
        kind = _read_fields(raw, ROW_FIELDS[FaultSpec], context).get("kind")
        if kind not in FAULT_FIELDS:
            raise ScenarioError(f"{context}: unknown fault kind {kind!r}")
        fault = FaultSpec(**_read_fields(raw, FAULT_FIELDS[kind], context))
        if kind == FAULT_COMPROMISE and fault.rule not in (RULE_EQUIVOCATE, RULE_DROP):
            raise ScenarioError(f"{context}: unknown corruption rule {fault.rule!r}")
        if kind == FAULT_TAMPER and not known(fault.chain):
            raise ScenarioError(f"{context}: unknown chain {fault.chain!r}")
        faults.append(fault)

    timing = ("stage_count", "link_latency", "pending_timeout", "max_ticks")
    return Scenario(
        name=top.get("name", name),
        seed=top.get("seed", 0),
        design=design,
        k=k,
        nodes_per_chain=topo["nodes_per_chain"],
        mutual_per_chain=n_i,
        bridge_nodes=topo.get("bridge_nodes", 6 * k + 1),
        bridge_mutual=topo.get("bridge_mutual", k * n_i),
        block_times=block_times,
        users=tuple(users),
        policy=policy,
        workload=tuple(sorted(workload, key=lambda a: a.tick)),
        votes=tuple(votes),
        faults=tuple(faults),
        **{key: top[key] for key in timing if key in top},
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
