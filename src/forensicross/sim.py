"""Deterministic discrete-event simulator hosting every chain, contract, and
fault.

Time is integer ticks. Within a tick, message deliveries run first, then
workload actions, then block mining; insertion order breaks remaining ties,
so a scenario's event log is a pure function of the scenario. Durations are
measured from the tick the source chain's mutual nodes observe the mined
transaction to the tick the last destination contract validates it, which
deliberately excludes source-side block creation time.
"""
from __future__ import annotations

import csv
import heapq
import json
from collections.abc import Mapping, Sequence
from functools import partial
from pathlib import Path

from .canonical import DecodeError
from .chain import UNKNOWN_SENDER, Chain, PayloadKind, SubmitError, Transaction, make_transaction
from .comm import (
    DeliveryReport,
    Hop,
    HopOrigin,
    MutualNodeSet,
    VerificationContract,
    VerifyStatus,
    hop_origin,
    translate,
)
from .crypto import KeyPair, hash_bytes
from .errors import (
    EmptyDestinations,
    ForensicrossError,
    InvalidDestinations,
    InvalidTopology,
    NotChainAuthority,
    NotQueryNode,
    ScenarioError,
    StaleStage,
    UnexpectedKind,
    UnknownCase,
    UnknownUser,
)
from .lifecycle import Action, AccessPolicy, OrgChainState
from .payloads import (
    PHASE_ADVANCED,
    PHASE_BLOCKED,
    PHASE_OPEN,
    VOTE_APPROVE,
    AccessControlPayload,
    CaseCreatePayload,
    ProvenanceRequestPayload,
    QueryNodeAssignPayload,
    StageProposalPayload,
    StageVotePayload,
    decode_payload,
    payload_transaction,
)
from .provenance import OffchainCaseStore, extract_provenance
from .registry import BridgeRegistry, StageOutcome
from .scenario import (
    ACTION_ACCESS,
    ACTION_ASSIGN_QUERY_NODES,
    ACTION_CREATE_CASE,
    ACTION_DISPATCH_POLICY,
    ACTION_PROPOSE_STAGE,
    ACTION_REQUEST_PROVENANCE,
    BRIDGE_CHAIN_ID,
    FAULT_COMPROMISE,
    FAULT_TAMPER,
    RULE_DROP,
    RULE_EQUIVOCATE,
    Scenario,
    UserSpec,
    WorkloadAction,
    chain_names,
)
from .topology import Design, communication_counts, validate_topology

PHASE_DELIVER = 0
PHASE_ACTION = 1
PHASE_MINE = 2


def flip_last_byte(data: bytes) -> bytes:
    """Equivocation rule: a deterministic wrong translation, identical across
    every compromised node (flips inside the embedded signature field, so the
    result still parses). An origin's canonical bytes are never empty."""
    return data[:-1] + bytes([data[-1] ^ 0xFF])


def mutual_member(label: str, index: int) -> str:
    """The name of the `index`-th mutual node of the link named `label`."""
    return f"{label}.m{index}"


class NodeNames(Sequence):
    """One chain's node names in schedule order, each made from its index
    when read: the `mutual` members of each of its link labels, in link
    order, then fillers `{chain}.r{j}` up to `size`."""

    def __init__(self, chain: str, labels: list[str], mutual: int, size: int):
        self._chain = chain
        self._labels = labels
        self._mutual = mutual
        self._size = size

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index: int) -> str:
        if not 0 <= index < self._size:
            raise IndexError(index)
        link, member = divmod(index, self._mutual)
        if link < len(self._labels):
            return mutual_member(self._labels[link], member)
        return f"{self._chain}.r{index - len(self._labels) * self._mutual}"


class Links(Mapping):
    """`World`'s link table: each link's `MutualNodeSet` under both of its
    directions, built the first time the link is read, so a link that never
    carries a hop builds none."""

    def __init__(self, labels: dict[tuple[str, str], str], mutual: int):
        self._labels = labels
        self._mutual = mutual
        self._sets: dict[str, MutualNodeSet] = {}

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self):
        return iter(self._labels)

    def __contains__(self, pair) -> bool:
        return pair in self._labels

    def __getitem__(self, pair: tuple[str, str]) -> MutualNodeSet:
        label = self._labels[pair]
        mset = self._sets.get(label)
        if mset is None:
            members = tuple(mutual_member(label, i) for i in range(self._mutual))
            mset = self._sets[label] = MutualNodeSet(label, members)
        return mset


class AuthorityKeys(Sequence):
    """One chain's authority set, as `Chain` reads it: the public keys of
    `names` in schedule order, each resolved by `key_of` when it is first
    indexed, so a node that never seals a block derives no key."""

    def __init__(self, names: Sequence[str], key_of):
        self._names = names
        self._key_of = key_of

    def __len__(self) -> int:
        return len(self._names)

    def __getitem__(self, index: int) -> bytes:
        return self._key_of(self._names[index]).public_key


class World:
    """All simulation state for one scenario run."""

    def __init__(self, scenario: Scenario):
        violations = validate_topology(scenario.topology, scenario.design)
        if violations:
            raise InvalidTopology(
                "; ".join(f"{v.rule}: {v.detail}" for v in violations)
            )
        self.scenario = scenario
        self.design = scenario.design
        self.now = 0
        self.events: list[dict] = []
        self.reports: dict[str, DeliveryReport] = {}
        self.bundles: list[tuple[int, object]] = []  # (tick, ProvenanceBundle)

        self._queue: list = []
        self._seq = 0
        self._honest_bodies: dict[str, bytes] = {}
        self._messages_to: dict[tuple[str, str], int] = {}
        self._compromised: dict[str, str] = {}  # node -> rule

        self._build_topology()
        self._build_keys_and_chains()
        self._build_participants()
        self._schedule_inputs()

    # -- construction ---------------------------------------------------------

    def _build_topology(self) -> None:
        """Keep each link's label under both of its directions, and each
        chain's link labels in link order: a link is an organization chain
        with the bridge, or a pair of chains in the mesh. A chain's nodes
        are the mutual nodes of its links, in link order, then fillers up to
        its size; `NodeNames` and `Links` make a name or a mutual set from
        these labels only when it is read."""
        s = self.scenario
        self.chain_ids = ids = s.chain_ids
        if self.design is Design.BRIDGE:
            links = [(c, BRIDGE_CHAIN_ID, c) for c in ids]
            sizes = dict.fromkeys(ids, s.nodes_per_chain) | {BRIDGE_CHAIN_ID: s.bridge_nodes}
        else:
            links = [(a, b, f"{a}~{b}") for i, a in enumerate(ids) for b in ids[i + 1:]]
            sizes = dict.fromkeys(ids, s.nodes_per_chain)
        pairs: dict[tuple[str, str], str] = {}
        labels: dict[str, list[str]] = {c: [] for c in sizes}
        for a, b, label in links:
            pairs[(a, b)] = pairs[(b, a)] = label
            labels[a].append(label)
            labels[b].append(label)
        n_i = s.mutual_per_chain
        self.links = Links(pairs, n_i)
        self.node_names = {c: NodeNames(c, labels[c], n_i, size) for c, size in sizes.items()}

    def _build_keys_and_chains(self) -> None:
        """Each chain's authority set and each contract's key resolver go
        through `_node_key`, so `keys` holds only the nodes that have acted."""
        self.keys: dict[str, KeyPair] = {}
        self.contract_keys = {c: self._derive(":contract:", c) for c in self.node_names}
        self.chains = {
            c: Chain(c, AuthorityKeys(names, self._node_key))
            for c, names in self.node_names.items()
        }
        self.contracts = {
            c: VerificationContract(c, self._node_pk) for c in self.node_names
        }

    def _build_participants(self) -> None:
        s = self.scenario
        self.registry = (
            BridgeRegistry(s.stage_count) if self.design is Design.BRIDGE else None
        )
        self.stores = {c: OffchainCaseStore(c) for c in self.chain_ids}
        self.org = {c: OrgChainState(c) for c in self.chain_ids}
        self.users: dict[str, tuple[UserSpec, KeyPair]] = {}
        for spec in s.users:
            key = self._derive(":user:", spec.name)
            self.users[spec.name] = (spec, key)
            self.org[spec.chain].register_user(key, spec.role)
        self._pk_to_user = {key.public_key: spec.name for spec, key in self.users.values()}
        self._vote_script = {
            (v.case, v.stage, v.round, v.chain): (v.vote, v.reason)
            for v in s.votes
        }

    def _schedule_inputs(self) -> None:
        for action in self.scenario.workload:
            self.schedule(action.tick, PHASE_ACTION, partial(self._do_action, action))
        for fault in self.scenario.faults:
            self.schedule(fault.tick, PHASE_ACTION, partial(self._activate_fault, fault))

    def _derive(self, role: str, name: str) -> KeyPair:
        """The key of a node, contract or user of this scenario's seed."""
        return KeyPair.derive(f"scenario:{self.scenario.seed}", role, name)

    def _node_key(self, node: str) -> KeyPair:
        """`node`'s key, derived and kept in `keys` the first time the node
        translates, seals a block or has its public key resolved."""
        key = self.keys.get(node)
        if key is None:
            key = self.keys[node] = self._derive(":node:", node)
        return key

    def _node_pk(self, node: str) -> bytes:
        return self._node_key(node).public_key

    # -- event loop -------------------------------------------------------------

    def schedule(self, tick: int, phase: int, fn) -> None:
        heapq.heappush(self._queue, (tick, phase, self._seq, fn))
        self._seq += 1

    def emit(self, tick: int, event: str, **fields) -> None:
        record = {"tick": tick, "event": event}
        record.update(fields)
        self.events.append(record)

    def run(self) -> "World":
        """Drain the event queue; the workload is finite, so this terminates."""
        limit = self.scenario.max_ticks
        while self._queue:
            tick, _phase, _seq, fn = heapq.heappop(self._queue)
            if tick > limit:
                raise ScenarioError(f"scenario exceeded max_ticks={limit}")
            self.now = tick
            fn(tick)
        return self

    # -- workload -----------------------------------------------------------------

    def _user_key(self, name: str) -> KeyPair:
        try:
            return self.users[name][1]
        except KeyError:
            raise UnknownUser(name) from None

    def _do_action(self, a: WorkloadAction, tick: int) -> None:
        self.emit(tick, "action", action=a.action, chain=a.chain, case=a.case, user=a.user)
        try:
            self.ACTION_HANDLERS[a.action](self, a, tick)
        except ForensicrossError as exc:
            self.emit(
                tick, "action_error",
                action=a.action, chain=a.chain, case=a.case,
                error=type(exc).__name__, detail=str(exc),
            )

    # Each action handler runs its pre-checks in a fixed order (the first
    # that fails names the action_error) and then submits its request on the
    # acting user's chain.

    def _registered_user(self, a: WorkloadAction) -> KeyPair:
        key = self._user_key(a.user)
        self.org[a.chain].require_user(key)
        return key

    def _act_create_case(self, a: WorkloadAction, tick: int) -> None:
        key = self._registered_user(a)
        if not a.destinations:
            raise EmptyDestinations(a.case)
        self._require_destinations(a.chain, a.destinations)
        tx = payload_transaction(CaseCreatePayload(a.case), a.chain, key, a.destinations)
        self._submit_local(a.chain, tx, tick)

    def _act_dispatch_policy(self, a: WorkloadAction, tick: int) -> None:
        policy = self.scenario.policy
        if policy is None:
            raise ScenarioError("scenario declares no policy to dispatch")
        key = self._registered_user(a)
        case = self.org[a.chain].require_case(a.case)
        payload = AccessControlPayload(a.case, policy.canonical_bytes())
        others = tuple(c for c in case.participants if c != a.chain)
        tx = payload_transaction(payload, a.chain, key, others)
        self._submit_local(a.chain, tx, tick)

    def _act_assign_query_nodes(self, a: WorkloadAction, tick: int) -> None:
        nodes = tuple(self._user_key(name).public_key for name in a.nodes)
        key = self._registered_user(a)
        self.org[a.chain].require_case(a.case)
        tx = payload_transaction(QueryNodeAssignPayload(a.case, nodes), a.chain, key)
        self._submit_local(a.chain, tx, tick)

    def _act_propose_stage(self, a: WorkloadAction, tick: int) -> None:
        key = self._registered_user(a)
        case = self.org[a.chain].require_case(a.case)
        proposal = StageProposalPayload(a.case, a.stage, case.rounds.get(a.stage, 0) + 1)
        tx = payload_transaction(proposal, a.chain, key)
        self._submit_local(a.chain, tx, tick)

    def _act_request_provenance(self, a: WorkloadAction, tick: int) -> None:
        key = self._registered_user(a)
        self.org[a.chain].require_case(a.case)
        tx = payload_transaction(ProvenanceRequestPayload(a.case, key.public_key), a.chain, key)
        self._submit_local(a.chain, tx, tick)

    def _act_access(self, a: WorkloadAction, tick: int) -> None:
        org = self.org[a.chain]
        action = Action(a.op) if a.op else Action.READ
        label = a.payload or f"{a.case}:{a.user}:{tick}"
        tx, payload = org.data_access_tx(
            self._user_key(a.user), a.case, action, hash_bytes(label.encode())
        )
        accepted = self._submit_local(a.chain, tx, tick)
        if accepted is None:
            return
        self.emit(
            tick, "access",
            chain=a.chain, case=a.case, actor=a.user, role=payload.role,
            op=action.value, stage=payload.stage, decision=payload.decision,
            tx_id=accepted.tx_id,
        )

    ACTION_HANDLERS = {
        ACTION_CREATE_CASE: _act_create_case,
        ACTION_DISPATCH_POLICY: _act_dispatch_policy,
        ACTION_ASSIGN_QUERY_NODES: _act_assign_query_nodes,
        ACTION_PROPOSE_STAGE: _act_propose_stage,
        ACTION_REQUEST_PROVENANCE: _act_request_provenance,
        ACTION_ACCESS: _act_access,
    }

    def _activate_fault(self, fault, tick: int) -> None:
        if fault.kind == FAULT_COMPROMISE:
            if not any(fault.node in names for names in self.node_names.values()):
                raise ScenarioError(f"fault references unknown node {fault.node!r}")
            self._compromised[fault.node] = fault.rule
            self.emit(tick, "fault_activated", kind=fault.kind, node=fault.node, rule=fault.rule)
        elif fault.kind == FAULT_TAMPER:
            try:
                self.stores[fault.chain].tamper(fault.case, fault.stage, fault.tx_index)
            except (KeyError, IndexError) as exc:
                raise ScenarioError(
                    f"tamper fault references missing record "
                    f"{fault.chain}/{fault.case}/{fault.stage}/{fault.tx_index}"
                ) from exc
            self.emit(
                tick, "fault_activated",
                kind=fault.kind, chain=fault.chain, case=fault.case,
                stage=fault.stage, tx_index=fault.tx_index,
            )
        else:
            raise ScenarioError(f"unknown fault kind {fault.kind!r}")

    # -- chain plumbing --------------------------------------------------------------

    def _require_destinations(self, source: str, destinations: tuple[str, ...]) -> None:
        """Only an organization chain routes from itself; routing has no pair
        of a chain with itself, and a case that names a chain twice waits
        for a vote that chain cannot cast twice."""
        if source not in self.org:
            raise InvalidDestinations(f"{source} -> {list(destinations)}: unknown source chain")
        if source in destinations or len(self.org.keys() & set(destinations)) != len(destinations):
            raise InvalidDestinations(
                f"{source} -> {list(destinations)}: not other known chains, each once"
            )

    def inject_transaction(self, tx: Transaction) -> Transaction:
        """Entry point for driving the world without a workload file."""
        self._require_destinations(tx.source_chain, tx.destination_chains)
        accepted = self._submit_local(tx.source_chain, tx, self.now)
        if accepted is None:
            raise ScenarioError("injected transaction was rejected at submission")
        return accepted

    def _submit_local(self, chain_id: str, tx: Transaction, tick: int) -> Transaction | None:
        """Submit `tx` on `chain_id`; the first transaction of an empty
        pending pool schedules the chain's next block, at the next multiple
        of its block time."""
        chain = self.chains[chain_id]
        try:
            self._admit(chain_id, tx.sender_public_key)
            accepted = chain.submit_transaction(tx)
        except SubmitError as exc:
            self.emit(tick, "tx_rejected", chain=chain_id, reason=exc.reason)
            return None
        self.emit(
            tick, "tx_submitted",
            chain=chain_id, tx_id=accepted.tx_id, kind=accepted.payload_kind.value,
        )
        if len(chain.pending_pool) == 1:
            bt = self.scenario.block_time(chain_id)
            self.schedule(-(-tick // bt) * bt, PHASE_MINE, partial(self._mine, chain_id))
        return accepted

    def _admit(self, chain_id: str, sender: bytes) -> None:
        """A chain admits its contract's key and, on an organization chain,
        the users registered on it; the bridge admits only its contract."""
        if sender == self.contract_keys[chain_id].public_key:
            return
        org = self.org.get(chain_id)
        if org is None or sender not in org.registered_users:
            raise SubmitError(UNKNOWN_SENDER, f"{sender.hex()[:16]} on {chain_id}")

    def _mine(self, chain_id: str, tick: int) -> None:
        chain = self.chains[chain_id]
        # the authority set is built in `node_names` order (`AuthorityKeys`)
        names = self.node_names[chain_id]
        validator = names[len(chain.blocks) % len(names)]
        block = chain.mine_block(self._node_key(validator), timestamp=tick)
        self.emit(
            tick, "block_mined",
            chain=chain_id, height=block.height, txs=len(block.transactions),
            validator=validator, hash=block.header_digest().hex(),
        )
        self._on_block_mined(chain_id, block, tick)

    # -- mining side effects ------------------------------------------------------------

    def _on_block_mined(self, chain_id: str, block, tick: int) -> None:
        for tx in block.transactions:
            if chain_id != BRIDGE_CHAIN_ID:
                kind = tx.payload_kind
                if tx.source_chain != chain_id or kind is PayloadKind.INTERCHAIN_ENVELOPE:
                    continue  # a delivered record, already applied
                if kind is PayloadKind.DATA_ACCESS_LOG:
                    self._record_access_tx(chain_id, tx, tick)
                    continue
                # a cross-chain record also updates the source's own replica;
                # a user's stage proposal has none, so it casts no self-vote.
                # The record is on chain either way, so it is routed even if
                # the replica refuses it.
                if tx.destination_chains and kind in self.ORG_HANDLERS:
                    self._apply(chain_id, tx, tick)
            self._start_routing(tx, chain_id, tick)

    def _record_access_tx(self, chain_id: str, tx: Transaction, tick: int) -> None:
        try:
            payload = decode_payload(PayloadKind.DATA_ACCESS_LOG, tx.body)
        except DecodeError as exc:  # on chain, but no log entry: refuse, do not halt
            self._registry_error(tick, PayloadKind.DATA_ACCESS_LOG.value, exc)
            return
        if payload.stage >= self.scenario.stage_count:
            return  # case already closed; on-chain log only
        self.stores[chain_id].append(payload.case_number, payload.stage, tx)
        if self.design is Design.BRIDGE:
            self.schedule(
                tick + self.scenario.link_latency, PHASE_DELIVER,
                partial(
                    self._deliver_stage_hash,
                    payload.case_number, chain_id, payload.stage, tx.digest(),
                ),
            )

    # -- routing pipeline ------------------------------------------------------------------

    def _send_translations(
        self, origin: HopOrigin, mset: MutualNodeSet, target_chain: str, tick: int
    ) -> None:
        origin_id = origin.tx_id
        latency = self.scenario.link_latency
        sent = 0
        for node in mset.members:
            rule = self._compromised.get(node)
            if rule == RULE_DROP:
                self.emit(tick, "envelope_dropped", origin_tx=origin_id, node=node)
                continue
            corrupt = flip_last_byte if rule == RULE_EQUIVOCATE else None
            envelope = translate(origin, node, mset, self._node_key(node), corrupt)
            sent += 1
            self.emit(
                tick, "envelope_sent",
                origin_tx=origin_id, node=node, to=target_chain,
                honest=corrupt is None,
            )
            self.schedule(
                tick + latency, PHASE_DELIVER,
                partial(self._deliver_envelope, target_chain, envelope, mset),
            )
        self._messages_to[(target_chain, origin_id)] = sent
        self.schedule(
            tick + latency + self.scenario.pending_timeout, PHASE_DELIVER,
            partial(self._check_timeout, target_chain, origin_id, mset.size),
        )

    def _next_hops(self, tx: Transaction, chain_id: str) -> tuple[str, ...]:
        """An organization chain of the bridge design sends to the bridge,
        any other chain to each of the transaction's destinations."""
        if self.design is Design.BRIDGE and chain_id != BRIDGE_CHAIN_ID:
            return (BRIDGE_CHAIN_ID,)
        return tx.destination_chains

    def _start_routing(self, tx: Transaction, chain_id: str, tick: int) -> None:
        """Translate `tx`, mined on `chain_id`, towards its next hops, each
        through the mutual nodes of that link."""
        targets = self._next_hops(tx, chain_id)
        if not targets:
            return
        # the bridge's record of a validated origin forwards that origin;
        # anything else, bridge control traffic included, is its own origin.
        # Every translator of the hop shares its identity and honest body.
        origin = hop_origin(tx)
        if tx.payload_kind is not PayloadKind.INTERCHAIN_ENVELOPE:
            self.reports[origin.tx_id] = DeliveryReport(
                tx_id=origin.tx_id, kind=tx.payload_kind.value, origin_chain=chain_id,
                destinations=tx.destination_chains,
                hops=[Hop("mutual-receipt", chain_id, tick, 0, "ok")],
            )
            self._honest_bodies[origin.tx_id] = origin.body
        for target in targets:
            self._send_translations(origin, self.links[(chain_id, target)], target, tick)

    def _deliver_envelope(
        self, target_chain: str, envelope, mset: MutualNodeSet, tick: int
    ) -> None:
        contract = self.contracts[target_chain]
        entry, resolved, duplicate = contract.receive(envelope, mset, tick)
        self.emit(
            tick, "envelope_received",
            chain=target_chain, origin_tx=envelope.origin_tx_id,
            node=envelope.translator_node,
        )
        if duplicate:
            self.emit(
                tick, "duplicate_submission",
                chain=target_chain, origin_tx=envelope.origin_tx_id,
                node=envelope.translator_node,
            )
        elif resolved and entry.status is VerifyStatus.VALIDATED:
            self._on_validated(target_chain, entry, tick)
        elif resolved:
            self._on_rejected(target_chain, entry, tick)

    def _verify_hop(self, target_chain: str, origin_id: str, tick: int, outcome: str) -> None:
        """Append the verification hop at `target_chain`, with its outcome
        there, to the origin's report, if it has one."""
        report = self.reports.get(origin_id)
        if report is not None:
            hop = "bridge-verify" if target_chain == BRIDGE_CHAIN_ID else "destination-verify"
            messages = self._messages_to.get((target_chain, origin_id), 0)
            report.hops.append(Hop(hop, target_chain, tick, messages, outcome))

    def _check_timeout(self, target_chain: str, origin_id: str, expected: int, tick: int) -> None:
        # a hop whose every envelope was dropped has no entry until now
        entry = self.contracts[target_chain].entry_for(origin_id, expected)
        if entry.status is not VerifyStatus.PENDING:
            return
        entry.status = VerifyStatus.EXPIRED
        entry.resolved_tick = tick
        self.emit(tick, "envelope_expired", chain=target_chain, origin_tx=origin_id)
        self._verify_hop(target_chain, origin_id, tick, "expired")

    def _on_rejected(self, target_chain: str, entry, tick: int) -> None:
        origin_id = entry.origin_tx_id
        self.emit(
            tick, "verification",
            chain=target_chain, origin_tx=origin_id, status=VerifyStatus.REJECTED.value,
            messages=self._messages_to.get((target_chain, origin_id), 0), honest=None,
        )
        self._verify_hop(target_chain, origin_id, tick, "rejected")

    def _on_validated(self, target_chain: str, entry, tick: int) -> None:
        """Apply a majority-validated origin at `target_chain` through
        `_apply`, then record the winning body on that chain. A body that
        is not a transaction, or that `_apply` refuses, is not recorded."""
        origin_id = entry.origin_tx_id
        honest_body = self._honest_bodies.get(origin_id)
        is_honest = entry.winning_body == honest_body if honest_body is not None else None
        self.emit(
            tick, "verification",
            chain=target_chain, origin_tx=origin_id, status=VerifyStatus.VALIDATED.value,
            messages=self._messages_to.get((target_chain, origin_id), 0), honest=is_honest,
        )
        if is_honest is False:
            self._verify_hop(target_chain, origin_id, tick, "validated-malicious")
            return
        try:
            origin = Transaction.from_canonical(entry.winning_body)
        except DecodeError as exc:
            self._registry_error(tick, PayloadKind.INTERCHAIN_ENVELOPE.value, exc)
            forward = None
        else:
            forward = self._apply(target_chain, origin, tick)
        if forward is None:
            self._verify_hop(target_chain, origin_id, tick, "registry-rejected")
            return
        self._verify_hop(target_chain, origin_id, tick, "forwarded" if forward else "validated")
        record = make_transaction(
            PayloadKind.INTERCHAIN_ENVELOPE, entry.winning_body,
            target_chain, forward, self.contract_keys[target_chain],
        )
        self._submit_local(target_chain, record, tick)

    def _apply(self, chain_id: str, tx: Transaction, tick: int) -> tuple[str, ...] | None:
        """Apply `tx` at `chain_id` with that side's handler: the bridge's
        registry handler or an organization chain's replica handler. Returns
        the chains to forward it to, or None after a `registry_error` if the
        side has no handler for its kind, its body does not decode, or the
        handler refuses it."""
        kind = tx.payload_kind
        handlers = self.BRIDGE_HANDLERS if chain_id == BRIDGE_CHAIN_ID else self.ORG_HANDLERS
        try:
            handler = handlers.get(kind)
            if handler is None:
                raise UnexpectedKind(f"chain {chain_id} does not handle {kind.value}")
            return handler(self, chain_id, tx, decode_payload(kind, tx.body), tick) or ()
        except (ForensicrossError, DecodeError) as exc:
            self._registry_error(tick, kind.value, exc)
            return None

    def _registry_error(self, tick: int, op: str, exc: Exception) -> None:
        self.emit(tick, "registry_error", op=op, error=type(exc).__name__, detail=str(exc))

    def _require_contract(self, tx: Transaction, chain_id: str) -> None:
        """Refuse `tx` unless `chain_id`'s contract, the one voice of that chain, signed it."""
        contract = self.contract_keys.get(chain_id)
        if contract is None or tx.sender_public_key != contract.public_key:
            raise NotChainAuthority(f"{tx.payload_kind.value} not signed by {chain_id}'s contract")

    # -- bridge-side handlers: registry call, event, chains to forward to ------------------

    def _bridge_case_create(
        self, chain_id: str, origin: Transaction, payload, tick: int
    ) -> tuple[str, ...]:
        self.registry.register_case(
            payload.case_number, origin.source_chain,
            origin.destination_chains, origin.sender_public_key,
        )
        self.emit(
            tick, "case_registered",
            case=payload.case_number, source=origin.source_chain,
            destinations=list(origin.destination_chains),
        )
        return origin.destination_chains

    def _bridge_access_control(
        self, chain_id: str, origin: Transaction, payload, tick: int
    ) -> tuple[str, ...]:
        # from_canonical refuses bytes that are not canonical, so the digest
        # of the carried bytes is policy.digest() without encoding it again
        policy = AccessPolicy.from_canonical(payload.policy_bytes)
        self.registry.store_policy(payload.case_number, origin.source_chain, policy)
        self.emit(
            tick, "policy_stored",
            chain=BRIDGE_CHAIN_ID, case=payload.case_number,
            digest=hash_bytes(payload.policy_bytes).hex(),
        )
        return origin.destination_chains

    def _bridge_query_node_assign(
        self, chain_id: str, origin: Transaction, payload, tick: int
    ) -> tuple[str, ...]:
        case = self.registry.assign_query_nodes(
            payload.case_number, origin.source_chain, payload.public_keys
        )
        self.emit(
            tick, "query_nodes_assigned",
            case=payload.case_number, chain=origin.source_chain,
            total=len(case.query_nodes),
        )
        return ()

    def _bridge_stage_proposal(
        self, chain_id: str, origin: Transaction, payload, tick: int
    ) -> tuple[str, ...]:
        registry = self.registry
        if payload.phase != PHASE_OPEN:
            raise StaleStage(f"unexpected phase {payload.phase!r} from a chain")
        if payload.round != registry.next_round(payload.case_number, payload.stage):
            raise StaleStage(f"proposal round {payload.round} out of sequence")
        proposal = registry.open_stage_proposal(
            payload.case_number, origin.source_chain, payload.stage
        )
        self.emit(
            tick, "stage_proposal_opened",
            case=payload.case_number, stage=payload.stage,
            round=proposal.round, proposer=origin.source_chain,
        )
        case = registry.require_case(payload.case_number)
        return tuple(c for c in case.participants if c != origin.source_chain)

    def _bridge_stage_vote(
        self, chain_id: str, origin: Transaction, payload, tick: int
    ) -> tuple[str, ...]:
        self._require_contract(origin, origin.source_chain)
        result = self.registry.process_stage_vote(
            payload.case_number, origin.source_chain,
            payload.stage, payload.round, payload.vote, payload.reason,
        )
        self.emit(
            tick, "stage_vote",
            case=payload.case_number, stage=payload.stage,
            round=payload.round, chain=origin.source_chain,
            vote=payload.vote, outcome=result.outcome.value,
        )
        if result.outcome is not StageOutcome.AWAITING_VOTES:
            self._emit_stage_outcome(payload.case_number, result, tick)
        return ()

    def _emit_stage_outcome(self, case_number: str, result, tick: int) -> None:
        registry = self.registry
        case = registry.require_case(case_number)
        self.emit(
            tick, "stage_outcome",
            case=case_number, stage=result.stage, round=result.round,
            outcome=result.outcome.value, reasons=list(result.reasons),
        )
        if result.outcome is StageOutcome.ADVANCED:
            targets = case.participants
            payload = StageProposalPayload(
                case_number, result.stage, result.round, PHASE_ADVANCED
            )
        else:
            proposal = case.rounds[-1]
            targets = (proposal.proposer_chain,)
            payload = StageProposalPayload(
                case_number, result.stage, result.round, PHASE_BLOCKED, result.reasons
            )
        control = payload_transaction(
            payload, BRIDGE_CHAIN_ID, self.contract_keys[BRIDGE_CHAIN_ID], targets
        )
        self._submit_local(BRIDGE_CHAIN_ID, control, tick)

    def _bridge_provenance_request(
        self, chain_id: str, origin: Transaction, payload, tick: int
    ) -> tuple[str, ...]:
        requester = self._pk_to_user.get(
            payload.requester_public_key, payload.requester_public_key.hex()[:16]
        )
        try:
            bundle = extract_provenance(
                self.registry, payload.case_number,
                payload.requester_public_key, self.stores,
            )
        except (UnknownCase, NotQueryNode) as exc:
            self.emit(
                tick, "provenance_denied",
                case=payload.case_number, requester=requester,
                error=type(exc).__name__,
            )
            return ()
        self.bundles.append((tick, bundle))
        self.emit(
            tick, "provenance_extracted",
            case=payload.case_number, requester=requester,
            chains=sorted(bundle.sections),
        )
        return ()

    BRIDGE_HANDLERS = {
        PayloadKind.CASE_CREATE: _bridge_case_create,
        PayloadKind.ACCESS_CONTROL: _bridge_access_control,
        PayloadKind.QUERY_NODE_ASSIGN: _bridge_query_node_assign,
        PayloadKind.STAGE_PROPOSAL: _bridge_stage_proposal,
        PayloadKind.STAGE_VOTE: _bridge_stage_vote,
        PayloadKind.PROVENANCE_REQUEST: _bridge_provenance_request,
    }

    def _deliver_stage_hash(
        self, case_number: str, chain_id: str, stage: int, tx_hash: bytes, tick: int
    ) -> None:
        try:
            record = self.registry.record_stage_hash(case_number, chain_id, stage, tx_hash)
        except ForensicrossError as exc:
            self._registry_error(tick, "record_stage_hash", exc)
            return
        self.emit(
            tick, "stage_hash_recorded",
            case=case_number, chain=chain_id, stage=stage,
            count=len(record.tx_hashes), leaf=record.leaf.hex(),
        )

    # -- organization-side handlers: update one chain's case replica -----------------------

    def _org_case_create(self, chain_id: str, tx: Transaction, payload, tick: int) -> None:
        self.org[chain_id].apply_case_create(
            payload.case_number, tx.source_chain,
            tx.destination_chains, tx.sender_public_key,
        )
        self.emit(
            tick, "local_case_created",
            chain=chain_id, case=payload.case_number, source=tx.source_chain,
        )

    def _org_access_control(self, chain_id: str, tx: Transaction, payload, tick: int) -> None:
        # as in _bridge_access_control, the carried bytes are canonical
        policy = AccessPolicy.from_canonical(payload.policy_bytes)
        self.org[chain_id].apply_policy(payload.case_number, policy)
        self.emit(
            tick, "policy_stored",
            chain=chain_id, case=payload.case_number,
            digest=hash_bytes(payload.policy_bytes).hex(),
        )

    def _org_stage_proposal(self, chain_id: str, tx: Transaction, payload, tick: int) -> None:
        if payload.phase != PHASE_OPEN:
            self._require_contract(tx, BRIDGE_CHAIN_ID)  # none in the mesh: always refused
        org = self.org[chain_id]
        case = org.cases.get(payload.case_number)
        if case is not None:
            case.rounds[payload.stage] = payload.round
        if payload.phase == PHASE_OPEN:
            vote, reason = self._vote_script.get(
                (payload.case_number, payload.stage, payload.round, chain_id),
                (VOTE_APPROVE, ""),
            )
            self.emit(
                tick, "stage_vote_cast",
                chain=chain_id, case=payload.case_number,
                stage=payload.stage, round=payload.round, vote=vote,
            )
            ballot = StageVotePayload(
                payload.case_number, payload.stage, payload.round, vote, reason
            )
            vote_tx = payload_transaction(ballot, chain_id, self.contract_keys[chain_id])
            self._submit_local(chain_id, vote_tx, tick)
        elif payload.phase == PHASE_ADVANCED:
            org.apply_stage_advance(payload.case_number, payload.stage)
            self.emit(
                tick, "stage_advance_applied",
                chain=chain_id, case=payload.case_number, stage=payload.stage,
            )
        else:
            self.emit(
                tick, "stage_blocked_issue",
                chain=chain_id, case=payload.case_number,
                stage=payload.stage, round=payload.round,
                reasons=list(payload.reasons),
            )

    ORG_HANDLERS = {
        PayloadKind.CASE_CREATE: _org_case_create,
        PayloadKind.ACCESS_CONTROL: _org_access_control,
        PayloadKind.STAGE_PROPOSAL: _org_stage_proposal,
    }

    # -- results -----------------------------------------------------------------------------

    @property
    def envelopes_sent(self) -> int:
        return sum(e["event"] == "envelope_sent" for e in self.events)

    def conservation(self) -> dict:
        """Message conservation: the envelopes sent and delivered, counted
        from the event log's `envelope_sent` and `envelope_received`
        records, and the ledger entries still pending."""
        unresolved = sum(
            1
            for contract in self.contracts.values()
            for e in contract.entries.values()
            if e.status is VerifyStatus.PENDING
        )
        return {
            "envelopes_sent": self.envelopes_sent,
            "envelopes_delivered": sum(e["event"] == "envelope_received" for e in self.events),
            "entries_unresolved": unresolved,
        }


def run_scenario(scenario: Scenario) -> World:
    """Build the world, drain the workload, and return the final state."""
    return World(scenario).run()


def route_transaction(tx: Transaction, world: World) -> DeliveryReport:
    """Submit `tx` on its source chain and drive the world until the routing
    pipeline resolves; returns the delivery report for it.

    A transaction its source chain keeps to itself has no report, so it is
    refused before anything is submitted: an access log entry or a recorded
    envelope (`UnexpectedKind`, see `World._on_block_mined`), or one with no
    next hop (`EmptyDestinations`)."""
    kind = tx.payload_kind
    if kind in (PayloadKind.DATA_ACCESS_LOG, PayloadKind.INTERCHAIN_ENVELOPE):
        raise UnexpectedKind(f"a {kind.value} transaction stays on its own chain")
    if not world._next_hops(tx, tx.source_chain):
        raise EmptyDestinations(f"{tx.source_chain} has no chain to send {kind.value} to")
    accepted = world.inject_transaction(tx)
    world.run()
    return world.reports[accepted.tx_id]


# -- artifact writers -------------------------------------------------------------


def write_event_log(world: World, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in world.events:
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")


METRICS_COLUMNS = [
    "tx_id", "kind", "origin_chain", "destinations", "mutual_receipt_tick",
    "accepted_tick", "duration_ticks", "verification_events", "messages",
    "status", "honest",
]


def write_metrics_csv(world: World, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_COLUMNS)
        for report in world.reports.values():
            accepted = (
                max(report.accepted_ticks.values()) if report.accepted_ticks else ""
            )
            duration = report.duration if report.duration is not None else ""
            writer.writerow(
                [
                    report.tx_id, report.kind, report.origin_chain,
                    "|".join(report.destinations), report.mutual_receipt_tick,
                    accepted, duration, report.verification_events,
                    report.message_count, report.status,
                    "" if report.winning_is_honest is None else report.winning_is_honest,
                ]
            )


def write_registry_snapshot(world: World, path: str | Path) -> None:
    if world.registry is not None:
        snapshot = world.registry.snapshot()
    else:
        snapshot = {
            "design": "mesh",
            "local_cases": {
                chain: sorted(world.org[chain].cases)
                for chain in world.chain_ids
            },
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- design comparison ------------------------------------------------------------


def make_comparison_scenario(
    k: int, design: Design, pattern: str = "single", seed: int = 7
) -> Scenario:
    """Minimal scenario routing one case creation, for mesh/bridge comparison.
    `communication_counts` refuses a k below 2 or an unknown pattern."""
    mesh_hops, _bridge_hops = communication_counts(k, pattern)  # one per destination
    chains = chain_names(k)
    destinations = tuple(chains[1:1 + mesh_hops])
    n_i = 3
    n = max(7, n_i * (k - 1) + 1)
    return Scenario(
        name=f"compare-{design.value}-k{k}-{pattern}",
        seed=seed,
        design=design,
        k=k,
        nodes_per_chain=n,
        mutual_per_chain=n_i,
        bridge_nodes=6 * k + 1,
        bridge_mutual=n_i * k,
        users=(UserSpec(name="creator", chain=chains[0], role="investigator"),),
        workload=(
            WorkloadAction(
                tick=1, action=ACTION_CREATE_CASE, chain=chains[0],
                user="creator", case="C-1", destinations=destinations,
            ),
        ),
    )


def compare_designs(k_min: int, k_max: int, pattern: str = "single") -> list[dict]:
    """Mean routed duration, message counts, and mutual-node counts per k."""
    rows = []
    for k in range(k_min, k_max + 1):
        row: dict = {"k": k}
        for design in (Design.MESH, Design.BRIDGE):
            world = run_scenario(make_comparison_scenario(k, design, pattern))
            case_reports = [
                r for r in world.reports.values()
                if r.kind == PayloadKind.CASE_CREATE.value
            ]
            durations = [r.duration for r in case_reports if r.duration is not None]
            name = design.value
            # `links` holds each link under both of its directions
            row[f"{name}_mutual"] = len(world.links) // 2 * world.scenario.mutual_per_chain
            row[f"{name}_duration"] = (
                sum(durations) / len(durations) if durations else None
            )
            row[f"{name}_messages"] = sum(r.message_count for r in case_reports)
            row[f"{name}_verifications"] = sum(
                r.verification_events for r in case_reports
            )
        rows.append(row)
    return rows
