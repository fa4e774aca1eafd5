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
from functools import partial
from pathlib import Path

from .canonical import DecodeError
from .chain import Chain, PayloadKind, SubmitError, Transaction, make_transaction
from .comm import (
    DeliveryReport,
    Hop,
    MutualNodeSet,
    VerificationContract,
    VerifyStatus,
    canonical_translation,
    translate,
)
from .crypto import KeyPair, hash_bytes
from .errors import (
    ForensicrossError,
    InvalidTopology,
    NotQueryNode,
    ScenarioError,
    StaleStage,
    UnknownCase,
    UnknownUser,
)
from .lifecycle import Action, AccessPolicy, OrgChainState
from .payloads import (
    PHASE_ADVANCED,
    PHASE_BLOCKED,
    PHASE_OPEN,
    StageProposalPayload,
    VOTE_APPROVE,
    decode_payload,
    encode_payload,
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
from .topology import Design, validate_topology

PHASE_DELIVER = 0
PHASE_ACTION = 1
PHASE_MINE = 2

STATUS_PENDING = "pending"
STATUS_DELIVERED = "delivered"
STATUS_REJECTED = "rejected"
STATUS_EXPIRED = "expired"
STATUS_MALICIOUS = "validated-malicious"
STATUS_REGISTRY_REJECTED = "registry-rejected"


def flip_last_byte(data: bytes) -> bytes:
    """Equivocation rule: a deterministic wrong translation, identical across
    every compromised node (flips inside the embedded signature field, so the
    result still parses)."""
    if not data:
        return b"\xff"
    return data[:-1] + bytes([data[-1] ^ 0xFF])


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
        self.envelopes_sent = 0
        self.envelopes_delivered = 0

        self._queue: list = []
        self._seq = 0
        self._handled: set[tuple[str, str]] = set()
        self._honest_bodies: dict[str, bytes] = {}
        self._messages_to: dict[tuple[str, str], int] = {}
        self._mine_scheduled: set[tuple[str, int]] = set()
        self._compromised: dict[str, tuple[str, int]] = {}  # node -> (rule, since)

        self._build_topology()
        self._build_keys_and_chains()
        self._build_participants()
        self._schedule_inputs()

    # -- construction ---------------------------------------------------------

    def _build_topology(self) -> None:
        s = self.scenario
        self.chain_ids = s.chain_ids
        self.mutual_sets: dict[str, MutualNodeSet] = {}
        self.pair_sets: dict[tuple[str, str], MutualNodeSet] = {}
        self.node_names: dict[str, list[str]] = {}

        if self.design is Design.BRIDGE:
            bridge_members: list[str] = []
            for c in self.chain_ids:
                members = tuple(f"{c}.m{i}" for i in range(s.mutual_per_chain))
                self.mutual_sets[c] = MutualNodeSet(c, members)
                bridge_members.extend(members)
                fillers = [f"{c}.r{i}" for i in range(s.nodes_per_chain - s.mutual_per_chain)]
                self.node_names[c] = list(members) + fillers
            bridge_fillers = [
                f"{BRIDGE_CHAIN_ID}.r{i}"
                for i in range(s.bridge_nodes - len(bridge_members))
            ]
            self.node_names[BRIDGE_CHAIN_ID] = bridge_members + bridge_fillers
        else:
            per_chain: dict[str, list[str]] = {c: [] for c in self.chain_ids}
            for a_idx, a in enumerate(self.chain_ids):
                for b in self.chain_ids[a_idx + 1:]:
                    label = f"{a}~{b}"
                    members = tuple(f"{label}.m{i}" for i in range(s.mutual_per_chain))
                    self.pair_sets[(a, b)] = MutualNodeSet(label, members)
                    per_chain[a].extend(members)
                    per_chain[b].extend(members)
            for c in self.chain_ids:
                fillers = [
                    f"{c}.r{i}" for i in range(s.nodes_per_chain - len(per_chain[c]))
                ]
                self.node_names[c] = per_chain[c] + fillers

    def _build_keys_and_chains(self) -> None:
        s = self.scenario
        seed_label = f"scenario:{s.seed}"
        self.keys: dict[str, KeyPair] = {}
        for names in self.node_names.values():
            for name in names:
                if name not in self.keys:
                    self.keys[name] = KeyPair.derive(seed_label, ":node:", name)
        self.contract_keys = {
            c: KeyPair.derive(seed_label, ":contract:", c) for c in self.node_names
        }
        self._pk_to_key = {kp.public_key: kp for kp in self.keys.values()}
        self._pk_to_name = {kp.public_key: name for name, kp in self.keys.items()}
        self.chains = {
            c: Chain(c, [self.keys[n].public_key for n in names])
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
            key = KeyPair.derive(f"scenario:{s.seed}", ":user:", spec.name)
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

    def _node_pk(self, node: str) -> bytes:
        return self.keys[node].public_key

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
        org = self.org[a.chain]
        try:
            if a.action == ACTION_CREATE_CASE:
                tx = org.create_case_request(
                    self._user_key(a.user), a.case, list(a.destinations)
                )
                self._submit_local(a.chain, tx, tick)
            elif a.action == ACTION_DISPATCH_POLICY:
                if self.scenario.policy is None:
                    raise ScenarioError("scenario declares no policy to dispatch")
                tx = org.dispatch_access_policy(
                    self._user_key(a.user), a.case, self.scenario.policy
                )
                self._submit_local(a.chain, tx, tick)
            elif a.action == ACTION_ASSIGN_QUERY_NODES:
                keys = [self._user_key(name).public_key for name in a.nodes]
                tx = org.assign_query_nodes_request(self._user_key(a.user), a.case, keys)
                self._submit_local(a.chain, tx, tick)
            elif a.action == ACTION_PROPOSE_STAGE:
                tx = org.propose_stage_request(self._user_key(a.user), a.case, a.stage)
                self._submit_local(a.chain, tx, tick)
            elif a.action == ACTION_ACCESS:
                self._do_access(a, org, tick)
            elif a.action == ACTION_REQUEST_PROVENANCE:
                tx = org.provenance_request_tx(self._user_key(a.user), a.case)
                self._submit_local(a.chain, tx, tick)
            else:  # pragma: no cover - loader rejects unknown actions
                raise ScenarioError(f"unknown action {a.action!r}")
        except ForensicrossError as exc:
            self.emit(
                tick, "action_error",
                action=a.action, chain=a.chain, case=a.case,
                error=type(exc).__name__, detail=str(exc),
            )

    def _do_access(self, a: WorkloadAction, org: OrgChainState, tick: int) -> None:
        action = Action(a.op) if a.op else Action.READ
        label = a.payload or f"{a.case}:{a.user}:{tick}"
        tx, entry = org.data_access_tx(
            self._user_key(a.user), a.case, action, hash_bytes(label.encode()), tick
        )
        accepted = self._submit_local(a.chain, tx, tick)
        if accepted is None:
            return
        entry.tx_id = accepted.tx_id
        org.access_log.append(entry)
        self.emit(
            tick, "access",
            chain=a.chain, case=a.case, actor=a.user, role=entry.role,
            op=action.value, stage=entry.stage, decision=entry.decision,
            tx_id=accepted.tx_id,
        )

    def _activate_fault(self, fault, tick: int) -> None:
        if fault.kind == FAULT_COMPROMISE:
            if fault.node not in self.keys:
                raise ScenarioError(f"fault references unknown node {fault.node!r}")
            self._compromised[fault.node] = (fault.rule, tick)
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

    def _active_rule(self, node: str, tick: int) -> str | None:
        info = self._compromised.get(node)
        if info is None:
            return None
        rule, since = info
        return rule if tick >= since else None

    # -- chain plumbing --------------------------------------------------------------

    def inject_transaction(self, tx: Transaction) -> Transaction:
        """Entry point for driving the world without a workload file."""
        accepted = self._submit_local(tx.source_chain, tx, self.now)
        if accepted is None:
            raise ScenarioError("injected transaction was rejected at submission")
        return accepted

    def _submit_local(self, chain_id: str, tx: Transaction, tick: int) -> Transaction | None:
        try:
            accepted = self.chains[chain_id].submit_transaction(tx)
        except SubmitError as exc:
            self.emit(tick, "tx_rejected", chain=chain_id, reason=exc.reason)
            return None
        self.emit(
            tick, "tx_submitted",
            chain=chain_id, tx_id=accepted.tx_id, kind=accepted.payload_kind.value,
        )
        self._schedule_mine(chain_id, tick)
        return accepted

    def _schedule_mine(self, chain_id: str, tick: int) -> None:
        bt = self.scenario.block_time(chain_id)
        next_tick = tick if tick % bt == 0 else tick + (bt - tick % bt)
        key = (chain_id, next_tick)
        if key in self._mine_scheduled:
            return
        self._mine_scheduled.add(key)
        self.schedule(next_tick, PHASE_MINE, partial(self._mine, chain_id))

    def _mine(self, chain_id: str, tick: int) -> None:
        chain = self.chains[chain_id]
        if not chain.pending_pool:
            return
        validator = self._pk_to_key[chain.expected_validator(len(chain.blocks))]
        block = chain.mine_block(validator, timestamp=tick)
        self.emit(
            tick, "block_mined",
            chain=chain_id, height=block.height, txs=len(block.transactions),
            validator=self._pk_to_name[block.validator_public_key],
            hash=block.header_digest().hex(),
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
                # a user's stage proposal has none, so it casts no self-vote
                if tx.destination_chains:
                    self._apply_org(chain_id, tx, tick)
            self._start_routing(tx, chain_id, tick)

    def _record_access_tx(self, chain_id: str, tx: Transaction, tick: int) -> None:
        payload = decode_payload(PayloadKind.DATA_ACCESS_LOG, tx.body)
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
        self, tx: Transaction, mset: MutualNodeSet, target_chain: str,
        origin_id: str, tick: int,
    ) -> None:
        latency = self.scenario.link_latency
        sent = 0
        for node in mset.members:
            rule = self._active_rule(node, tick)
            if rule == RULE_DROP:
                self.emit(tick, "envelope_dropped", origin_tx=origin_id, node=node)
                continue
            corrupt = flip_last_byte if rule == RULE_EQUIVOCATE else None
            envelope = translate(tx, node, mset, self.keys[node], corrupt)
            sent += 1
            self.emit(
                tick, "envelope_sent",
                origin_tx=origin_id, node=node, to=target_chain,
                honest=corrupt is None,
            )
            self.schedule(
                tick + latency, PHASE_DELIVER,
                partial(self._deliver_envelope, target_chain, envelope, mset.size),
            )
        self.envelopes_sent += sent
        self._messages_to[(target_chain, origin_id)] = sent
        self.schedule(
            tick + latency + self.scenario.pending_timeout, PHASE_DELIVER,
            partial(self._check_timeout, target_chain, origin_id),
        )

    def _start_routing(self, tx: Transaction, chain_id: str, tick: int) -> None:
        """Translate `tx`, mined on `chain_id`, towards its next hops: an
        organization chain sends to the bridge (bridge design) or to each
        destination through the pair's mutual nodes (mesh design); the
        bridge sends to each destination through that chain's mutual nodes."""
        if chain_id == BRIDGE_CHAIN_ID:
            hops = [(self.mutual_sets[dest], dest) for dest in tx.destination_chains]
        elif self.design is Design.BRIDGE:
            hops = [(self.mutual_sets[chain_id], BRIDGE_CHAIN_ID)]
        else:
            hops = [
                (self.pair_sets[tuple(sorted((chain_id, dest)))], dest)
                for dest in tx.destination_chains
            ]
        if not hops:
            return
        if tx.payload_kind is PayloadKind.INTERCHAIN_ENVELOPE:
            # the bridge's record of a validated origin forwards that origin
            origin_id = Transaction.from_canonical(tx.body).tx_id
        else:
            # anything else, bridge control traffic included, is its own origin
            origin_id = tx.tx_id
            self.reports[origin_id] = DeliveryReport(
                tx_id=origin_id, kind=tx.payload_kind.value, origin_chain=chain_id,
                destinations=tx.destination_chains, mutual_receipt_tick=tick,
                hops=[Hop("mutual-receipt", chain_id, tick, 0, "ok")],
            )
            self._honest_bodies[origin_id] = canonical_translation(tx)
        for mset, target_chain in hops:
            self._send_translations(tx, mset, target_chain, origin_id, tick)

    def _deliver_envelope(self, target_chain: str, envelope, expected: int, tick: int) -> None:
        self.envelopes_delivered += 1
        contract = self.contracts[target_chain]
        entry, status, duplicate = contract.receive(envelope, expected, tick)
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
            return
        key = (target_chain, envelope.origin_tx_id)
        if key in self._handled:
            return
        if status is VerifyStatus.VALIDATED:
            self._handled.add(key)
            self._on_validated(target_chain, entry, tick)
        elif status is VerifyStatus.REJECTED:
            self._handled.add(key)
            self._on_rejected(target_chain, entry, tick)

    def _verify_hop(
        self, target_chain: str, origin_id: str, tick: int, outcome: str
    ) -> DeliveryReport | None:
        """Append the verification hop at `target_chain` to the origin's
        report, if it has one, and return the report."""
        report = self.reports.get(origin_id)
        if report is not None:
            hop = "bridge-verify" if target_chain == BRIDGE_CHAIN_ID else "destination-verify"
            messages = self._messages_to.get((target_chain, origin_id), 0)
            report.hops.append(Hop(hop, target_chain, tick, messages, outcome))
        return report

    def _check_timeout(self, target_chain: str, origin_id: str, tick: int) -> None:
        entry = self.contracts[target_chain].entries.get(origin_id)
        if entry is not None and entry.status is not VerifyStatus.PENDING:
            return
        if (target_chain, origin_id) in self._handled:
            return
        if entry is not None:
            entry.status = VerifyStatus.EXPIRED
            entry.resolved_tick = tick
        self._handled.add((target_chain, origin_id))
        self.emit(tick, "envelope_expired", chain=target_chain, origin_tx=origin_id)
        report = self._verify_hop(target_chain, origin_id, tick, "expired")
        if report is not None:
            report.status = STATUS_EXPIRED

    def _on_rejected(self, target_chain: str, entry, tick: int) -> None:
        origin_id = entry.origin_tx_id
        self.emit(
            tick, "verification",
            chain=target_chain, origin_tx=origin_id, status=VerifyStatus.REJECTED.value,
            messages=self._messages_to.get((target_chain, origin_id), 0), honest=None,
        )
        report = self._verify_hop(target_chain, origin_id, tick, "rejected")
        if report is not None:
            report.status = STATUS_REJECTED

    def _on_validated(self, target_chain: str, entry, tick: int) -> None:
        """Apply a majority-validated origin at `target_chain`: the bridge
        runs its registry handler, an organization chain its replica
        handler; both then record the winning body on their own chain."""
        origin_id = entry.origin_tx_id
        honest_body = self._honest_bodies.get(origin_id)
        is_honest = entry.winning_body == honest_body if honest_body is not None else None
        self.emit(
            tick, "verification",
            chain=target_chain, origin_tx=origin_id, status=VerifyStatus.VALIDATED.value,
            messages=self._messages_to.get((target_chain, origin_id), 0), honest=is_honest,
        )
        report = self._verify_hop(target_chain, origin_id, tick, "validated")
        if is_honest is False:
            if report is not None:
                report.status = STATUS_MALICIOUS
                report.winning_is_honest = False
                report.accepted_ticks[target_chain] = tick
            return
        if report is not None and report.winning_is_honest is None:
            report.winning_is_honest = True
        origin = Transaction.from_canonical(entry.winning_body)
        forward: tuple[str, ...] = ()
        if target_chain == BRIDGE_CHAIN_ID:
            kind = origin.payload_kind
            try:
                payload = decode_payload(kind, origin.body)
                forward = self.BRIDGE_HANDLERS[kind](self, origin, payload, tick)
            except (ForensicrossError, DecodeError) as exc:
                self.emit(
                    tick, "registry_error",
                    op=kind.value, error=type(exc).__name__, detail=str(exc),
                )
                if report is not None:
                    report.status = STATUS_REGISTRY_REJECTED
                    report.accepted_ticks[BRIDGE_CHAIN_ID] = tick
                return
        else:
            self._apply_org(target_chain, origin, tick)
        record = make_transaction(
            PayloadKind.INTERCHAIN_ENVELOPE, entry.winning_body,
            target_chain, forward, self.contract_keys[target_chain],
        )
        self._submit_local(target_chain, record, tick)
        if report is None or forward:
            return
        report.accepted_ticks[target_chain] = tick
        # the bridge delivers whatever it does not forward; otherwise delivery
        # completes when the last destination accepts
        if (
            target_chain == BRIDGE_CHAIN_ID
            or set(report.destinations).issubset(report.accepted_ticks)
        ):
            report.status = STATUS_DELIVERED

    # -- bridge-side handlers: registry call, event, chains to forward to ------------------

    def _bridge_case_create(self, origin: Transaction, payload, tick: int) -> tuple[str, ...]:
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

    def _bridge_access_control(self, origin: Transaction, payload, tick: int) -> tuple[str, ...]:
        policy = AccessPolicy.from_canonical(payload.policy_bytes)
        self.registry.store_policy(payload.case_number, origin.source_chain, policy)
        self.emit(
            tick, "policy_stored",
            chain=BRIDGE_CHAIN_ID, case=payload.case_number, digest=policy.digest().hex(),
        )
        return origin.destination_chains

    def _bridge_query_node_assign(
        self, origin: Transaction, payload, tick: int
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

    def _bridge_stage_proposal(self, origin: Transaction, payload, tick: int) -> tuple[str, ...]:
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

    def _bridge_stage_vote(self, origin: Transaction, payload, tick: int) -> tuple[str, ...]:
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
        control = make_transaction(
            PayloadKind.STAGE_PROPOSAL, encode_payload(payload),
            BRIDGE_CHAIN_ID, targets, self.contract_keys[BRIDGE_CHAIN_ID],
        )
        self._submit_local(BRIDGE_CHAIN_ID, control, tick)

    def _bridge_provenance_request(
        self, origin: Transaction, payload, tick: int
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
            self.emit(
                tick, "registry_error",
                op="record_stage_hash", error=type(exc).__name__, detail=str(exc),
            )
            return
        self.emit(
            tick, "stage_hash_recorded",
            case=case_number, chain=chain_id, stage=stage,
            count=len(record.tx_hashes), leaf=record.leaf.hex(),
        )

    # -- organization-side handlers: update one chain's case replica -----------------------

    def _apply_org(self, chain_id: str, tx: Transaction, tick: int) -> None:
        handler = self.ORG_HANDLERS.get(tx.payload_kind)
        if handler is not None:
            handler(self, chain_id, tx, decode_payload(tx.payload_kind, tx.body), tick)

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
        policy = AccessPolicy.from_canonical(payload.policy_bytes)
        try:
            self.org[chain_id].apply_policy(payload.case_number, policy)
        except UnknownCase:
            self.emit(
                tick, "registry_error",
                op="apply_policy", error="UnknownCase", detail=payload.case_number,
            )
            return
        self.emit(
            tick, "policy_stored",
            chain=chain_id, case=payload.case_number, digest=policy.digest().hex(),
        )

    def _org_stage_proposal(self, chain_id: str, tx: Transaction, payload, tick: int) -> None:
        org = self.org[chain_id]
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
            vote_tx = org.stage_vote_tx(
                self.contract_keys[chain_id], payload.case_number,
                payload.stage, payload.round, vote, reason,
            )
            self._submit_local(chain_id, vote_tx, tick)
        elif payload.phase == PHASE_ADVANCED:
            try:
                org.apply_stage_advance(payload.case_number, payload.stage)
            except UnknownCase:
                pass
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

    def conservation(self) -> dict:
        unresolved = sum(
            1
            for contract in self.contracts.values()
            for e in contract.entries.values()
            if e.status is VerifyStatus.PENDING
        )
        return {
            "envelopes_sent": self.envelopes_sent,
            "envelopes_delivered": self.envelopes_delivered,
            "entries_unresolved": unresolved,
        }


def run_scenario(scenario: Scenario) -> World:
    """Build the world, drain the workload, and return the final state."""
    return World(scenario).run()


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
    """Minimal scenario routing one case creation, for mesh/bridge comparison."""
    if k < 2:
        raise ValueError("comparison needs k >= 2")
    chains = chain_names(k)
    if pattern == "single":
        destinations = (chains[1],)
    elif pattern == "broadcast":
        destinations = tuple(chains[1:])
    else:
        raise ValueError(f"unknown pattern {pattern!r}")
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
            if design is Design.MESH:
                mutual = sum(s.size for s in world.pair_sets.values())
            else:
                mutual = sum(s.size for s in world.mutual_sets.values())
            row[f"{name}_mutual"] = mutual
            row[f"{name}_duration"] = (
                sum(durations) / len(durations) if durations else None
            )
            row[f"{name}_messages"] = sum(r.message_count for r in case_reports)
            row[f"{name}_verifications"] = sum(
                r.verification_events for r in case_reports
            )
        rows.append(row)
    return rows
