from dataclasses import replace
from itertools import product

import pytest

from forensicross.chain import PayloadKind
from forensicross.crypto import KeyPair, hash_bytes
from forensicross.errors import MalformedPolicy, UnknownCase
from forensicross.lifecycle import (
    ALLOWED,
    DENIED,
    AccessPolicy,
    Action,
    OrgChainState,
    check_access,
)
from forensicross.payloads import decode_payload
from forensicross.scenario import (
    ACTION_ACCESS,
    ACTION_CREATE_CASE,
    ACTION_DISPATCH_POLICY,
    UserSpec,
    WorkloadAction,
    load_scenario,
)
from forensicross.sim import World, make_comparison_scenario, run_scenario
from forensicross.topology import Design

USER = KeyPair.derive("lifecycle-user")


def org_with_user(role: str = "investigator") -> OrgChainState:
    org = OrgChainState("A")
    org.register_user(USER, role)
    return org


def default_policy() -> AccessPolicy:
    return AccessPolicy.build(
        ["investigator", "analyst"],
        {
            ("investigator", 0): {Action.UPLOAD, Action.READ},
            ("investigator", 1): {Action.UPLOAD},
            ("analyst", 3): {Action.READ},
        },
    )


def test_malformed_policy_rejected():
    with pytest.raises(MalformedPolicy):
        AccessPolicy.build(["investigator"], {("ghost", 0): {Action.READ}})


def test_empty_grants_is_a_valid_deny_all_policy():
    policy = AccessPolicy.build(["investigator"], {})
    for action in Action:
        assert check_access(policy, "investigator", 0, action) == DENIED


def test_check_access_examples():
    policy = default_policy()
    assert check_access(policy, "investigator", 0, Action.UPLOAD) == ALLOWED
    assert check_access(policy, "analyst", 0, Action.UPLOAD) == DENIED


def test_check_access_exhaustive_against_table_oracle():
    policy = default_policy()
    table = {
        ("investigator", 0): {Action.UPLOAD, Action.READ},
        ("investigator", 1): {Action.UPLOAD},
        ("analyst", 3): {Action.READ},
    }
    for role, stage, action in product(
        ["investigator", "analyst", "auditor"], range(5), Action
    ):
        expected = ALLOWED if action in table.get((role, stage), set()) else DENIED
        assert check_access(policy, role, stage, action) == expected


def test_policy_canonical_roundtrip_and_digest_stability():
    policy = default_policy()
    again = AccessPolicy.from_canonical(policy.canonical_bytes())
    assert again == policy
    assert again.digest() == policy.digest()
    # building from differently-ordered inputs yields the same digest
    shuffled = AccessPolicy.build(
        ["analyst", "investigator"],
        {
            ("analyst", 3): {Action.READ},
            ("investigator", 1): {Action.UPLOAD},
            ("investigator", 0): {Action.READ, Action.UPLOAD},
        },
    )
    assert shuffled.digest() == policy.digest()


def test_data_access_logs_denials_too():
    org = org_with_user(role="analyst")
    org.apply_case_create("C-7", "A", ("B",), USER.public_key)
    org.apply_policy("C-7", default_policy())
    tx, payload = org.data_access_tx(USER, "C-7", Action.UPLOAD, hash_bytes(b"p"))
    assert payload.decision == DENIED
    assert tx.payload_kind is PayloadKind.DATA_ACCESS_LOG  # denied yet still mined
    assert decode_payload(tx.payload_kind, tx.body) == payload


def test_data_access_unknown_case():
    org = org_with_user()
    with pytest.raises(UnknownCase):
        org.data_access_tx(USER, "C-404", Action.READ, hash_bytes(b"p"))


# -- simulator-backed checks ---------------------------------------------------


def _lifecycle_world(extra_workload, users=None, k=3) -> World:
    base = make_comparison_scenario(k, Design.BRIDGE)
    scenario = replace(
        base,
        users=tuple(users or base.users),
        policy=default_policy(),
        workload=tuple(extra_workload),
    )
    return run_scenario(scenario)


def test_local_case_created_at_mining_with_creator_key():
    workload = [
        WorkloadAction(tick=1, action=ACTION_CREATE_CASE, chain="A", user="creator",
                       case="C-7", destinations=("B",)),
    ]
    world = _lifecycle_world(workload)
    case = world.org["A"].cases["C-7"]
    assert case.creator_public_key == world.users["creator"][1].public_key
    assert case.source_chain == "A"


def test_policy_digest_identical_on_source_bridge_and_destinations():
    workload = [
        WorkloadAction(tick=1, action=ACTION_CREATE_CASE, chain="A", user="creator",
                       case="C-7", destinations=("B", "C")),
        WorkloadAction(tick=4, action=ACTION_DISPATCH_POLICY, chain="A", user="creator",
                       case="C-7"),
    ]
    world = _lifecycle_world(workload)
    digests = {
        chain: world.org[chain].cases["C-7"].policy.digest()
        for chain in ("A", "B", "C")
    }
    digests["BRIDGE"] = world.registry.cases["C-7"].policy.digest()
    assert len(set(digests.values())) == 1


def test_five_accesses_at_stage_feed_five_bridge_hashes():
    users = (
        UserSpec(name="creator", chain="A", role="investigator"),
    )
    accesses = [
        WorkloadAction(tick=6 + i, action=ACTION_ACCESS, chain="A", user="creator",
                       case="C-7", op="upload", payload=f"item-{i}")
        for i in range(5)
    ]
    workload = [
        WorkloadAction(tick=1, action=ACTION_CREATE_CASE, chain="A", user="creator",
                       case="C-7", destinations=("B",)),
        WorkloadAction(tick=4, action=ACTION_DISPATCH_POLICY, chain="A", user="creator",
                       case="C-7"),
        *accesses,
    ]
    world = _lifecycle_world(workload, users=users)
    record = world.registry.cases["C-7"].stage_records[("A", 0)]
    assert len(record.tx_hashes) == 5
    # bridge leaves equal leaves recomputable from the honest off-chain store
    stored = world.stores["A"].transactions("C-7", 0)
    assert [t.digest() for t in stored] == record.tx_hashes


def test_log_completeness_every_attempt_is_mined(scenario_dir):
    world = run_scenario(load_scenario(scenario_dir / "lifecycle_full.yaml"))
    for chain in world.chain_ids:
        attempts = [
            e for e in world.events
            if e["event"] == "access" and e["chain"] == chain
        ]
        mined = [
            tx
            for block in world.chains[chain].blocks
            for tx in block.transactions
            if tx.payload_kind is PayloadKind.DATA_ACCESS_LOG
        ]
        assert len(attempts) == len(mined)
        # the chain is the access log: each attempt's decision is on chain
        logged = [decode_payload(tx.payload_kind, tx.body) for tx in mined]
        assert [(e["tx_id"], e["stage"], e["decision"]) for e in attempts] == [
            (tx.tx_id, p.stage, p.decision) for tx, p in zip(mined, logged)
        ]
