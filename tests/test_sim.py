import json
from dataclasses import replace
from types import SimpleNamespace

import pytest

from forensicross.canonical import enc_int, enc_str, enc_str_list
from forensicross.chain import PayloadKind, make_transaction, validate_chain
from forensicross.errors import InvalidTopology, ScenarioError
from forensicross.payloads import (
    PAYLOAD_TYPES,
    AccessControlPayload,
    decode_payload,
    encode_payload,
)
from forensicross.scenario import (
    FAULT_COMPROMISE,
    FAULT_TAMPER,
    FaultSpec,
    RULE_DROP,
    RULE_EQUIVOCATE,
    load_scenario,
    scenario_from_dict,
)
from forensicross.sim import (
    BRIDGE_CHAIN_ID,
    World,
    compare_designs,
    make_comparison_scenario,
    run_scenario,
    write_event_log,
    write_metrics_csv,
    write_registry_snapshot,
)
from forensicross.topology import Design, communication_counts

BUNDLED = ["lifecycle_full", "tamper_demo", "bridge_small", "mesh_small", "faulty_nodes"]


def events_json(world: World) -> str:
    return "\n".join(json.dumps(e, separators=(",", ":")) for e in world.events)


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenarios_are_deterministic(scenario_dir, name):
    scenario = load_scenario(scenario_dir / f"{name}.yaml")
    first = run_scenario(scenario)
    second = run_scenario(scenario)
    assert events_json(first) == events_json(second)


@pytest.mark.parametrize("name", BUNDLED)
def test_conservation_no_silent_loss(scenario_dir, name):
    world = run_scenario(load_scenario(scenario_dir / f"{name}.yaml"))
    numbers = world.conservation()
    assert numbers["envelopes_sent"] == numbers["envelopes_delivered"]
    assert numbers["entries_unresolved"] == 0


def test_different_seed_changes_event_log(scenario_dir):
    scenario = load_scenario(scenario_dir / "bridge_small.yaml")
    a = run_scenario(scenario)
    b = run_scenario(replace(scenario, seed=scenario.seed + 1))
    assert events_json(a) != events_json(b)  # keys differ with the seed


def _case_durations(k: int, pattern: str) -> dict[str, object]:
    out = {}
    for design in (Design.MESH, Design.BRIDGE):
        world = run_scenario(make_comparison_scenario(k, design, pattern))
        report = next(r for r in world.reports.values() if r.kind == "CaseCreate")
        out[design.value] = report
    return out


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_bridge_duration_is_exactly_twice_mesh(k):
    reports = _case_durations(k, "single")
    assert reports["mesh"].duration == 1
    assert reports["bridge"].duration == 2 * reports["mesh"].duration


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_broadcast_verification_events_match_analytic_counts(k):
    reports = _case_durations(k, "broadcast")
    mesh_hops, bridge_hops = communication_counts(k, "broadcast")
    assert reports["mesh"].verification_events == mesh_hops
    assert reports["bridge"].verification_events == bridge_hops


def test_duration_equals_acceptance_minus_mutual_receipt():
    reports = _case_durations(4, "broadcast")
    for report in reports.values():
        last_accept = max(report.accepted_ticks.values())
        assert report.duration == last_accept - report.mutual_receipt_tick


def test_fanout_counts_destination_envelopes():
    scenario = make_comparison_scenario(4, Design.BRIDGE, "broadcast")
    world = run_scenario(scenario)
    validations = [
        e for e in world.events
        if e["event"] == "verification"
        and e["status"] == "Validated"
        and e["chain"] != "BRIDGE"
    ]
    assert len(validations) == 3  # one per destination chain


def test_compare_designs_table():
    rows = compare_designs(2, 5, pattern="single")
    by_k = {row["k"]: row for row in rows}
    assert by_k[2]["bridge_duration"] == 2.0 * by_k[2]["mesh_duration"]
    assert by_k[3]["bridge_mutual"] == by_k[3]["mesh_mutual"] == 9
    assert by_k[5]["bridge_mutual"] == 15
    assert by_k[5]["mesh_mutual"] == 30
    for row in rows:
        # bridge stays within the bounded 2x factor while needing no more
        # mutual nodes than the mesh from k=3 on
        assert row["bridge_duration"] == 2 * row["mesh_duration"]
        if row["k"] >= 3:
            assert row["bridge_mutual"] <= row["mesh_mutual"]


def test_invalid_topology_refuses_to_build(scenario_dir):
    scenario = load_scenario(scenario_dir / "invalid_topology.yaml")
    with pytest.raises(InvalidTopology) as err:
        World(scenario)
    assert "eq1" in str(err.value)


def test_workload_referencing_unknown_chain_is_rejected():
    data = {
        "design": "bridge",
        "topology": {"chains": 2, "nodes_per_chain": 11, "mutual_per_chain": 3,
                     "bridge_nodes": 13},
        "users": [{"name": "u", "chain": "A", "role": "investigator"}],
        "workload": [
            {"tick": 1, "action": "create-case", "chain": "Z", "user": "u",
             "case": "C-1", "destinations": ["B"]},
        ],
    }
    with pytest.raises(ScenarioError, match="unknown chain"):
        scenario_from_dict(data, "x")


def test_unknown_scenario_keys_are_errors():
    data = {"design": "bridge", "topology": {"chains": 2, "nodes_per_chain": 11,
            "mutual_per_chain": 3}, "surprise": 1}
    with pytest.raises(ScenarioError, match="unknown keys"):
        scenario_from_dict(data, "x")


def test_mesh_rejects_bridge_only_actions():
    data = {
        "design": "mesh",
        "topology": {"chains": 2, "nodes_per_chain": 11, "mutual_per_chain": 3},
        "users": [{"name": "u", "chain": "A", "role": "investigator"}],
        "workload": [
            {"tick": 1, "action": "propose-stage", "chain": "A", "user": "u",
             "case": "C-1", "stage": 1},
        ],
    }
    with pytest.raises(ScenarioError, match="bridge design"):
        scenario_from_dict(data, "x")


def test_pending_timeout_expires_stalled_routing(scenario_dir):
    world = run_scenario(load_scenario(scenario_dir / "faulty_nodes.yaml"))
    expired = [r for r in world.reports.values() if r.status == "expired"]
    assert len(expired) == 1
    assert expired[0].tx_id == "A:3"
    stalls = [e for e in world.events if e["event"] == "envelope_expired"]
    assert len(stalls) == 1


def test_tamper_fault_never_touches_chains(scenario_dir):
    scenario = load_scenario(scenario_dir / "tamper_demo.yaml")
    scenario = replace(
        scenario,
        faults=(FaultSpec(tick=50, kind=FAULT_TAMPER, chain="B", case="C-1",
                          stage=2, tx_index=0),),
    )
    world = run_scenario(scenario)
    for chain in world.chains.values():
        assert validate_chain(chain) is None
    # and the bundled extraction (at tick 44, before the tamper) is honest,
    # while a fresh extraction now localizes it
    from forensicross.provenance import extract_provenance, verify_and_localize

    case = world.registry.cases["C-1"]
    bundle = extract_provenance(
        world.registry, "C-1", sorted(case.query_nodes)[0], world.stores
    )
    assert verify_and_localize(bundle).verdicts["B"] == (2,)


def test_compromise_fault_never_alters_honest_nodes():
    faults = (
        FaultSpec(tick=0, kind=FAULT_COMPROMISE, node="A.m0", rule=RULE_EQUIVOCATE),
    )
    scenario = replace(make_comparison_scenario(2, Design.BRIDGE), faults=faults)
    world = run_scenario(scenario)
    sends = [e for e in world.events if e["event"] == "envelope_sent"]
    for event in sends:
        assert event["honest"] == (event["node"] != "A.m0")


def test_drop_rule_sends_nothing():
    faults = (
        FaultSpec(tick=0, kind=FAULT_COMPROMISE, node="A.m2", rule=RULE_DROP),
    )
    scenario = replace(make_comparison_scenario(2, Design.BRIDGE), faults=faults)
    world = run_scenario(scenario)
    sends = [e for e in world.events if e["event"] == "envelope_sent" and e["to"] == "BRIDGE"]
    assert {e["node"] for e in sends} == {"A.m0", "A.m1"}
    report = next(r for r in world.reports.values() if r.kind == "CaseCreate")
    assert report.status == "delivered"  # 2-of-3 still a strict majority


def test_writers_produce_byte_stable_artifacts(tmp_path, scenario_dir):
    scenario = load_scenario(scenario_dir / "bridge_small.yaml")
    contents = []
    for run in range(2):
        out = tmp_path / str(run)
        out.mkdir()
        world = run_scenario(scenario)
        write_event_log(world, out / "events.jsonl")
        write_metrics_csv(world, out / "metrics.csv")
        write_registry_snapshot(world, out / "registry.json")
        contents.append(
            tuple((out / f).read_bytes() for f in ("events.jsonl", "metrics.csv", "registry.json"))
        )
    assert contents[0] == contents[1]


def test_valid_topology_instantiates_with_disjoint_mutual_sets():
    # constructive check behind validate_topology: the built worlds hold
    # pairwise-disjoint mutual sets of the declared odd size
    for k in (2, 4, 6):
        bridge = World(make_comparison_scenario(k, Design.BRIDGE))
        sets = [set(s.members) for s in bridge.mutual_sets.values()]
        assert all(len(s) == 3 for s in sets)
        assert len(set().union(*sets)) == 3 * k  # no overlap
        assert all(m in bridge.node_names["BRIDGE"] for s in sets for m in s)
        mesh = World(make_comparison_scenario(k, Design.MESH))
        pair_sets = [set(s.members) for s in mesh.pair_sets.values()]
        assert len(pair_sets) == k * (k - 1) // 2
        assert len(set().union(*pair_sets)) == 3 * len(pair_sets)


def test_delivery_report_hop_records_shape():
    world = run_scenario(make_comparison_scenario(2, Design.BRIDGE, "single"))
    report = next(r for r in world.reports.values() if r.kind == "CaseCreate")
    records = report.hop_records()
    assert [r["hop"] for r in records] == [
        "mutual-receipt", "bridge-verify", "destination-verify",
    ]
    for record in records:
        assert set(record) == {
            "tx_id", "hop", "chain", "logical_time", "message_count", "status",
        }


def test_block_time_slows_but_preserves_delivery():
    scenario = make_comparison_scenario(2, Design.BRIDGE, "single")
    slowed = replace(scenario, block_times={"default": 1, "BRIDGE": 3})
    world = run_scenario(slowed)
    report = next(r for r in world.reports.values() if r.kind == "CaseCreate")
    assert report.status == "delivered"
    assert report.duration > 2  # bridge cadence honestly adds to the path


def test_payload_tables_cover_every_kind():
    local_only = {PayloadKind.DATA_ACCESS_LOG, PayloadKind.INTERCHAIN_ENVELOPE}
    assert set(World.BRIDGE_HANDLERS) == set(PayloadKind) - local_only
    assert set(World.ORG_HANDLERS) == {
        PayloadKind.CASE_CREATE, PayloadKind.ACCESS_CONTROL, PayloadKind.STAGE_PROPOSAL,
    }
    assert set(PAYLOAD_TYPES) == set(PayloadKind) - {PayloadKind.INTERCHAIN_ENVELOPE}
    with pytest.raises(ValueError, match="no payload decoder"):
        decode_payload(PayloadKind.INTERCHAIN_ENVELOPE, b"")


# a policy whose one grant names an action no Action member has
BOGUS_ACTION_POLICY = (
    enc_str_list(["analyst"]) + enc_int(1)
    + enc_str("analyst") + enc_int(0) + enc_str_list(["delete"])
)


@pytest.mark.parametrize("body", [
    encode_payload(AccessControlPayload("C-7", BOGUS_ACTION_POLICY)),
    b"\x00\x00\x00",
], ids=["bogus-action-policy", "truncated-payload"])
def test_bridge_turns_an_undecodable_body_into_a_registry_error(scenario_dir, body):
    world = World(load_scenario(scenario_dir / "bridge_small.yaml"))
    spec, key = next(iter(world.users.values()))
    origin = make_transaction(PayloadKind.ACCESS_CONTROL, body, spec.chain, ("B",), key)
    entry = SimpleNamespace(origin_tx_id="forged", winning_body=origin.canonical_bytes())
    world._on_validated(BRIDGE_CHAIN_ID, entry, tick=3)
    assert world.events[-1]["event"] == "registry_error"
    assert world.events[-1]["error"] == "DecodeError"
