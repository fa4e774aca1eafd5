import hashlib
import heapq
import json
import tracemalloc
from dataclasses import fields, replace
from types import SimpleNamespace

import pytest
import yaml

from conftest import SCENARIOS
from forensicross import scenario as scenario_module
from forensicross.canonical import DecodeError, enc_int, enc_str, enc_str_list
from forensicross.chain import PayloadKind, make_transaction, validate_chain
from forensicross.comm import DeliveryReport, MutualNodeSet
from forensicross.crypto import KeyPair
from forensicross.errors import InvalidTopology, ScenarioError
from forensicross.payloads import (
    PAYLOAD_KINDS,
    PAYLOAD_TYPES,
    PHASE_ADVANCED,
    AccessControlPayload,
    CaseCreatePayload,
    DataAccessLogPayload,
    QueryNodeAssignPayload,
    StageProposalPayload,
    StageVotePayload,
    decode_payload,
    encode_payload,
    payload_transaction,
)
from forensicross.scenario import (
    ACTION_PROPOSE_STAGE,
    FAULT_COMPROMISE,
    FAULT_FIELDS,
    FAULT_TAMPER,
    GRANT_FIELDS,
    MAXIMUMS,
    MINIMUMS,
    POLICY_FIELDS,
    ROW_FIELDS,
    SCENARIO_FIELDS,
    TOPOLOGY_FIELDS,
    FaultSpec,
    RULE_DROP,
    RULE_EQUIVOCATE,
    UserSpec,
    VoteSpec,
    WORKLOAD_ACTIONS,
    WorkloadAction,
    chain_names,
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
from oracles import eager_topology

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


ENVELOPES_SENT = {
    "lifecycle_full": 165, "tamper_demo": 93, "bridge_small": 48, "mesh_small": 9,
    "faulty_nodes": 12,
}


@pytest.mark.parametrize("name", BUNDLED)
def test_conservation_totals_are_pinned(scenario_dir, name):
    world = run_scenario(load_scenario(scenario_dir / f"{name}.yaml"))
    sent = ENVELOPES_SENT[name]
    assert world.conservation() == {
        "envelopes_sent": sent, "envelopes_delivered": sent, "entries_unresolved": 0,
    }
    assert world.envelopes_sent == sent


def test_world_reads_its_envelope_totals_from_the_event_log(scenario_dir):
    world = run_scenario(load_scenario(scenario_dir / "bridge_small.yaml"))
    with pytest.raises(AttributeError):  # a count of records, never set
        world.envelopes_sent = 0
    world.events.append({"tick": 99, "event": "envelope_received"})
    assert world.conservation()["envelopes_delivered"] == ENVELOPES_SENT["bridge_small"] + 1
    for copy in ("envelopes_delivered", "_mine_scheduled", "_active_rule", "_pk_to_key"):
        assert not hasattr(world, copy)


@pytest.mark.parametrize("design", [Design.MESH, Design.BRIDGE], ids=lambda d: d.value)
def test_a_transaction_submitted_while_its_chain_mines_is_mined(design):
    # A applies its own open proposal when the block holding it is mined, and
    # submits its vote on A in that same mining phase
    world = run_scenario(make_comparison_scenario(2, design))
    creator = world.users["creator"][1]
    proposal = StageProposalPayload("C-1", 1, 1)
    world.inject_transaction(payload_transaction(proposal, "A", creator, ("B",)))
    world.run()
    assert world.chains["A"].pending_pool == []
    mined = [e["tick"] for e in world.events if e["event"] == "block_mined" and e["chain"] == "A"]
    votes = [e for e in world.events if e["event"] == "stage_vote_cast" and e["chain"] == "A"]
    assert len(votes) == 1
    assert mined.count(votes[0]["tick"]) == 2  # the proposal's block, then the vote's


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
    [k20] = compare_designs(20, 20, pattern="single")
    assert (k20["mesh_mutual"], k20["bridge_mutual"]) == (570, 60)


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


def test_an_absurd_chain_count_is_refused_without_building_its_names(scenario_dir):
    data = yaml.safe_load((scenario_dir / "bridge_small.yaml").read_text(encoding="utf-8"))
    data["topology"]["chains"] = 1_000_000
    tracemalloc.start()
    try:
        with pytest.raises(ScenarioError, match=r"topology\.chains must be <= 64, got 1000000"):
            scenario_from_dict(data, "x")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("name", ["nodes_per_chain", "bridge_nodes"])
def test_an_absurd_node_count_is_refused_at_load(scenario_dir, name):
    data = yaml.safe_load((scenario_dir / "bridge_small.yaml").read_text(encoding="utf-8"))
    data["topology"][name] = 10**9  # World would derive a key per node
    tracemalloc.start()
    try:
        with pytest.raises(ScenarioError, match=rf"topology\.{name} must be <= {MAXIMUMS[name]}"):
            scenario_from_dict(data, "x")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_the_topology_maximums_admit_the_largest_comparison():
    # compare_designs(2, 20) builds its scenarios in code; a file may ask for as much
    for design in (Design.MESH, Design.BRIDGE):
        scenario = make_comparison_scenario(20, design, "broadcast")
        sizes = {"chains": scenario.k, "nodes_per_chain": scenario.nodes_per_chain,
                 "bridge_nodes": scenario.bridge_nodes}
        assert all(sizes[name] * 3 <= top for name, top in MAXIMUMS.items())


def test_chains_past_the_alphabet_are_named_by_number():
    data = {"design": "mesh", "topology": {"chains": 27, "nodes_per_chain": 79,
            "mutual_per_chain": 3}, "users": [{"name": "u", "chain": "C27", "role": "r"}]}
    assert scenario_from_dict(data, "x").chain_ids == chain_names(27)
    assert chain_names(27)[::26] == ["C1", "C27"]
    data["users"][0]["chain"] = "A"
    with pytest.raises(ScenarioError, match="unknown chain 'A'"):
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


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.yaml")), ids=lambda p: p.stem)
def test_load_scenario_matches_the_pure_python_loader(path):
    reference = yaml.load(path.read_text(encoding="utf-8"), Loader=yaml.SafeLoader)
    assert load_scenario(path) == scenario_from_dict(reference, name=path.stem)


# sha256 of `loaded_repr` for each bundled scenario, recorded before the
# loader read its fields through one table; a loader change that keeps
# these keeps every value, type and default it hands the simulator
SCENARIO_REPR_SHA256 = {
    "bridge_small": "eb6cd27ff481e00100aa05868a643090bbe509364c85d61c6aa3a1e299095354",
    "faulty_nodes": "2efe5fe9490b9f9e4ab33ff91137fc47fbccb58361f70511b581fc44332d1b4b",
    "invalid_topology": "4fd1bd8d9a182e3a2baba2d713859e12a4321d479589a05575e4a6c0c4ceff24",
    "lifecycle_full": "9112fbd5981fa23452bcfb572636fda234a2e1a04dd5e1b9cb0702a2fa6b6018",
    "mesh_small": "01b60cc574d8f83e3c3104b2d6267d7ca1e6cca8fa23d03bfb513639e37757d7",
    "tamper_demo": "23b37ff540ec58cf08b1b773e6d2c81409e409d483c3bcaee96ccebe46034422",
}


def loaded_repr(path) -> str:
    """`repr(load_scenario(path))` with the policy shown as its canonical
    bytes: a policy's frozensets print in an order that changes with the
    process's hash seed."""
    scenario = load_scenario(path)
    policy = scenario.policy.canonical_bytes().hex() if scenario.policy else None
    return repr(replace(scenario, policy=policy))


@pytest.mark.parametrize("name", sorted(SCENARIO_REPR_SHA256))
def test_loaded_scenarios_match_pinned_reprs(scenario_dir, name):
    text = loaded_repr(scenario_dir / f"{name}.yaml")
    assert hashlib.sha256(text.encode()).hexdigest() == SCENARIO_REPR_SHA256[name]


def test_load_scenario_uses_libyaml_when_installed_and_falls_back(monkeypatch, scenario_dir):
    installed = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    assert scenario_module._YAML_LOADER is installed
    path = scenario_dir / "lifecycle_full.yaml"
    loaded = load_scenario(path)
    monkeypatch.setattr(scenario_module, "_YAML_LOADER", yaml.SafeLoader)
    assert load_scenario(path) == loaded


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


def test_a_compromise_fault_names_a_node_of_the_world():
    scenario = make_comparison_scenario(2, Design.BRIDGE)
    idle = FaultSpec(tick=0, kind=FAULT_COMPROMISE, node="A.r0", rule=RULE_DROP)
    world = run_scenario(replace(scenario, faults=(idle,)))
    assert world.events[0] == {
        "tick": 0, "event": "fault_activated", "kind": FAULT_COMPROMISE,
        "node": "A.r0", "rule": RULE_DROP,
    }
    with pytest.raises(ScenarioError, match="unknown node 'A.r99'"):
        run_scenario(replace(scenario, faults=(replace(idle, node="A.r99"),)))


def test_only_the_nodes_that_act_derive_a_key():
    world = World(make_comparison_scenario(20, Design.BRIDGE, "broadcast"))
    assert world.keys == {}
    world.run()
    acting = {e["node"] for e in world.events if e["event"] == "envelope_sent"} | {
        e["validator"] for e in world.events if e["event"] == "block_mined"
    }
    assert set(world.keys) == acting
    # the audit reads each block's scheduled validator, never the whole set
    assert all(validate_chain(chain) is None for chain in world.chains.values())
    assert set(world.keys) == acting
    assert len(acting) < len({n for names in world.node_names.values() for n in names}) // 5


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
        sets = [set(s.members) for s in set(bridge.links.values())]
        assert all(len(s) == 3 for s in sets)
        assert len(set().union(*sets)) == 3 * k  # no overlap
        assert all(m in bridge.node_names["BRIDGE"] for s in sets for m in s)
        mesh = World(make_comparison_scenario(k, Design.MESH))
        pair_sets = [set(s.members) for s in set(mesh.links.values())]
        assert len(pair_sets) == k * (k - 1) // 2
        assert len(set().union(*pair_sets)) == 3 * len(pair_sets)


TOPOLOGIES = [
    *(make_comparison_scenario(k, design) for k in range(2, 9) for design in Design),
    load_scenario(SCENARIOS / "lifecycle_full.yaml"),
]


@pytest.mark.parametrize("scenario", TOPOLOGIES, ids=lambda s: s.name)
def test_node_names_and_links_match_the_eager_oracle(scenario):
    world = World(scenario)
    names, links = eager_topology(
        scenario.design.value, list(scenario.chain_ids), scenario.nodes_per_chain,
        scenario.bridge_nodes, scenario.mutual_per_chain,
    )
    assert {c: list(seq) for c, seq in world.node_names.items()} == names
    for c, expected in names.items():
        seq = world.node_names[c]
        assert len(seq) == len(expected) and seq[len(seq) - 1] == expected[-1]
        with pytest.raises(IndexError):
            seq[len(expected)]
    assert {pair: (s.chain_id, s.members) for pair, s in world.links.items()} == links


def test_a_link_builds_its_mutual_set_the_first_time_it_carries_a_hop(monkeypatch):
    built = []
    check = MutualNodeSet.__post_init__

    def record(mset):
        check(mset)
        built.append(mset.chain_id)

    monkeypatch.setattr(MutualNodeSet, "__post_init__", record)
    world = World(make_comparison_scenario(20, Design.MESH, "broadcast"))
    assert built == []
    world.run()
    # A's case reaches each other chain over its own link, and nothing else
    # is routed: the other 171 links never build a set
    assert sorted(built) == sorted(f"A~{c}" for c in chain_names(20)[1:])
    assert world.links[("B", "A")] is world.links[("A", "B")]
    assert len(built) == 19


@pytest.mark.parametrize("design,pair", [
    (Design.MESH, ("A", "A")),
    (Design.MESH, ("A", "Z")),
    (Design.BRIDGE, ("A", "B")),
    (Design.BRIDGE, (BRIDGE_CHAIN_ID, BRIDGE_CHAIN_ID)),
], ids=["mesh-self", "mesh-unknown", "bridge-two-orgs", "bridge-self"])
def test_a_pair_that_is_no_link_is_a_key_error(design, pair):
    world = World(make_comparison_scenario(3, design))
    with pytest.raises(KeyError):
        world.links[pair]
    assert pair not in world.links


def test_a_run_past_max_ticks_is_refused():
    # the case is mined at tick 1 and its envelopes arrive at tick 2
    world = World(replace(make_comparison_scenario(2, Design.BRIDGE), max_ticks=1))
    with pytest.raises(ScenarioError, match="exceeded max_ticks=1"):
        world.run()
    assert world.now == 1


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


# One workload row per action_error path, run on top of bridge_small at a
# tick after its own workload. Each action runs its pre-checks in a fixed
# order, so the first one that fails names the error: the scenario policy,
# then the query-node keys, the registered user, the destinations and
# last the case. The error golden pins only the C-404 row.
CASE_ACTIONS = [
    ("dispatch-policy", {}),
    ("assign-query-nodes", {"nodes": ["querya"]}),
    ("propose-stage", {"stage": 1}),
    ("request-provenance", {}),
    ("access", {"op": "read"}),
]
ACTION_ERROR_ROWS = {
    "create-case-no-destinations": (
        {"action": "create-case", "user": "alice", "case": "C-8"},
        ("EmptyDestinations", "C-8"),
    ),
    "create-case-foreign-user": (
        {"action": "create-case", "user": "bob", "case": "C-8", "destinations": ["B"]},
        ("UnknownUser", "user not registered on A"),
    ),
    "create-case-no-user": (
        {"action": "create-case", "case": "C-8", "destinations": ["B"]},
        ("UnknownUser", ""),
    ),
    "dispatch-policy-no-policy-foreign-user": (
        {"action": "dispatch-policy", "user": "bob", "case": "C-404"},
        ("ScenarioError", "scenario declares no policy to dispatch"),
    ),
    **{
        f"{action}-unknown-case": (
            {"action": action, "user": "alice", "case": "C-404", **extra},
            ("UnknownCase", "C-404 unknown on A"),
        )
        for action, extra in CASE_ACTIONS
    },
    **{
        f"{action}-foreign-user-unknown-case": (
            {"action": action, "user": "bob", "case": "C-404", **extra},
            ("UnknownUser", "user not registered on A"),
        )
        for action, extra in CASE_ACTIONS
    },
}


@pytest.mark.parametrize("name", sorted(ACTION_ERROR_ROWS))
def test_each_action_names_its_first_failing_pre_check(scenario_dir, name):
    row, expected = ACTION_ERROR_ROWS[name]
    data = yaml.safe_load((scenario_dir / "bridge_small.yaml").read_text(encoding="utf-8"))
    if name.startswith("dispatch-policy-no-policy"):
        del data["policy"]
    data["workload"].append({"tick": 30, "chain": "A", **row})
    world = run_scenario(scenario_from_dict(data, name=f"bridge_small_{name}"))
    errors = [
        (e["error"], e["detail"]) for e in world.events
        if e["event"] == "action_error" and e["tick"] == 30
    ]
    assert errors == [expected]
    assert not any(e["event"] == "tx_submitted" and e["tick"] == 30 for e in world.events)


def _edited_run(scenario_dir, name: str, edit) -> World:
    """Run bundled scenario `name` after `edit` of its workload rows."""
    data = yaml.safe_load((scenario_dir / f"{name}.yaml").read_text(encoding="utf-8"))
    edit(data["workload"])
    return run_scenario(scenario_from_dict(data, name=f"{name}_edited"))


def _propose_stage_3_twice(workload):
    workload.append({"tick": 26, "action": "propose-stage", "chain": "A", "user": "alice",
                     "case": "C-100", "stage": 3})


def _bob_re_proposes_stage_3(workload):
    next(a for a in workload if a["tick"] == 31).update(chain="B", user="bob")


@pytest.mark.parametrize("edit", [_propose_stage_3_twice, _bob_re_proposes_stage_3])
def test_a_stage_round_is_numbered_from_what_the_bridge_sent(scenario_dir, edit):
    # lifecycle_full's first stage 3 round is blocked by B; a refused extra
    # proposal uses no round, and another participant may re-propose
    world = _edited_run(scenario_dir, "lifecycle_full", edit)
    case = world.registry.require_case("C-100")
    assert [r.round for r in case.rounds if r.stage == 3] == [1, 2]
    assert case.current_stage == 5
    assert all(org.cases["C-100"].rounds[5] == 1 for org in world.org.values())


def _bob_dispatches_the_policy(workload):
    next(a for a in workload if a["action"] == "dispatch-policy").update(chain="B", user="bob")


def test_a_dispatched_policy_goes_to_every_other_participant(scenario_dir):
    world = _edited_run(scenario_dir, "bridge_small", _bob_dispatches_the_policy)
    report = next(r for r in world.reports.values() if r.kind == "AccessControl")
    assert report.destinations == ("A", "C") and report.status == "delivered"
    stored = [e["chain"] for e in world.events if e["event"] == "policy_stored"]
    assert sorted(stored) == ["A", "B", BRIDGE_CHAIN_ID, "C"]
    assert all(org.cases["C-7"].policy is not None for org in world.org.values())


def test_payload_tables_cover_every_kind():
    local_only = {PayloadKind.DATA_ACCESS_LOG, PayloadKind.INTERCHAIN_ENVELOPE}
    assert set(World.BRIDGE_HANDLERS) == set(PayloadKind) - local_only
    assert set(World.ORG_HANDLERS) == {
        PayloadKind.CASE_CREATE, PayloadKind.ACCESS_CONTROL, PayloadKind.STAGE_PROPOSAL,
    }
    assert set(PAYLOAD_TYPES) == set(PayloadKind) - {PayloadKind.INTERCHAIN_ENVELOPE}
    assert PAYLOAD_KINDS == {cls: kind for kind, cls in PAYLOAD_TYPES.items()}
    assert len(PAYLOAD_KINDS) == len(PAYLOAD_TYPES)  # no class serves two kinds
    assert set(World.ACTION_HANDLERS) == WORKLOAD_ACTIONS
    with pytest.raises(DecodeError, match="no payload decoder"):
        decode_payload(PayloadKind.INTERCHAIN_ENVELOPE, b"")


def test_scenario_tables_cover_every_row_field():
    assert set(ROW_FIELDS) == {UserSpec, WorkloadAction, VoteSpec, FaultSpec}
    for cls, table in ROW_FIELDS.items():
        assert list(table) == [f.name for f in fields(cls)]
        assert all(callable(read) for read, _required in table.values())
    assert set(FAULT_FIELDS) == {FAULT_COMPROMISE, FAULT_TAMPER}
    for table in FAULT_FIELDS.values():
        assert table.keys() <= ROW_FIELDS[FaultSpec].keys()
    tables = [*ROW_FIELDS.values(), TOPOLOGY_FIELDS, POLICY_FIELDS, GRANT_FIELDS, SCENARIO_FIELDS]
    assert MINIMUMS.keys() <= {key for table in tables for key in table}
    assert MAXIMUMS.keys() <= TOPOLOGY_FIELDS.keys()


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


@pytest.mark.parametrize("scenario,target,kind,body", [
    ("bridge_small", BRIDGE_CHAIN_ID, None, b"not a transaction"),
    ("mesh_small", "B", None, b"not a transaction"),
    ("mesh_small", "B", PayloadKind.CASE_CREATE, b"\x00\x00"),
], ids=["bridge-origin", "mesh-origin", "mesh-payload"])
def test_undecodable_validated_body_is_a_registry_error(scenario_dir, scenario, target, kind, body):
    world = World(load_scenario(scenario_dir / f"{scenario}.yaml"))
    spec, key = next(iter(world.users.values()))
    if kind is None:
        winning_body = body  # the origin transaction itself does not decode
    else:
        winning_body = make_transaction(kind, body, spec.chain, (target,), key).canonical_bytes()
    world.reports["forged"] = DeliveryReport("forged", "CaseCreate", spec.chain, (target,))
    entry = SimpleNamespace(origin_tx_id="forged", winning_body=winning_body)
    world._on_validated(target, entry, tick=3)
    assert world.events[-1]["event"] == "registry_error"
    assert world.events[-1]["error"] == "DecodeError"
    assert world.reports["forged"].status == "registry-rejected"
    assert world.chains[target].pending_pool == []  # nothing recorded


@pytest.mark.parametrize("refusal", ["registry-rejected", "validated-malicious"])
def test_a_refusal_at_one_destination_is_final(scenario_dir, refusal):
    world = World(load_scenario(scenario_dir / "mesh_small.yaml"))
    _spec, key = world.users["alice"]
    origin = payload_transaction(CaseCreatePayload("M-9"), "A", key, ("B", "C"))
    world.reports["forged"] = DeliveryReport("forged", "CaseCreate", "A", ("B", "C"))
    if refusal == "validated-malicious":
        world._honest_bodies["forged"] = origin.canonical_bytes()
    world._on_validated("B", SimpleNamespace(origin_tx_id="forged", winning_body=b"junk"), 3)
    assert world.reports["forged"].status == refusal
    world._honest_bodies["forged"] = origin.canonical_bytes()
    world._on_validated(
        "C", SimpleNamespace(origin_tx_id="forged", winning_body=origin.canonical_bytes()), 4
    )
    assert world.reports["forged"].status == refusal
    assert world.reports["forged"].accepted_ticks == {"B": 3, "C": 4}


@pytest.mark.parametrize("kind,body", [
    (PayloadKind.INTERCHAIN_ENVELOPE, b""),
    (PayloadKind.DATA_ACCESS_LOG, encode_payload(
        DataAccessLogPayload("C-7", b"\x11", "auditor", "read", 0, "Denied", b"\x22")
    )),
], ids=["envelope-origin", "data-access-log-origin"])
def test_an_origin_the_bridge_has_no_handler_for_is_a_registry_error(scenario_dir, kind, body):
    world = World(load_scenario(scenario_dir / "bridge_small.yaml"))
    spec, key = next(iter(world.users.values()))
    origin = make_transaction(kind, body, spec.chain, (), key)
    world.reports["forged"] = DeliveryReport("forged", kind.value, spec.chain, ())
    entry = SimpleNamespace(origin_tx_id="forged", winning_body=origin.canonical_bytes())
    world._on_validated(BRIDGE_CHAIN_ID, entry, tick=3)
    assert world.events[-1]["event"] == "registry_error"
    assert world.events[-1]["op"] == kind.value
    assert world.reports["forged"].status == "registry-rejected"
    assert world.chains[BRIDGE_CHAIN_ID].pending_pool == []


def test_an_origin_an_organization_chain_has_no_handler_for_is_a_registry_error(scenario_dir):
    world = World(load_scenario(scenario_dir / "mesh_small.yaml"))
    _spec, key = world.users["alice"]
    payload = QueryNodeAssignPayload("M-9", (key.public_key,))
    origin = payload_transaction(payload, "A", key, ("B",))
    world.reports["forged"] = DeliveryReport("forged", "QueryNodeAssign", "A", ("B",))
    entry = SimpleNamespace(origin_tx_id="forged", winning_body=origin.canonical_bytes())
    world._on_validated("B", entry, tick=3)
    assert world.events[-1]["event"] == "registry_error"
    assert world.events[-1]["op"] == "QueryNodeAssign"
    assert world.events[-1]["error"] == "UnexpectedKind"
    assert world.reports["forged"].status == "registry-rejected"
    assert world.chains["B"].pending_pool == []  # nothing recorded


def test_a_stage_hash_for_a_closed_case_is_a_registry_error(scenario_dir):
    world = run_scenario(load_scenario(scenario_dir / "bridge_small.yaml"))
    case = world.registry.require_case("C-7")
    case.current_stage = case.stage_count  # every stage advanced: closed
    world._deliver_stage_hash("C-7", "A", case.stage_count, b"\x00" * 32, tick=99)
    assert world.events[-1]["event"] == "registry_error"
    assert world.events[-1]["error"] == "StaleStage"


def _step(world: World) -> None:
    """Run the next queued callback, as `World.run` does."""
    tick, _phase, _seq, fn = heapq.heappop(world._queue)
    world.now = tick
    fn(tick)


def _run_until(world: World, event: str) -> None:
    """Drain the queue until `event` has been emitted."""
    while not any(e["event"] == event for e in world.events):
        _step(world)


def _step_to(world: World, tick: int) -> None:
    """Drain the queue up to, not including, `tick`, and stand at `tick`."""
    while world._queue[0][0] < tick:
        _step(world)
    world.now = tick


@pytest.mark.parametrize("path", ["libsodium", "openssl"])
def test_a_key_no_chain_registered_casts_no_stage_vote(path, request):
    if path == "openssl":
        request.getfixturevalue("openssl_only")
    scenario = make_comparison_scenario(2, Design.BRIDGE)
    propose = WorkloadAction(
        tick=30, action=ACTION_PROPOSE_STAGE, chain="A", user="creator", case="C-1", stage=1,
    )
    scenario = replace(
        scenario,
        workload=scenario.workload + (propose,),
        votes=(VoteSpec("C-1", 1, chain="B", vote="reject"),),
    )
    world = World(scenario)
    _run_until(world, "stage_proposal_opened")
    # an approve for B, signed by a key that neither B nor its contract holds
    mallory = KeyPair.derive("nobody", ":x:", "mallory")
    forged = payload_transaction(StageVotePayload("C-1", 1, 1, "approve"), "B", mallory)
    with pytest.raises(ScenarioError):
        world.inject_transaction(forged)
    assert world.events[-1]["event"] == "tx_rejected"
    world.run()
    outcomes = [e["outcome"] for e in world.events if e["event"] == "stage_outcome"]
    assert outcomes == ["Blocked"]  # B's own reject decides the round
    assert not any(e["event"] == "registry_error" for e in world.events)


@pytest.mark.parametrize("path", ["libsodium", "openssl"])
def test_a_record_its_source_replica_refuses_does_not_halt_the_run(scenario_dir, path, request):
    if path == "openssl":
        request.getfixturevalue("openssl_only")
    world = World(load_scenario(scenario_dir / "bridge_small.yaml"))
    _step_to(world, 3)
    _spec, alice = world.users["alice"]
    bad = make_transaction(PayloadKind.CASE_CREATE, b"\x00", "A", ("B",), alice)
    accepted = world.inject_transaction(bad)
    world.run()
    refusals = [(e["op"], e["error"]) for e in world.events if e["event"] == "registry_error"]
    assert refusals == [("CaseCreate", "DecodeError")] * 2  # A's replica, then the bridge
    assert world.reports[accepted.tx_id].status == "registry-rejected"
    assert any(e["event"] == "provenance_extracted" for e in world.events)  # ran to its end


def test_a_policy_for_a_case_a_destination_lacks_is_not_delivered(scenario_dir):
    world = run_scenario(load_scenario(scenario_dir / "mesh_small.yaml"))
    policy = load_scenario(scenario_dir / "bridge_small.yaml").policy
    _spec, alice = world.users["alice"]
    payload = AccessControlPayload("C-404", policy.canonical_bytes())
    accepted = world.inject_transaction(payload_transaction(payload, "A", alice, ("B",)))
    recorded = len(world.chains["B"].blocks)
    world.run()
    refusals = [e for e in world.events if e["event"] == "registry_error"]
    assert [(e["op"], e["error"]) for e in refusals] == [("AccessControl", "UnknownCase")] * 2
    assert world.reports[accepted.tx_id].status == "registry-rejected"
    assert len(world.chains["B"].blocks) == recorded  # B recorded no envelope


def test_a_stage_advance_for_an_unknown_case_is_a_registry_error(scenario_dir):
    world = World(load_scenario(scenario_dir / "bridge_small.yaml"))
    advance = StageProposalPayload("C-404", 1, 1, PHASE_ADVANCED)
    origin = payload_transaction(
        advance, BRIDGE_CHAIN_ID, world.contract_keys[BRIDGE_CHAIN_ID], ("A", "B")
    )
    entry = SimpleNamespace(origin_tx_id="advance", winning_body=origin.canonical_bytes())
    for chain in ("A", "B"):
        world._on_validated(chain, entry, tick=3)
        assert world.events[-1]["event"] == "registry_error"
        assert world.events[-1]["error"] == "UnknownCase"
        assert world.chains[chain].pending_pool == []  # nothing recorded
    assert not any(e["event"] == "stage_advance_applied" for e in world.events)


@pytest.mark.parametrize("path", ["libsodium", "openssl"])
def test_a_registered_user_casts_no_vote_in_its_chains_name(scenario_dir, path, request):
    if path == "openssl":
        request.getfixturevalue("openssl_only")
    world = World(load_scenario(scenario_dir / "bridge_small.yaml"))
    _run_until(world, "stage_proposal_opened")
    _spec, bob = world.users["bob"]
    world.inject_transaction(payload_transaction(StageVotePayload("C-7", 1, 1, "reject"), "B", bob))
    world.run()
    refusals = [(e["op"], e["error"]) for e in world.events if e["event"] == "registry_error"]
    assert refusals == [("StageVote", "NotChainAuthority")]
    votes = [(e["chain"], e["vote"]) for e in world.events if e["event"] == "stage_vote"]
    assert sorted(votes) == [("B", "approve"), ("C", "approve")]  # each contract's own
    assert world.registry.require_case("C-7").current_stage == 1


def test_a_user_sets_no_mesh_replicas_stage():
    world = run_scenario(make_comparison_scenario(2, Design.MESH))
    _spec, creator = world.users["creator"]
    advance = StageProposalPayload("C-1", 4, 1, PHASE_ADVANCED)
    accepted = world.inject_transaction(payload_transaction(advance, "A", creator, ("B",)))
    world.run()
    refusals = [(e["op"], e["error"]) for e in world.events if e["event"] == "registry_error"]
    assert refusals == [("StageProposal", "NotChainAuthority")] * 2  # A's replica, then B
    assert world.reports[accepted.tx_id].status == "registry-rejected"
    assert [org.cases["C-1"].stage for org in world.org.values()] == [0, 0]


def test_the_bridge_refuses_a_stage_outcome_sent_by_a_chain(scenario_dir):
    world = run_scenario(load_scenario(scenario_dir / "bridge_small.yaml"))
    _spec, alice = world.users["alice"]
    advance = StageProposalPayload("C-7", 2, 1, PHASE_ADVANCED)
    accepted = world.inject_transaction(payload_transaction(advance, "A", alice))
    world.run()
    refusals = [(e["op"], e["error"]) for e in world.events if e["event"] == "registry_error"]
    assert refusals == [("StageProposal", "StaleStage")]
    assert world.reports[accepted.tx_id].status == "registry-rejected"
    assert world.registry.require_case("C-7").current_stage == 1


def _alice_uploads_after_the_case_closed(workload):
    workload.append({"tick": 111, "action": "access", "chain": "A", "user": "alice",
                     "case": "C-100", "op": "upload", "payload": "late-note"})


def test_an_access_after_the_case_closed_is_logged_on_chain_only(scenario_dir):
    plain = run_scenario(load_scenario(scenario_dir / "lifecycle_full.yaml"))
    world = _edited_run(scenario_dir, "lifecycle_full", _alice_uploads_after_the_case_closed)
    late = next(e for e in world.events if e["event"] == "access" and e["tick"] == 111)
    assert late["stage"] == world.scenario.stage_count
    logged = {tx.tx_id for block in world.chains["A"].blocks for tx in block.transactions}
    assert late["tx_id"] in logged
    for chain, store in world.stores.items():  # no store gains a stage
        assert store.stage_lists("C-100", 6) == plain.stores[chain].stage_lists("C-100", 6)


def test_conservation_counts_an_entry_still_pending(scenario_dir):
    world = World(load_scenario(scenario_dir / "bridge_small.yaml"))
    _run_until(world, "envelope_received")  # one of the hop's three envelopes
    assert world.conservation() == {
        "envelopes_sent": 3, "envelopes_delivered": 1, "entries_unresolved": 1,
    }
