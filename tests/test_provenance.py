import copy
import hashlib
from dataclasses import replace
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SCENARIOS
from forensicross import chain, crypto, provenance
from forensicross.crypto import DIGEST_SIZE, hash_bytes
from forensicross.errors import MalformedBundle, NotQueryNode, ScenarioError, UnknownCase
from forensicross.provenance import (
    EMPTY_STAGE_LEAF,
    OffchainCaseStore,
    bundle_to_record,
    case_chain_root,
    extract_provenance,
    stage_leaf,
    verify_and_localize,
)
from forensicross.scenario import FAULT_TAMPER, FaultSpec, load_scenario
from forensicross.sim import run_scenario
from oracles import nested_stage_leaf, recursive_merkle_root, sha


def test_stage_leaf_empty_convention():
    assert stage_leaf([]) == hashlib.sha256(hashlib.sha256(b"").digest()).digest()
    assert stage_leaf([]) == EMPTY_STAGE_LEAF


def test_stage_leaf_single_and_multi():
    d1, d2, d3 = sha(b"1"), sha(b"2"), sha(b"3")
    assert stage_leaf([d1]) == hashlib.sha256(hashlib.sha256(d1).digest()).digest()
    # independent two-line recomputation
    inner = hashlib.sha256(d1 + d2 + d3).digest()
    assert stage_leaf([d1, d2, d3]) == hashlib.sha256(inner).digest()


def test_stage_leaf_order_matters():
    d1, d2 = sha(b"1"), sha(b"2")
    assert stage_leaf([d1, d2]) != stage_leaf([d2, d1])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.binary(min_size=32, max_size=32), max_size=20))
def test_stage_leaf_matches_the_nested_oracle(tx_hashes):
    assert stage_leaf(tx_hashes) == nested_stage_leaf(tx_hashes)


def test_case_chain_root_shapes():
    leaves1 = [sha(b"s0")]
    assert case_chain_root(leaves1, 1) == leaves1[0]
    l = [sha(bytes([i])) for i in range(4)]
    expected = hashlib.sha256(
        hashlib.sha256(l[0] + l[1]).digest() + hashlib.sha256(l[2] + l[3]).digest()
    ).digest()
    assert case_chain_root(l, 4) == expected
    five = [sha(bytes([i])) for i in range(5)]
    assert case_chain_root(five, 5) == recursive_merkle_root(five)


def test_case_chain_root_rejects_wrong_leaf_count():
    with pytest.raises(ValueError):
        case_chain_root([sha(b"x")], 5)


def _tamper_world(scenario_dir):
    return run_scenario(load_scenario(scenario_dir / "tamper_demo.yaml"))


def test_extract_requires_query_node(scenario_dir):
    world = _tamper_world(scenario_dir)
    with pytest.raises(NotQueryNode):
        extract_provenance(world.registry, "C-1", hash_bytes(b"not-a-node"), world.stores)
    with pytest.raises(UnknownCase):
        extract_provenance(world.registry, "C-404", hash_bytes(b"x"), world.stores)


def test_denied_request_is_logged_in_events(scenario_dir):
    from forensicross.scenario import WorkloadAction, ACTION_REQUEST_PROVENANCE, UserSpec

    scenario = load_scenario(scenario_dir / "tamper_demo.yaml")
    outsider = UserSpec(name="outsider", chain="A", role="analyst")
    scenario = replace(
        scenario,
        users=scenario.users + (outsider,),
        workload=scenario.workload + (
            WorkloadAction(tick=46, action=ACTION_REQUEST_PROVENANCE, chain="A",
                           user="outsider", case="C-1"),
        ),
    )
    world = run_scenario(scenario)
    denials = [e for e in world.events if e["event"] == "provenance_denied"]
    assert len(denials) == 1
    assert denials[0]["error"] == "NotQueryNode"


def test_bundle_structure_covers_all_participants(scenario_dir):
    world = run_scenario(load_scenario(scenario_dir / "lifecycle_full.yaml"))
    _tick, bundle = world.bundles[0]
    assert sorted(bundle.sections) == ["A", "B", "C"]
    assert sorted(bundle.bridge_refs) == ["A", "B", "C"]
    for section in bundle.sections.values():
        assert len(section.stage_transactions) == 5
        assert len(section.leaves) == 5


def test_untampered_bundle_verifies_intact(scenario_dir):
    world = _tamper_world(scenario_dir)
    _tick, bundle = world.bundles[0]
    report = verify_and_localize(bundle)
    assert report.verdicts == {"A": (), "B": ()}
    assert not report.tampered


def test_single_tamper_localizes_exactly(scenario_dir):
    world = _tamper_world(scenario_dir)
    case = world.registry.cases["C-1"]
    world.stores["B"].tamper("C-1", 2, 1)
    bundle = extract_provenance(
        world.registry, "C-1", sorted(case.query_nodes)[0], world.stores
    )
    report = verify_and_localize(bundle)
    assert report.verdicts["B"] == (2,)
    assert report.verdicts["A"] == ()


def test_multi_stage_tamper_reports_both(scenario_dir):
    world = _tamper_world(scenario_dir)
    case = world.registry.cases["C-1"]
    world.stores["A"].tamper("C-1", 1, 0)
    world.stores["A"].tamper("C-1", 4, 2)
    bundle = extract_provenance(
        world.registry, "C-1", sorted(case.query_nodes)[0], world.stores
    )
    report = verify_and_localize(bundle)
    assert report.verdicts["A"] == (1, 4)
    assert report.verdicts["B"] == ()


def test_malformed_bundle_missing_reference(scenario_dir):
    world = _tamper_world(scenario_dir)
    case = world.registry.cases["C-1"]
    bundle = extract_provenance(
        world.registry, "C-1", sorted(case.query_nodes)[0], world.stores
    )
    del bundle.bridge_refs["B"]
    with pytest.raises(MalformedBundle):
        verify_and_localize(bundle)


def test_soundness_randomized_honest_runs(scenario_dir):
    # honest runs under different seeds always verify intact
    base = load_scenario(scenario_dir / "tamper_demo.yaml")
    for seed in range(10):
        world = run_scenario(replace(base, seed=seed))
        _tick, bundle = world.bundles[0]
        assert not verify_and_localize(bundle).tampered


def test_store_tamper_changes_only_the_store():
    store = OffchainCaseStore("A")
    from forensicross.chain import PayloadKind, make_transaction
    from forensicross.crypto import KeyPair

    tx = make_transaction(
        PayloadKind.DATA_ACCESS_LOG, b"orig", "A", [], KeyPair.derive("u")
    )
    store.append("C-1", 0, tx)
    before = store.transactions("C-1", 0)[0].digest()
    tampered = store.tamper("C-1", 0, 0)
    after = store.transactions("C-1", 0)[0].digest()
    assert before != after
    assert tx.body == b"orig"  # the original object is untouched
    assert tampered.body == bytes([ord("o") ^ 0xFF]) + b"rig"  # the first byte flipped
    with pytest.raises(TypeError):  # no other edit can be asked for
        store.tamper("C-1", 0, 0, lambda body: body)


def test_store_tamper_refuses_a_negative_index(scenario_dir):
    store = copy.deepcopy(_finished_tamper_world().stores["B"])
    before = store.transactions("C-1", 2)
    with pytest.raises(IndexError):
        store.tamper("C-1", 2, -1)
    assert store.transactions("C-1", 2) == before

    scenario = load_scenario(scenario_dir / "tamper_demo.yaml")
    fault = FaultSpec(tick=45, kind=FAULT_TAMPER, chain="B", case="C-1", stage=2, tx_index=-1)
    with pytest.raises(ScenarioError, match="B/C-1/2/-1"):
        run_scenario(replace(scenario, faults=(fault,)))


def _widen_reference_leaf(bundle):
    ref = bundle.bridge_refs["A"]
    leaves = list(ref.stage_leaves)
    leaves[2] += b"\x00"
    bundle.bridge_refs["A"] = replace(ref, stage_leaves=leaves)


def _truncate_reference_leaves(bundle):
    # the dropped stage is the tampered one: zip would have skipped it
    txs = bundle.sections["B"].stage_transactions[4]
    txs[0] = replace(txs[0], body=b"forged")
    ref = bundle.bridge_refs["B"]
    bundle.bridge_refs["B"] = replace(ref, stage_leaves=ref.stage_leaves[:4])


def _shorten_section(bundle):
    section = bundle.sections["A"]
    bundle.sections["A"] = replace(
        section, stage_transactions=section.stage_transactions[:3]
    )


def _narrow_reference_leaf(bundle):
    ref = bundle.bridge_refs["A"]
    bundle.bridge_refs["A"] = replace(ref, stage_leaves=[b"\x01"] + ref.stage_leaves[1:])


def _drop_section(bundle):
    del bundle.sections["B"]


MALFORMS = [
    _widen_reference_leaf,
    _truncate_reference_leaves,
    _shorten_section,
    _narrow_reference_leaf,
    _drop_section,
]


@pytest.mark.parametrize("malform", MALFORMS, ids=lambda f: f.__name__.lstrip("_"))
def test_malformed_bundle_fails_closed(scenario_dir, malform):
    """Each of these read as intact or leaked a raw ValueError before."""
    world = _tamper_world(scenario_dir)
    case = world.registry.cases["C-1"]
    bundle = extract_provenance(
        world.registry, "C-1", sorted(case.query_nodes)[0], world.stores
    )
    malform(bundle)
    with pytest.raises(MalformedBundle):
        verify_and_localize(bundle)


@cache
def _finished_tamper_world():
    """One finished tamper_demo run, shared read-only by the tests below."""
    return run_scenario(load_scenario(SCENARIOS / "tamper_demo.yaml"))


def _bundle(stores=None):
    world = _finished_tamper_world()
    requester = min(world.registry.cases["C-1"].query_nodes)
    return extract_provenance(world.registry, "C-1", requester, stores or world.stores)


def _stored_positions() -> list[tuple[str, int, int]]:
    world = _finished_tamper_world()
    case = world.registry.cases["C-1"]
    return [
        (chain_id, stage, index)
        for chain_id in case.participants
        for stage in range(case.stage_count)
        for index in range(len(world.stores[chain_id].transactions("C-1", stage)))
    ]


@settings(max_examples=60, deadline=None)
@given(st.sets(st.sampled_from(_stored_positions()), max_size=10))
def test_localization_reports_exactly_the_tampered_stages_of_each_chain(positions):
    stores = copy.deepcopy(_finished_tamper_world().stores)
    for chain_id, stage, index in positions:
        stores[chain_id].tamper("C-1", stage, index)
    report = verify_and_localize(_bundle(stores))
    assert report.verdicts == {
        chain_id: tuple(sorted({s for c, s, _i in positions if c == chain_id}))
        for chain_id in ("A", "B")
    }


def _oracle_leaves(stage_transactions) -> list[bytes]:
    return [
        nested_stage_leaf([sha(tx.canonical_bytes()) for tx in txs])
        for txs in stage_transactions
    ]


def _replace_stage_lists(bundle):
    section = bundle.sections["B"]
    stages = [list(txs) for txs in section.stage_transactions]
    stages[2][1] = replace(stages[2][1], body=b"forged")
    bundle.sections["B"] = replace(section, stage_transactions=stages)
    return "B", 2


def _edit_in_place(bundle):
    txs = bundle.sections["A"].stage_transactions[4]
    txs[0] = replace(txs[0], body=b"forged")
    return "A", 4


SECTION_EDITS = [_replace_stage_lists, _edit_in_place]


@pytest.mark.parametrize("edit", SECTION_EDITS, ids=lambda f: f.__name__.lstrip("_"))
def test_section_leaves_and_root_follow_its_records(edit):
    bundle = _bundle()
    before = bundle_to_record(bundle)["chains"]
    chain_id, stage = edit(bundle)
    section = bundle.sections[chain_id]
    after = bundle_to_record(bundle)["chains"][chain_id]
    leaves = _oracle_leaves(section.stage_transactions)
    assert after["leaves"] == [leaf.hex() for leaf in leaves]
    assert after["root"] == section.root.hex() == recursive_merkle_root(leaves).hex()
    assert [
        s for s, (old, new) in enumerate(zip(before[chain_id]["leaves"], after["leaves"]))
        if old != new
    ] == [stage]
    assert verify_and_localize(bundle).verdicts[chain_id] == (stage,)


@pytest.mark.parametrize("malform", MALFORMS, ids=lambda f: f.__name__.lstrip("_"))
@pytest.mark.parametrize("edit", SECTION_EDITS, ids=lambda f: f.__name__.lstrip("_"))
def test_an_edited_bundle_still_fails_closed_when_malformed(edit, malform):
    bundle = _bundle()
    edit(bundle)
    malform(bundle)
    with pytest.raises(MalformedBundle):
        verify_and_localize(bundle)


def test_reference_root_is_derived_from_its_leaves():
    bundle = _bundle()
    ref = bundle.bridge_refs["B"]
    leaves = [sha(leaf) for leaf in ref.stage_leaves]
    bundle.bridge_refs["B"] = ref = replace(ref, stage_leaves=leaves)
    assert ref.root == recursive_merkle_root(leaves)
    assert bundle_to_record(bundle)["bridge_reference"]["B"]["root"] == ref.root.hex()


def _reference_positions() -> list[tuple[str, int]]:
    case = _finished_tamper_world().registry.cases["C-1"]
    return [(c, s) for c in case.participants for s in range(case.stage_count)]


@settings(max_examples=60, deadline=None)
@given(
    forged=st.sets(st.sampled_from(_reference_positions())),
    records=st.sets(st.sampled_from(_stored_positions()), max_size=6),
    digest=st.binary(min_size=DIGEST_SIZE, max_size=DIGEST_SIZE),
)
def test_forged_reference_leaves_are_localized(forged, records, digest):
    stores = copy.deepcopy(_finished_tamper_world().stores)
    for chain_id, stage, index in records:
        stores[chain_id].tamper("C-1", stage, index)
    bundle = _bundle(stores)
    for chain_id, stage in forged:
        leaves = bundle.bridge_refs[chain_id].stage_leaves
        # another digest of the right width: `digest`, unless it is the real leaf
        leaves[stage] = digest if digest != leaves[stage] else sha(digest)
    tampered = forged | {(c, s) for c, s, _i in records}
    assert verify_and_localize(bundle).verdicts == {
        chain_id: tuple(sorted(s for c, s in tampered if c == chain_id))
        for chain_id in ("A", "B")
    }


def test_an_intact_audit_hashes_each_stage_once_and_builds_no_root(monkeypatch):
    _finished_tamper_world()  # run the scenario before anything is counted
    calls = {"hash_bytes": 0, "merkle_root": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    wrapped = {name: counting(name, getattr(crypto, name)) for name in calls}
    for module in (crypto, chain, provenance):
        for name, wrapper in wrapped.items():
            monkeypatch.setattr(module, name, wrapper)
    report = verify_and_localize(_bundle())
    assert not report.tampered
    # per chain: five stage leaves, two hashes each; the record digests are memoized
    assert calls == {"hash_bytes": 10 * len(report.verdicts), "merkle_root": 0}
