import hashlib
from dataclasses import replace

import pytest

from forensicross.crypto import hash_bytes
from forensicross.errors import MalformedBundle, NotQueryNode, UnknownCase
from forensicross.provenance import (
    EMPTY_STAGE_LEAF,
    OffchainCaseStore,
    case_chain_root,
    extract_provenance,
    stage_leaf,
    verify_and_localize,
)
from forensicross.scenario import load_scenario
from forensicross.sim import run_scenario
from oracles import recursive_merkle_root, sha


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
    store.tamper("C-1", 0, 0)
    after = store.transactions("C-1", 0)[0].digest()
    assert before != after
    assert tx.body == b"orig"  # the original object is untouched



def _forge_root(bundle):
    ref = bundle.bridge_refs["A"]
    bundle.bridge_refs["A"] = replace(ref, root=sha(ref.root))


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


@pytest.mark.parametrize("malform", [
    _forge_root,
    _truncate_reference_leaves,
    _shorten_section,
    _narrow_reference_leaf,
    _drop_section,
], ids=lambda f: f.__name__.lstrip("_"))
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
