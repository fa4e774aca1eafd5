"""Byte-identity of the simulator's artifacts across code changes.

The events and metrics hashes of the bundled scenarios were recorded before
the Ed25519 work-avoidance changes in `crypto.py` and `comm.py`. The
registry hashes and the error-path scenario were recorded before the
payload handlers in `sim.py` became tables. A refactor or optimisation that
keeps these bytes the same keeps the simulator's observable behaviour; a
change that moves them must say why and re-pin them.

The `provenance-demo` bundle and tamper-report hashes were recorded before
a section's leaves and root became derived from its records.
"""
import hashlib

import pytest
import yaml

from forensicross.cli import EXIT_OK, EXIT_TAMPERED, main
from forensicross.scenario import load_scenario, scenario_from_dict
from forensicross.sim import (
    run_scenario,
    write_event_log,
    write_metrics_csv,
    write_registry_snapshot,
)

# scenario: (sha256 of events.jsonl, sha256 of metrics.csv, sha256 of registry.json)
GOLDEN = {
    "lifecycle_full": (
        "13df5dbc5e5f74b0f8afb3c082c08bc581df94b5c4ded036637abe99115807ec",
        "1d5657025518349987832a6e723c14276da1954c46507dc7b7083d1bf99d3e02",
        "e2cfe7480fae2afd005c612a2020a891278a4c1344afbf5ec34bde8d179d5a7a",
    ),
    "tamper_demo": (
        "7d7126265ad07bc61f4f7586a0a5d7eed983edd816a86deaeb12484f354de7aa",
        "cdd9dc442a418c3b3c702b22b6c5968f61604f437ba51e4b363379af7893f1c7",
        "3864f8054ea889d9e09db356d1b015a67833d1ecaf852a134f34344f0c12a21d",
    ),
    "bridge_small": (
        "c9478b1fa8d61deacf65db60dde98ad3df7c4adc77ca56de2153d46682dea118",
        "0254f3b630c12440304f37d6122a3087df4b13c0cc6e2e6c7b09aa4c19ee99ef",
        "5fb73632be67ac06cd0c0a7d62e9366094c508ca089ac010c47f44fc6744c329",
    ),
    "mesh_small": (
        "91a356c22320979add7574714117de2920d2942260eb95bbc355488c14e6dfda",
        "1886bf4894e702b2c4d2f2b48dcca0e5683095cdedcb13aceb81a4fc8d554cbd",
        "a364928f413e83f36750d86f043bfcdfffecefb34323d3ce80b460013f0e5a61",
    ),
    "faulty_nodes": (
        "cba730095945145372c1e541f3bac3de1fd668716e94fc63e389a78988a3f427",
        "ca3a7f3cfc0aa96720f41b7e81b37bc0b724bcb1135417c65764e00d0a79c0ba",
        "53df401e2ae92d164524bf3fd19c57f45562334f7a32f44312b71f44b12a1618",
    ),
}

# No bundled scenario reaches the bridge's registry_error path, a
# registry-rejected report or provenance_denied; these rows on top of
# bridge_small do, one per branch.
ERROR_ROWS = [
    # DuplicateCase at the bridge
    {"tick": 2, "action": "create-case", "chain": "A", "user": "alice",
     "case": "C-7", "destinations": ["B"]},
    # ProposalAlreadyOpen: stage 1 is still being voted on
    {"tick": 12, "action": "propose-stage", "chain": "A", "user": "alice",
     "case": "C-7", "stage": 3},
    # NotQueryNode: bob was never assigned
    {"tick": 19, "action": "request-provenance", "chain": "B", "user": "bob",
     "case": "C-7"},
    # action_error: the case is unknown on A
    {"tick": 20, "action": "propose-stage", "chain": "A", "user": "alice",
     "case": "C-404", "stage": 1},
]
ERROR_GOLDEN = (
    "a81c2a96675006501fba8d4275552787b02a2d2ee91f224d35e9627c046f1961",
    "9ef12420041261cf6cd30775ab50d81ff4d8fa04b5f7db588359d557f37f235b",
    "55e1ee2ea4ad875df534b805ca88b59717a3b590a5c2534aaa216c0a17ded85b",
)


def _artifact_hashes(world, tmp_path) -> tuple[str, str, str]:
    paths = [tmp_path / name for name in ("events.jsonl", "metrics.csv", "registry.json")]
    write_event_log(world, paths[0])
    write_metrics_csv(world, paths[1])
    write_registry_snapshot(world, paths[2])
    return tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in paths)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_scenario_artifacts_match_golden_hashes(scenario_dir, tmp_path, name):
    world = run_scenario(load_scenario(scenario_dir / f"{name}.yaml"))
    assert _artifact_hashes(world, tmp_path) == GOLDEN[name]


def test_error_path_artifacts_match_golden_hashes(scenario_dir, tmp_path):
    data = yaml.safe_load((scenario_dir / "bridge_small.yaml").read_text(encoding="utf-8"))
    data["workload"] = data["workload"] + ERROR_ROWS
    world = run_scenario(scenario_from_dict(data, name="bridge_small_errors"))

    errors = [
        (e["event"], e["error"]) for e in world.events
        if e["event"] in ("registry_error", "provenance_denied", "action_error")
    ]
    assert errors == [
        ("registry_error", "DuplicateCase"),
        ("registry_error", "ProposalAlreadyOpen"),
        ("provenance_denied", "NotQueryNode"),
        ("action_error", "UnknownCase"),
    ]
    rejected = [r.kind for r in world.reports.values() if r.status == "registry-rejected"]
    assert rejected == ["CaseCreate", "StageProposal"]
    assert _artifact_hashes(world, tmp_path) == ERROR_GOLDEN


# No bundled scenario ends a report `validated-malicious`. With A.m1 also
# equivocating from tick 0, faulty_nodes' C-1 (and C-2, before A.m1 turns to
# dropping) is carried to the bridge by a colluding 2-of-3 majority of A's
# mutual nodes.
MALICIOUS_FAULT = {"tick": 0, "kind": "compromise-mutual-node", "node": "A.m1",
                   "rule": "equivocate"}
# (sha256 of events.jsonl, sha256 of metrics.csv)
MALICIOUS_GOLDEN = (
    "b8cd3a0d7ddadfa2ca67bb0cff1291fa9778958ae549dfd8fd8ee910dd50650f",
    "22259820a3ef8438830b9dfcf75e74c1bd9d7735f8ab06c654de361814b6acc3",
)


def test_malicious_outcome_artifacts_match_golden_hashes(scenario_dir, tmp_path):
    data = yaml.safe_load((scenario_dir / "faulty_nodes.yaml").read_text(encoding="utf-8"))
    data["faults"] = [MALICIOUS_FAULT] + data["faults"]
    world = run_scenario(scenario_from_dict(data, name="faulty_nodes_malicious"))

    statuses = [r.status for r in world.reports.values()]
    assert statuses == ["validated-malicious", "validated-malicious", "expired"]
    assert _artifact_hashes(world, tmp_path)[:2] == MALICIOUS_GOLDEN


# --tamper specs: (exit code, sha256 of bundle.json, sha256 of tamper_report.json)
DEMO_GOLDEN = {
    (): (
        EXIT_OK,
        "bf6a080eb19b51d83fc775058b6255913d18ea0b85e34f8298b436e8801ce9e0",
        "32722d6822673819dbb87919b88e306c5e52c413d88b3c560e3ce284c48bceb3",
    ),
    ("B:2:1",): (
        EXIT_TAMPERED,
        "3d310dc1df80db9d92c05e30e25cd0e4d4918a2175235070fe94595c856c123f",
        "bf9cecd06b18bd48c0f9ac88d411435582c32324ebb1636416e04156bb95dc10",
    ),
}


@pytest.mark.parametrize("tampers", sorted(DEMO_GOLDEN), ids=lambda t: "+".join(t) or "intact")
def test_provenance_demo_exports_match_golden_hashes(scenario_dir, tmp_path, tampers):
    argv = ["provenance-demo", "--scenario", str(scenario_dir / "tamper_demo.yaml"),
            "--out", str(tmp_path)]
    for spec in tampers:
        argv += ["--tamper", spec]
    code = main(argv)
    hashes = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("bundle.json", "tamper_report.json")
    )
    assert (code, *hashes) == DEMO_GOLDEN[tampers]
