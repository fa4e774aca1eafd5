"""Byte-identity of the bundled scenarios' artifacts across code changes.

The hashes were recorded before the Ed25519 work-avoidance changes in
`crypto.py` and `comm.py`. A refactor or optimisation that keeps these
bytes the same keeps the simulator's observable behaviour; a change that
moves them must say why and re-pin them.
"""
import hashlib

import pytest

from forensicross.scenario import load_scenario
from forensicross.sim import run_scenario, write_event_log, write_metrics_csv

# scenario: (sha256 of events.jsonl, sha256 of metrics.csv)
GOLDEN = {
    "lifecycle_full": (
        "13df5dbc5e5f74b0f8afb3c082c08bc581df94b5c4ded036637abe99115807ec",
        "1d5657025518349987832a6e723c14276da1954c46507dc7b7083d1bf99d3e02",
    ),
    "tamper_demo": (
        "7d7126265ad07bc61f4f7586a0a5d7eed983edd816a86deaeb12484f354de7aa",
        "cdd9dc442a418c3b3c702b22b6c5968f61604f437ba51e4b363379af7893f1c7",
    ),
    "bridge_small": (
        "c9478b1fa8d61deacf65db60dde98ad3df7c4adc77ca56de2153d46682dea118",
        "0254f3b630c12440304f37d6122a3087df4b13c0cc6e2e6c7b09aa4c19ee99ef",
    ),
    "mesh_small": (
        "91a356c22320979add7574714117de2920d2942260eb95bbc355488c14e6dfda",
        "1886bf4894e702b2c4d2f2b48dcca0e5683095cdedcb13aceb81a4fc8d554cbd",
    ),
    "faulty_nodes": (
        "cba730095945145372c1e541f3bac3de1fd668716e94fc63e389a78988a3f427",
        "ca3a7f3cfc0aa96720f41b7e81b37bc0b724bcb1135417c65764e00d0a79c0ba",
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_scenario_artifacts_match_golden_hashes(scenario_dir, tmp_path, name):
    world = run_scenario(load_scenario(scenario_dir / f"{name}.yaml"))
    write_event_log(world, tmp_path / "events.jsonl")
    write_metrics_csv(world, tmp_path / "metrics.csv")
    events_hash, metrics_hash = GOLDEN[name]
    assert _sha256(tmp_path / "events.jsonl") == events_hash
    assert _sha256(tmp_path / "metrics.csv") == metrics_hash
