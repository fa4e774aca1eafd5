import contextlib
import copy
import csv
import functools
import io
import json
import operator
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SCENARIOS
from forensicross.cli import EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main
from forensicross.errors import ScenarioError
from forensicross.scenario import load_scenario, scenario_from_dict

LIFECYCLE = "lifecycle_full.yaml"
TAMPER = "tamper_demo.yaml"


def run_cli(*argv) -> int:
    return main(list(argv))


def test_run_writes_three_artifacts(tmp_path, scenario_dir, capsys):
    code = run_cli(
        "run", "--scenario", str(scenario_dir / "bridge_small.yaml"),
        "--out", str(tmp_path),
    )
    assert code == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["events.jsonl", "metrics.csv", "registry.json"]
    assert "routed transactions" in capsys.readouterr().out


def test_run_rejects_invalid_topology_citing_rule(tmp_path, scenario_dir, capsys):
    code = run_cli(
        "run", "--scenario", str(scenario_dir / "invalid_topology.yaml"),
        "--out", str(tmp_path),
    )
    assert code == 2
    assert "eq1" in capsys.readouterr().err


def test_run_missing_file_is_usage_error(tmp_path, capsys):
    code = run_cli("run", "--scenario", str(tmp_path / "nope.yaml"), "--out", str(tmp_path))
    assert code == 1
    assert "not found" in capsys.readouterr().err


def test_run_directory_as_scenario_is_usage_error(tmp_path, capsys):
    code = run_cli("run", "--scenario", str(tmp_path), "--out", str(tmp_path / "out"))
    assert code == EXIT_USAGE
    assert "cannot read scenario file" in capsys.readouterr().err


def test_run_non_utf8_scenario_is_validation_error(tmp_path, scenario_dir, capsys):
    text = (scenario_dir / "bridge_small.yaml").read_bytes()
    bad = tmp_path / "not_utf8.yaml"
    bad.write_bytes(text.replace(b"name: bridge-small", b"name: bridge-\xff\xfesmall"))
    with pytest.raises(ScenarioError, match="not UTF-8"):
        load_scenario(bad)
    code = run_cli("run", "--scenario", str(bad), "--out", str(tmp_path / "out"))
    assert code == EXIT_VALIDATION
    assert "not UTF-8" in capsys.readouterr().err


def test_run_parse_error_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("design: bridge\ntopology: [unclosed\n")
    code = run_cli("run", "--scenario", str(bad), "--out", str(tmp_path))
    assert code == 2
    assert "line" in capsys.readouterr().err


def test_an_access_row_with_an_unknown_op_is_a_validation_error(tmp_path, scenario_dir, capsys):
    data = yaml.safe_load((scenario_dir / "bridge_small.yaml").read_text(encoding="utf-8"))
    data["workload"].append(
        {"tick": 30, "action": "access", "chain": "A", "user": "alice", "case": "C-7",
         "op": "delete"}
    )
    row = len(data["workload"]) - 1
    with pytest.raises(ScenarioError, match=rf"workload\[{row}\]: op 'delete'"):
        scenario_from_dict(data, name="bad_op")
    bad = tmp_path / "bad_op.yaml"
    bad.write_text(yaml.safe_dump(data), encoding="utf-8")
    code = run_cli("run", "--scenario", str(bad), "--out", str(tmp_path / "out"))
    assert code == EXIT_VALIDATION
    assert "op 'delete'" in capsys.readouterr().err


TAMPER_FAULT = {"tick": 45, "kind": "tamper-offchain", "chain": "B", "case": "C-1",
                "stage": 2, "tx_index": 1}
VOTE = {"case": "C-1", "stage": 2, "round": 1, "chain": "B", "vote": "approve"}

# (edit of tamper_demo, the field the error must name); each of these used
# to load and then fail inside World.run, or run silently
BELOW_MINIMUM = {
    "stage_count": (lambda d: d.update(stage_count=0), "stage_count"),
    "link_latency": (lambda d: d.update(link_latency=0), "link_latency"),
    "pending_timeout": (lambda d: d.update(pending_timeout=0), "pending_timeout"),
    "workload_tick": (lambda d: d["workload"][0].update(tick=-1), "workload[0].tick"),
    "fault_tick": (
        lambda d: d.update(faults=[{**TAMPER_FAULT, "tick": -1}]), "faults[0].tick"
    ),
    "tx_index": (
        lambda d: d.update(faults=[{**TAMPER_FAULT, "tx_index": -1}]), "faults[0].tx_index"
    ),
    # workload[9] is the first propose-stage row
    "workload_stage": (lambda d: d["workload"][9].update(stage=-1), "workload[9].stage"),
    "vote_stage": (lambda d: d.update(votes=[{**VOTE, "stage": -1}]), "votes[0].stage"),
    "vote_round": (lambda d: d.update(votes=[{**VOTE, "round": -1}]), "votes[0].round"),
    "fault_stage": (
        lambda d: d.update(faults=[{**TAMPER_FAULT, "stage": -1}]), "faults[0].stage"
    ),
    "max_ticks": (lambda d: d.update(max_ticks=-5), "max_ticks"),
    # these four used to load and then raise ValueError while the world was
    # built: from TopologyParams, or from encoding the policy
    "nodes_per_chain": (
        lambda d: d["topology"].update(nodes_per_chain=0), "topology.nodes_per_chain"
    ),
    "mutual_per_chain": (
        lambda d: d["topology"].update(mutual_per_chain=0), "topology.mutual_per_chain"
    ),
    "bridge_mutual": (lambda d: d["topology"].update(bridge_mutual=-1), "topology.bridge_mutual"),
    "grant_stage": (
        lambda d: d["policy"]["grants"][0].update(stages=[-1]), "policy.grants[0].stages"
    ),
}


# (edit of tamper_demo, the start of the error message); each used to raise
# ValueError or TypeError out of a bare int(...), or, from "stage_float" on,
# to run on a coerced value: stage 1, case "['C-1']", reason "None", block time 1
WRONG_TYPE = {
    "tick": (lambda d: d["workload"][0].update(tick="abc"), "workload[0].tick must be an integer"),
    "seed": (lambda d: d.update(seed="x"), "scenario.seed must be an integer"),
    "chains_null": (
        lambda d: d["topology"].update(chains=None), "topology.chains must be an integer"
    ),
    "chains_str": (
        lambda d: d["topology"].update(chains="three"), "topology.chains must be an integer"
    ),
    "bridge_nodes": (
        lambda d: d["topology"].update(bridge_nodes="x"), "topology.bridge_nodes must be an integer"
    ),
    "grant_stages": (
        lambda d: d["policy"]["grants"][0].update(stages=["x"]),
        "policy.grants[0].stages must be an integer",
    ),
    "block_time_entry": (
        lambda d: d.update(block_time={"A": "x"}), "scenario.block_time must be an integer"
    ),
    "fault_stage": (
        lambda d: d.update(faults=[{**TAMPER_FAULT, "stage": "x"}]),
        "faults[0].stage must be an integer",
    ),
    "stage_float": (
        lambda d: d["workload"][9].update(stage=1.7), "workload[9].stage must be an integer"
    ),
    "stage_bool": (
        lambda d: d["workload"][9].update(stage=True), "workload[9].stage must be an integer"
    ),
    "case_list": (lambda d: d["workload"][0].update(case=["C-1"]), "workload[0].case must be a string"),
    "vote_reason": (
        lambda d: d.update(votes=[{**VOTE, "reason": None}]), "votes[0].reason must be a string"
    ),
    "block_time_bool": (lambda d: d.update(block_time=True), "scenario.block_time must be an integer"),
}


def run_edited_tamper_demo(tmp_path, scenario_dir, edit) -> int:
    """`forensicross run` on tamper_demo after `edit` of its loaded data."""
    data = yaml.safe_load((scenario_dir / TAMPER).read_text(encoding="utf-8"))
    edit(data)
    bad = tmp_path / "edited.yaml"
    bad.write_text(yaml.safe_dump(data), encoding="utf-8")
    return run_cli("run", "--scenario", str(bad), "--out", str(tmp_path / "out"))


def test_an_even_mesh_mutual_set_is_a_validation_error(tmp_path, scenario_dir, capsys):
    data = yaml.safe_load((scenario_dir / "mesh_small.yaml").read_text(encoding="utf-8"))
    data["topology"]["mutual_per_chain"] = 4
    edited = tmp_path / "even.yaml"
    edited.write_text(yaml.safe_dump(data), encoding="utf-8")
    assert run_cli("run", "--scenario", str(edited), "--out", str(tmp_path / "out")) == EXIT_VALIDATION
    assert "odd: mutual set size 4 must be odd" in capsys.readouterr().err


@pytest.mark.parametrize("row", sorted(BELOW_MINIMUM))
def test_a_value_below_its_minimum_is_a_validation_error(tmp_path, scenario_dir, capsys, row):
    edit, field_name = BELOW_MINIMUM[row]
    assert run_edited_tamper_demo(tmp_path, scenario_dir, edit) == EXIT_VALIDATION
    assert f"{field_name} must be >=" in capsys.readouterr().err


# (edit of tamper_demo, the entry the error must name); each used to raise
# TypeError, or report a string workload entry as "unknown keys ['x']"
NOT_A_MAPPING = {
    "users": (lambda d: d["users"].append(5), "users[3]"),
    "workload": (lambda d: d["workload"].append("x"), "workload[39]"),
    "votes": (lambda d: d.update(votes=[["C-1", 1]]), "votes[0]"),
    "faults": (lambda d: d.update(faults=[3]), "faults[0]"),
    "topology": (lambda d: d.update(topology=5), "topology"),
}


@pytest.mark.parametrize("section", sorted(NOT_A_MAPPING))
def test_an_entry_that_is_not_a_mapping_is_a_validation_error(
    tmp_path, scenario_dir, capsys, section
):
    edit, context = NOT_A_MAPPING[section]
    assert run_edited_tamper_demo(tmp_path, scenario_dir, edit) == EXIT_VALIDATION
    assert f"{context} must be a mapping" in capsys.readouterr().err


# (edit of tamper_demo, the field the error must name); each used to raise
# TypeError, or, for a string, iterate it letter by letter
NOT_A_LIST = {
    "users": (lambda d: d.update(users=5), "users"),
    "workload": (lambda d: d.update(workload={"tick": 1}), "workload"),
    "votes": (lambda d: d.update(votes=VOTE), "votes"),
    "faults": (lambda d: d.update(faults=TAMPER_FAULT), "faults"),
    # workload[0] is the create-case row, workload[2] the assign-query-nodes row
    "destinations": (lambda d: d["workload"][0].update(destinations=5), "workload[0].destinations"),
    "nodes": (lambda d: d["workload"][2].update(nodes="queryb"), "workload[2].nodes"),
    "stages": (lambda d: d["policy"]["grants"][0].update(stages=3), "policy.grants[0].stages"),
    "actions": (lambda d: d["policy"]["grants"][0].update(actions="read"), "policy.grants[0].actions"),
    "roles": (lambda d: d["policy"].update(roles="investigator"), "policy.roles"),
    "grants": (lambda d: d["policy"].update(grants={"role": "investigator"}), "policy.grants"),
}


@pytest.mark.parametrize("row", sorted(WRONG_TYPE))
def test_a_value_of_the_wrong_type_is_a_validation_error(tmp_path, scenario_dir, capsys, row):
    edit, message = WRONG_TYPE[row]
    assert run_edited_tamper_demo(tmp_path, scenario_dir, edit) == EXIT_VALIDATION
    assert message in capsys.readouterr().err


def test_a_grant_for_an_undeclared_role_is_a_validation_error(tmp_path, scenario_dir, capsys):
    # used to raise MalformedPolicy out of load_scenario
    def edit(data):
        data["policy"]["grants"][0].update(role="ghost")

    assert run_edited_tamper_demo(tmp_path, scenario_dir, edit) == EXIT_VALIDATION
    assert "policy.grants[0].role 'ghost' is not in policy.roles" in capsys.readouterr().err


# (scenario, destinations of its first row, a create-case from A); the mesh
# rows used to raise KeyError out of World.run, the bridge rows to leave
# stage 1 waiting for a vote no chain could cast
BAD_DESTINATIONS = {
    "mesh_self": ("mesh_small.yaml", ["A", "C"]),
    "mesh_repeat": ("mesh_small.yaml", ["B", "B"]),
    "bridge_self": ("bridge_small.yaml", ["A", "C"]),
    "bridge_repeat": ("bridge_small.yaml", ["B", "B"]),
}


@pytest.mark.parametrize("row", sorted(BAD_DESTINATIONS))
def test_destinations_that_are_not_other_chains_each_once_are_a_validation_error(
    tmp_path, scenario_dir, capsys, row
):
    name, destinations = BAD_DESTINATIONS[row]
    data = yaml.safe_load((scenario_dir / name).read_text(encoding="utf-8"))
    data["workload"][0].update(destinations=destinations)
    bad = tmp_path / name
    bad.write_text(yaml.safe_dump(data), encoding="utf-8")
    code = run_cli("run", "--scenario", str(bad), "--out", str(tmp_path / "out"))
    assert code == EXIT_VALIDATION
    assert "workload[0].destinations" in capsys.readouterr().err


@pytest.mark.parametrize("field_name", sorted(NOT_A_LIST))
def test_a_list_field_that_is_not_a_list_is_a_validation_error(
    tmp_path, scenario_dir, capsys, field_name
):
    edit, context = NOT_A_LIST[field_name]
    assert run_edited_tamper_demo(tmp_path, scenario_dir, edit) == EXIT_VALIDATION
    assert f"{context} must be a list" in capsys.readouterr().err


def _paths(node, path=()):
    """(path, value) for every key and list item under `node`."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield path + (key,), value
        yield from _paths(value, path + (key,))


# one value of each YAML type, for a change of a value's type
YAML_VALUES = (None, True, 1.5, 7, "x", [], {})


@st.composite
def mutated(draw, data):
    """`data` after one change at a drawn key or list item: dropped, given a
    value of another type, negated or zeroed if an int, or wrapped in a
    list."""
    data = copy.deepcopy(data)
    path, value = draw(st.sampled_from(list(_paths(data))))
    parent = functools.reduce(operator.getitem, path[:-1], data)
    changes = ["drop", "retype", "wrap"] + (["negate", "zero"] if type(value) is int else [])
    change = draw(st.sampled_from(changes))
    if change == "drop":
        del parent[path[-1]]
    elif change == "retype":
        others = [v for v in YAML_VALUES if type(v) is not type(value)]
        parent[path[-1]] = draw(st.sampled_from(others))
    elif change == "wrap":
        parent[path[-1]] = [value]
    else:
        parent[path[-1]] = -value if change == "negate" else 0
    return data


BUNDLED_DATA = {
    path.stem: yaml.safe_load(path.read_text(encoding="utf-8"))
    for path in sorted(SCENARIOS.glob("*.yaml"))
}


@pytest.mark.parametrize("name", sorted(BUNDLED_DATA))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_a_mutated_bundled_scenario_runs_or_is_a_validation_error(name, data):
    edited = data.draw(mutated(BUNDLED_DATA[name]))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{name}.yaml"
        path.write_text(yaml.safe_dump(edited), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", "--scenario", str(path), "--out", str(Path(tmp) / "out")])
    assert code in (EXIT_OK, EXIT_VALIDATION)
    assert "Traceback" not in err.getvalue()


def test_topology_table_rows_and_values(tmp_path, capsys):
    code = run_cli("topology", "--k-min", "2", "--k-max", "10", "--out", str(tmp_path))
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 10  # header + 9 rows
    with open(tmp_path / "topology.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    k3 = next(r for r in rows if r["k"] == "3")
    assert k3["mesh_mutual"] == k3["bridge_mutual"] == "9"


def test_topology_single_row(tmp_path, capsys):
    code = run_cli("topology", "--k-min", "3", "--k-max", "3", "--out", str(tmp_path))
    assert code == 0
    with open(tmp_path / "topology.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["m_min"] == "19"


def test_topology_bad_range(tmp_path, capsys):
    code = run_cli("topology", "--k-min", "5", "--k-max", "4", "--out", str(tmp_path))
    assert code == 1
    assert "bad k range" in capsys.readouterr().err


def test_provenance_demo_clean_run(tmp_path, scenario_dir, capsys):
    code = run_cli(
        "provenance-demo", "--scenario", str(scenario_dir / TAMPER),
        "--out", str(tmp_path),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "all chains intact" in out
    report = json.loads((tmp_path / "tamper_report.json").read_text())
    assert all(v["intact"] for v in report["verdicts"].values())


def test_provenance_demo_single_tamper(tmp_path, scenario_dir, capsys):
    code = run_cli(
        "provenance-demo", "--scenario", str(scenario_dir / TAMPER),
        "--out", str(tmp_path), "--tamper", "B:2:1",
    )
    assert code == 3
    out = capsys.readouterr().out
    report = json.loads((tmp_path / "tamper_report.json").read_text())
    assert report["verdicts"]["B"]["tampered_stages"] == [2]
    assert report["verdicts"]["A"]["intact"]
    b_row = next(line for line in out.splitlines() if line.startswith("B"))
    assert b_row.count("X") == 1


def test_provenance_demo_two_tampers(tmp_path, scenario_dir):
    code = run_cli(
        "provenance-demo", "--scenario", str(scenario_dir / TAMPER),
        "--out", str(tmp_path), "--tamper", "A:0:0", "--tamper", "A:3:2",
    )
    assert code == 3
    report = json.loads((tmp_path / "tamper_report.json").read_text())
    assert report["verdicts"]["A"]["tampered_stages"] == [0, 3]
    assert report["verdicts"]["B"]["intact"]


def test_provenance_demo_negative_tamper_index_is_a_validation_error(
    tmp_path, scenario_dir, capsys
):
    code = run_cli(
        "provenance-demo", "--scenario", str(scenario_dir / TAMPER),
        "--out", str(tmp_path), "--tamper", "B:2:-1",
    )
    assert code == EXIT_VALIDATION
    assert "no stored transaction at B:2:-1" in capsys.readouterr().err
    assert not (tmp_path / "tamper_report.json").exists()


def test_provenance_demo_bad_tamper_spec(tmp_path, scenario_dir, capsys):
    code = run_cli(
        "provenance-demo", "--scenario", str(scenario_dir / TAMPER),
        "--out", str(tmp_path), "--tamper", "B-2-1",
    )
    assert code == 1


def test_version(capsys):
    assert run_cli("version") == 0
    assert "forensicross" in capsys.readouterr().out


def test_unknown_flag_is_usage_error(capsys):
    assert run_cli("run", "--scenario", "x.yaml", "--frobnicate") == 1


def test_env_var_overrides_out(tmp_path, scenario_dir, monkeypatch):
    env_dir = tmp_path / "from-env"
    flag_dir = tmp_path / "from-flag"
    monkeypatch.setenv("FORENSICROSS_OUT", str(env_dir))
    code = run_cli(
        "run", "--scenario", str(scenario_dir / "bridge_small.yaml"),
        "--out", str(flag_dir),
    )
    assert code == 0
    assert env_dir.exists() and not flag_dir.exists()


def test_cli_outputs_are_byte_stable(tmp_path, scenario_dir):
    dirs = [tmp_path / "one", tmp_path / "two"]
    for d in dirs:
        assert run_cli(
            "run", "--scenario", str(scenario_dir / LIFECYCLE), "--out", str(d)
        ) == 0
    for name in ("events.jsonl", "metrics.csv", "registry.json"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_seed_override_changes_artifacts(tmp_path, scenario_dir):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli("run", "--scenario", str(scenario_dir / "bridge_small.yaml"),
            "--out", str(a), "--seed", "123")
    run_cli("run", "--scenario", str(scenario_dir / "bridge_small.yaml"),
            "--out", str(b), "--seed", "124")
    assert (a / "events.jsonl").read_bytes() != (b / "events.jsonl").read_bytes()
