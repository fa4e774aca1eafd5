import pytest

from forensicross.topology import (
    Design,
    TopologyParams,
    bridge_mutual_nodes,
    bridge_requirements,
    communication_counts,
    comparison_table,
    crossover_k,
    mesh_mutual_nodes,
    validate_topology,
)
from oracles import complete_graph_edges, min_bridge_nodes_search


def test_closed_forms_for_k_1_to_10():
    for k in range(1, 11):
        assert mesh_mutual_nodes(k) == 3 * k * (k - 1) // 2
        assert bridge_requirements(k) == (6 * k + 1, 3 * k)


def test_mesh_count_equals_edge_enumeration():
    for k in range(1, 9):
        assert mesh_mutual_nodes(k) == complete_graph_edges(k) * 3
    assert mesh_mutual_nodes(6) == 45
    assert mesh_mutual_nodes(1) == 0
    assert mesh_mutual_nodes(3) == 9


def test_bridge_requirements_examples():
    assert bridge_requirements(3) == (19, 9)
    assert bridge_requirements(1) == (7, 3)
    assert bridge_requirements(10) == (61, 30)


def test_bridge_minimum_never_below_search_oracle():
    # the closed form is asserted, not derived; check it upper-bounds what the
    # sizing rules actually force for k disjoint odd sets of 3
    for k in range(1, 11):
        m_min, b_min = bridge_requirements(k)
        assert m_min >= min_bridge_nodes_search(k)
        assert b_min == 3 * k


def test_crossover_is_three():
    assert crossover_k() == 3
    assert bridge_mutual_nodes(2) > mesh_mutual_nodes(2)  # mesh cheaper at k=2
    assert bridge_mutual_nodes(3) == mesh_mutual_nodes(3) == 9
    assert bridge_mutual_nodes(4) < mesh_mutual_nodes(4)


def test_crossover_threshold_holds_beyond():
    for k in range(3, 20):
        assert bridge_mutual_nodes(k) <= mesh_mutual_nodes(k)


def test_zero_chains_is_an_error():
    with pytest.raises(ValueError):
        mesh_mutual_nodes(0)
    with pytest.raises(ValueError):
        bridge_requirements(0)


def test_validate_minimum_bridge_config_is_ok():
    params = TopologyParams(k=3, m=19, n=11, n_i=3, b_i=9)
    assert validate_topology(params, Design.BRIDGE) == []


def test_validate_flags_too_small_mutual_set():
    params = TopologyParams(k=3, m=19, n=11, n_i=2, b_i=6)
    rules = {v.rule for v in validate_topology(params, Design.BRIDGE)}
    assert "eq1" in rules and "eq2" in rules


def test_validate_flags_oversized_even_set():
    params = TopologyParams(k=3, m=19, n=11, n_i=6, b_i=18)
    rules = {v.rule for v in validate_topology(params, Design.BRIDGE)}
    assert "eq2" in rules and "odd" in rules


def test_validate_mesh_feasibility():
    ok = TopologyParams(k=3, m=19, n=11, n_i=3, b_i=9)
    assert validate_topology(ok, Design.MESH) == []
    cramped = TopologyParams(k=5, m=31, n=11, n_i=3, b_i=15)
    rules = {v.rule for v in validate_topology(cramped, Design.MESH)}
    assert "eq3" in rules  # 4 disjoint pair sets of 3 need 12 > 11 nodes


def test_validate_flags_an_even_mesh_pair_set():
    params = TopologyParams(k=3, m=19, n=11, n_i=4, b_i=12)
    assert [v.rule for v in validate_topology(params, Design.MESH)] == ["odd"]


def test_validate_rejects_inconsistent_bridge_total():
    params = TopologyParams(k=3, m=19, n=11, n_i=3, b_i=8)
    rules = {v.rule for v in validate_topology(params, Design.BRIDGE)}
    assert "eq3" in rules


def test_topology_params_require_positive_integers():
    with pytest.raises(ValueError):
        TopologyParams(k=0, m=1, n=1, n_i=1, b_i=1)
    with pytest.raises(ValueError):
        TopologyParams(k=1, m=1, n=-3, n_i=1, b_i=1)


def test_communication_counts_examples():
    assert communication_counts(2, "single") == (1, 2)
    assert communication_counts(4, "broadcast") == (3, 4)


def test_bridge_broadcast_is_always_one_extra_hop():
    for k in range(2, 11):
        mesh_hops, bridge_hops = communication_counts(k, "broadcast")
        assert bridge_hops - mesh_hops == 1


def test_communication_counts_rejects_k_below_two():
    with pytest.raises(ValueError):
        communication_counts(1, "single")


def test_comparison_table_monotone_for_k_at_least_two():
    rows = comparison_table(2, 10)
    assert len(rows) == 9
    for column in rows[0]:
        values = [row[column] for row in rows]
        assert values == sorted(values), column
        assert len(set(values)) == len(values), column


def test_comparison_table_k3_row():
    (row,) = comparison_table(3, 3)
    assert row["mesh_mutual"] == row["bridge_mutual"] == 9
    assert row["m_min"] == 19


def test_comparison_table_bad_range():
    with pytest.raises(ValueError):
        comparison_table(5, 4)
