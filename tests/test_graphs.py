"""Graph construction, raster grids, and components."""

from __future__ import annotations

from collections import defaultdict
from itertools import filterfalse, repeat

import pytest
from hypothesis import given, settings, strategies as st

from floodgraph import (
    BOTTOM,
    TOP,
    ConstructionError,
    Graph,
    PreconditionError,
    build_graph,
    connected_components,
    grid_graph,
    partial_graph,
)
from floodgraph.graphs import (
    NodeValues, ceiling_by_index, group_by_label, node_indices, values_by_index,
)

from strategies import edge_graphs, ground_of, rough_flood_instances, rough_node_flood_instances


# -- construction ------------------------------------------------------------


def test_build_graph_keeps_declaration_order(chain):
    graph = chain.graph
    assert graph.nodes == ("a", "b", "c", "d", "e")
    assert graph.edges == (("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"))
    assert graph.node_index("c") == 2
    assert "c" in graph and "z" not in graph
    assert repr(graph) == "<Graph: 5 nodes, 4 edges>"
    with pytest.raises(ConstructionError, match="unknown node: 'z'"):
        graph.node_index("z")


def test_neighbors_follow_edge_declaration_order(chain):
    assert chain.graph.neighbors("c") == (("b", 1), ("d", 2))
    assert chain.graph.neighbors("a") == (("b", 0),)


def test_direct_dataclass_instantiation_is_blocked():
    with pytest.raises(ConstructionError):
        Graph(nodes=("a",), edges=(), ground=None, edge_weights=None)


def test_duplicate_node_rejected():
    with pytest.raises(ConstructionError):
        build_graph(["a", "a"], [])


def test_unknown_edge_endpoint_rejected():
    with pytest.raises(ConstructionError):
        build_graph(["a", "b"], [("a", "z")])
    with pytest.raises(ConstructionError, match="edge 1 references unknown node 'z'"):
        build_graph(["a", "b"], [("a", "b"), ("z", "a")])


def test_self_loop_rejected():
    with pytest.raises(ConstructionError):
        build_graph(["a"], [("a", "a")])


def test_partial_ground_rejected():
    with pytest.raises(ConstructionError):
        build_graph(["a", "b"], [("a", "b")], ground={"a": 0})
    with pytest.raises(ConstructionError):
        build_graph(["a"], [], ground={"a": 0, "b": 1})


def test_edge_weight_count_must_match():
    with pytest.raises(ConstructionError):
        build_graph(["a", "b"], [("a", "b")], edge_weights=[1, 2])


def test_missing_annotation_accessors_raise(chain, tank):
    with pytest.raises(PreconditionError):
        chain.graph.require_edge_weights("op")
    with pytest.raises(PreconditionError):
        tank.graph.require_ground_values("op")
    assert chain.edge_graph.require_edge_weights("op") == (4, 4, 2, 2)
    assert chain.graph.require_ground_values("op") == chain.graph.ground_values


# -- grids -------------------------------------------------------------------


def test_grid_graph_row_major_ids_and_ground():
    graph = grid_graph([[0, 4, 1, 2, 0]])
    assert graph.nodes == ("0,0", "0,1", "0,2", "0,3", "0,4")
    assert list(graph.ground_values) == [0, 4, 1, 2, 0]
    assert graph.edges == tuple((f"0,{c}", f"0,{c + 1}") for c in range(4))


def test_grid_graph_connectivity_4():
    graph = grid_graph([[1, 2], [3, 4]], connectivity=4)
    assert graph.edges == (
        ("0,0", "0,1"),
        ("0,0", "1,0"),
        ("0,1", "1,1"),
        ("1,0", "1,1"),
    )


def test_grid_graph_connectivity_8_adds_diagonals_in_scan_order():
    graph = grid_graph([[1, 2], [3, 4]], connectivity=8)
    assert graph.edges == (
        ("0,0", "0,1"),
        ("0,0", "1,0"),
        ("0,0", "1,1"),
        ("0,1", "1,0"),
        ("0,1", "1,1"),
        ("1,0", "1,1"),
    )


def test_grid_graph_rejects_bad_input():
    with pytest.raises(ConstructionError):
        grid_graph([[1, 2]], connectivity=6)
    with pytest.raises(ConstructionError):
        grid_graph([])
    with pytest.raises(ConstructionError):
        grid_graph([[1, 2], [3]])


# -- components --------------------------------------------------------------


def components(graph, keep=None):
    """The components as name tuples, in order of first node (under every edge by default)."""
    keep = [True] * len(graph.edge_u) if keep is None else keep
    label, first = connected_components(graph, keep)
    return group_by_label(graph.nodes, label, len(first))


def test_connected_components_filters(chain):
    graph = chain.edge_graph
    weights = graph.edge_weights
    assert components(graph) == [("a", "b", "c", "d", "e")]
    assert components(graph, [False] * len(weights)) == [
        ("a",),
        ("b",),
        ("c",),
        ("d",),
        ("e",),
    ]
    assert components(graph, [weight <= 2 for weight in weights]) == [
        ("a",),
        ("b",),
        ("c", "d", "e"),
    ]


def test_partial_graph(chain):
    graph = chain.edge_graph
    empty = partial_graph(graph, [])
    assert empty.nodes == graph.nodes
    assert empty.edges == ()

    kept = partial_graph(graph, [2, 0])
    assert kept.edges == (("a", "b"), ("c", "d"))
    assert kept.edge_weights == (4, 2)
    # the message names the id the sorted ids first fail on, at either end
    for ids, unknown in (([99], 99), ([0, 99, 4, 3], 4), ([2, -2, 99, -1], -2)):
        with pytest.raises(ConstructionError, match=f"^unknown edge id: {unknown}$"):
            partial_graph(graph, ids)


def test_node_indices_resolve_names_in_order_and_name_the_first_unknown():
    """With no name index, one pass finds the names and builds none; with one, it is read."""
    graph = grid_graph([[1, 2, 3]])
    for index in (None, {"0,0": 0, "0,1": 1, "0,2": 2}):
        assert node_indices(graph, ["0,2", "0,0"]) == [2, 0]
        assert node_indices(graph, ()) == []
        with pytest.raises(ConstructionError, match="^unknown node: 'b'$"):
            node_indices(graph, ["0,1", "b", "a"])
        assert graph._index == index
        graph.node_index("0,0")  # builds the index for the second round


def test_values_by_index_takes_exactly_the_graph_nodes(chain):
    assert values_by_index(chain.graph, chain.tau, "tau") == [0, 4, 2, 2, 1]
    with pytest.raises(PreconditionError, match="^tau is missing node 'b'$"):
        values_by_index(chain.graph, {"a": 0}, "tau")
    with pytest.raises(PreconditionError, match="^tau defined on unknown node 'z'$"):
        values_by_index(chain.graph, {**chain.tau, "z": 1}, "tau")


def reference_check_total(graph, values, what):
    """The former check_total: one Python loop per scan."""
    for node in graph.nodes:
        if node not in values:
            raise PreconditionError(f"{what} is missing node {node!r}")
    if len(values) != len(graph.nodes):
        for node in values:
            if node not in graph:
                raise PreconditionError(f"{what} defined on unknown node {node!r}")


def reference_ceiling_by_index(graph, omega, what):
    """The former pair of calls: the values listed after check_total, then check_ceiling."""
    reference_check_total(graph, omega, what)
    ceiling = [omega[node] for node in graph.nodes]
    ground = graph.ground_values
    if ground is None:
        return ceiling
    for node, (level, floor) in enumerate(zip(ceiling, ground)):
        if level < floor:
            name = graph.nodes[node]
            raise PreconditionError(
                f"ceiling below ground at node {name!r}: omega={level} "
                f"is below the ground at node {name!r} (f={floor})"
            )
    return ceiling


def outcome(function, *args):
    """The result, or the class and message of the error raised."""
    try:
        return function(*args)
    except PreconditionError as exc:
        return type(exc), str(exc)


@settings(max_examples=300)
@given(
    st.one_of(rough_flood_instances(), rough_node_flood_instances()),
    st.sampled_from([None, "missing", "unknown", "below"]),
    st.randoms(use_true_random=False),
)
def test_ceiling_by_index_matches_the_former_checks(instance, fault, rng):
    graph, omega = instance
    if fault == "missing":
        del omega[rng.choice(graph.nodes)]
    elif fault == "unknown":
        items = list(omega.items())
        items.insert(rng.randint(0, len(items)), ("zz", rng.choice([BOTTOM, 0, TOP])))
        omega = dict(items)
    elif fault == "below" and graph.ground_values is not None:
        floors = dict(zip(graph.nodes, graph.ground_values))
        raised = [node for node in graph.nodes if floors[node] > BOTTOM]
        if raised:
            node = rng.choice(raised)
            omega[node] = rng.choice([v for v in (BOTTOM, *range(6)) if v < floors[node]])
    if rng.random() < 0.5:  # neither check may fill a missing node in
        omega = defaultdict(int, omega)
    size, what = len(omega), rng.choice(["omega", "ceiling"])
    expected = outcome(reference_ceiling_by_index, graph, omega, what)
    assert outcome(ceiling_by_index, graph, omega, what) == expected
    assert len(omega) == size


def reference_fill(graph, values, what):
    """The former read of a ceiling file: every node at top, then the file's values."""
    filled = dict.fromkeys(graph.nodes, TOP)
    filled.update(values)
    if len(filled) != len(graph.nodes):
        for node in values:
            if node not in graph:
                raise PreconditionError(f"{what} defined on unknown node {node!r}")
    return list(filled.values())


@settings(max_examples=300)
@given(
    rough_flood_instances(),
    st.sampled_from(["partial", "unknown", "other graph", "defaultdict"]),
    st.randoms(use_true_random=False),
)
def test_a_default_fills_in_the_nodes_a_mapping_leaves_out(instance, case, rng):
    graph, omega = instance
    items = [(node, level) for node, level in omega.items() if rng.random() < 0.5]
    rng.shuffle(items)  # the mapping's order is not the graph's
    if case == "unknown":  # the first in mapping order is reported
        for name in ("zz", "yy"):
            items.insert(rng.randint(0, len(items)), (name, rng.choice([BOTTOM, 0, TOP])))
    values = dict(items)
    if case == "other graph":  # a graph-file ceiling: its own graph, the same node set
        names = rng.sample(graph.nodes, len(graph.nodes))
        values = NodeValues(build_graph(names, []), [omega[node] for node in names])
    elif case == "defaultdict":  # a node left out is filled by the default, not by the mapping
        values = defaultdict(int, values)
    size = len(values)
    expected = outcome(reference_fill, graph, values, "ceiling")
    assert outcome(values_by_index, graph, values, "ceiling", TOP) == expected
    assert len(values) == size


def former_values_by_index(graph, values, what, default=None):
    """values_by_index before its dict path: every mapping is read by name."""
    if isinstance(values, NodeValues) and values.graph.nodes is graph.nodes:
        return list(values.levels)
    known = sum(map(values.__contains__, graph.nodes))
    if default is None and known != len(graph.nodes):
        for node in filterfalse(values.__contains__, graph.nodes):
            raise PreconditionError(f"{what} is missing node {node!r}")
    if known != len(values):
        for node in filterfalse(graph.__contains__, values):
            raise PreconditionError(f"{what} defined on unknown node {node!r}")
    return list(map(values.get, graph.nodes, repeat(default)))


@settings(max_examples=300)
@given(
    rough_flood_instances(),
    st.sampled_from(["ordered", "shuffled", "partial", "extra key"]),
    st.booleans(),
    st.sampled_from([None, TOP]),
    st.randoms(use_true_random=False),
)
def test_values_by_index_matches_the_name_path(instance, case, filling, default, rng):
    """A dict keyed by exactly the nodes, in order, is listed without a name read;
    every other mapping gets the result and the error it got by name."""
    graph, omega = instance
    items = list(omega.items())
    if case == "shuffled":
        rng.shuffle(items)
    elif case == "partial":
        del items[rng.randrange(len(items))]
    elif case == "extra key":
        items.insert(rng.randint(0, len(items)), ("zz", rng.choice([BOTTOM, 0, TOP])))
    values = defaultdict(int, items) if filling else dict(items)
    size = len(values)
    expected = outcome(former_values_by_index, graph, values, "tau", default)
    assert outcome(values_by_index, graph, values, "tau", default) == expected
    assert len(values) == size  # a defaultdict is never filled


# -- properties --------------------------------------------------------------


@given(edge_graphs())
def test_neighbors_are_symmetric_and_complete(graph):
    listed = set()
    for node in graph.nodes:
        for neighbor, edge_id in graph.neighbors(node):
            u, v = graph.edges[edge_id]
            assert {u, v} == {node, neighbor}
            listed.add(edge_id)
    assert listed == set(range(len(graph.edges)))


@given(edge_graphs())
def test_components_partition_the_nodes(graph):
    blocks = components(graph)
    flat = [node for block in blocks for node in block]
    assert sorted(flat) == sorted(graph.nodes)
    assert len(set(flat)) == len(flat)


