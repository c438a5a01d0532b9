"""``NodeValues``: a node function as a list by node index, read as a Mapping."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from floodgraph import (
    TOP,
    PreconditionError,
    augment_with_dummy,
    berge_flood,
    build_graph,
    build_lake_dendrogram,
    contract_close_flood,
    contract_flat_zones,
    core_expanding_flood,
    dendrogram_flood,
    derive_edge_graph,
    dijkstra_flood,
    distance_matrix,
    flooding_distance_all,
    grid_graph,
    is_edge_flooding,
    is_node_flooding,
    lakes,
    local_flood,
    marker_segmentation,
    oracle_flood,
    parse_graph,
    prim_flood,
    serialize_graph,
    waterfall_flooding,
)
from floodgraph.formats import _values
from floodgraph.graphs import NodeValues, ceiling_by_index, values_by_index

from strategies import rough_edge_graphs, rough_node_graphs


def strip():
    """A 2x3 raster graph: its name index is built only when a name is read."""
    return grid_graph([[3, 1, 2], [0, 5, 4]])


def test_equals_a_dict_with_the_same_pairs_both_ways():
    graph = strip()
    values = NodeValues(graph, [3, 1, 2, 0, 5, TOP])
    pairs = {"0,0": 3, "0,1": 1, "0,2": 2, "1,0": 0, "1,1": 5, "1,2": TOP}
    assert values == pairs and pairs == values
    assert not values != pairs and not pairs != values
    assert values != {**pairs, "1,2": 4} and {**pairs, "1,2": 4} != values
    assert values != dict(list(pairs.items())[:5])
    assert values == NodeValues(graph, [3, 1, 2, 0, 5, TOP])
    assert values != NodeValues(graph, [3, 1, 2, 0, 5, 4])
    assert values != [3, 1, 2, 0, 5, TOP]


def test_items_run_in_node_order_and_names_are_looked_up():
    graph = build_graph(["c", "a", "b"], [("c", "a"), ("a", "b")])
    values = NodeValues(graph, [2, 0, 1])
    assert list(values.items()) == [("c", 2), ("a", 0), ("b", 1)]
    assert list(values) == ["c", "a", "b"] and list(values.values()) == [2, 0, 1]
    assert len(values) == len(values.items()) == len(values.values()) == 3
    assert values["b"] == 1 and values.get("z") is None
    assert "a" in values and "z" not in values
    assert ("a", 0) in values.items() and ("a", 1) not in values.items()
    with pytest.raises(KeyError):
        values["z"]


def test_iteration_items_values_and_the_writer_build_no_name_index():
    graph = strip()
    values = NodeValues(graph, [3, 1, 2, 0, 5, TOP])
    assert list(values) == list(graph.nodes)
    assert dict(values.items()) == dict(zip(graph.nodes, [3, 1, 2, 0, 5, TOP]))
    assert sorted(values.values()) == [0, 1, 2, 3, 5, TOP]
    assert values == NodeValues(graph, list(values.levels))
    assert values == dict(values.items())
    assert "".join(_values(values)) == "0,0 3\n0,1 1\n0,2 2\n1,0 0\n1,1 5\n1,2 inf\n"
    assert graph._index is None
    assert values["1,1"] == 5 and graph._index is not None  # a name read builds it


def test_dendrogram_flood_and_the_waterfall_build_no_name_index():
    graph = strip()
    view = derive_edge_graph(graph)
    ceiling = NodeValues(graph, [TOP, 2, TOP, TOP, TOP, 5])  # over the graph the view shares
    tau = dendrogram_flood(build_lake_dendrogram(view), ceiling)
    assert tau.levels == dijkstra_flood(view, ceiling).tau.levels
    assert waterfall_flooding(view).levels == [3, 2, 2, 3, 5, 4]
    assert graph._index is None and view._index is None


def test_serialize_graph_and_augment_with_dummy_build_no_name_index():
    graph = strip()
    view = derive_edge_graph(graph)
    ceiling = NodeValues(graph, [TOP, 2, TOP, TOP, TOP, 5])
    text = "".join(serialize_graph(graph, ceiling))
    assert "node 0,1 f=1 omega=2\n" in text and text.count(" omega=") == 2
    augmented, dummy = augment_with_dummy(view, ceiling)
    assert augmented.nodes == (*graph.nodes, "@omega") and dummy == "@omega"
    assert graph._index is None and view._index is None


def _segmented(graph, view, omega):
    result = marker_segmentation(view, {"0,0": 1, "1,2": 2})
    return view, result.tau, result.labels


def _contracted(graph, view, omega):
    contracted, _, low = contract_flat_zones(graph, omega)
    return contracted, low


def _expanded(graph, view, omega):
    contracted, mapping, _ = contract_flat_zones(graph)
    return graph, mapping.expand({rep: i for i, rep in enumerate(contracted.nodes)})


# Each producer of a complete node function, run on a raster with a flat zone:
# the graph it was given, then every node function it returned.
PRODUCERS = {
    "berge_flood": lambda graph, view, omega: (view, berge_flood(view, omega).tau),
    "dijkstra_flood": lambda graph, view, omega: (view, dijkstra_flood(view, omega).tau),
    "prim_flood": lambda graph, view, omega: (view, prim_flood(view, omega).tau),
    "core_expanding_flood": lambda graph, view, omega: (
        graph, core_expanding_flood(graph, omega).tau
    ),
    "oracle_flood": lambda graph, view, omega: (view, oracle_flood(view, omega)),
    "marker_segmentation": _segmented,
    "flooding_distance_all": lambda graph, view, omega: (view, flooding_distance_all(view, "0,1")),
    "contract_flat_zones": _contracted,
    "contract_close_flood": lambda graph, view, omega: (graph, contract_close_flood(graph, omega)),
    "dendrogram_flood": lambda graph, view, omega: (
        view, dendrogram_flood(build_lake_dendrogram(view), omega)
    ),
    "waterfall_flooding": lambda graph, view, omega: (view, waterfall_flooding(view)),
    "distance_matrix": lambda graph, view, omega: (view, *distance_matrix(view).values()),
    "ContractionMap.expand": _expanded,
    "parse_graph": lambda graph, view, omega: parse_graph("".join(serialize_graph(graph, omega))),
}


@pytest.mark.parametrize("producer", sorted(PRODUCERS))
def test_every_node_function_the_library_returns_is_node_values_over_its_graph(producer):
    graph = grid_graph([[3, 1, 1], [0, 5, 4]])  # "0,1" and "0,2" are one flat zone
    view = derive_edge_graph(graph)
    omega = dict(zip(graph.nodes, [TOP, 2, TOP, 0, TOP, 5]))
    given, *results = PRODUCERS[producer](graph, view, omega)
    assert results
    for values in results:
        assert type(values) is NodeValues
        assert values.graph.nodes is given.nodes
        assert len(values.levels) == len(given.nodes)


def test_the_writer_joins_slices_of_65536_nodes():
    """One value column (flood, fldist) or two (segment --tau), equal to the lines
    written by name."""
    graph = grid_graph([[level % 7 for level in range(300)] for _ in range(300)])
    values = NodeValues(graph, list(graph.ground_values))
    more = NodeValues(graph, [TOP if i % 5 else i for i in range(len(graph.nodes))])
    chunks = list(_values(values))
    assert [chunk.count("\n") for chunk in chunks] == [65536, 24464]
    assert "".join(chunks) == "".join(f"{n} {v}\n" for n, v in values.items())
    chunks = list(_values(values, more))
    assert [chunk.count("\n") for chunk in chunks] == [65536, 24464]
    by_name, more_by_name = dict(values.items()), dict(more.items())
    assert "".join(chunks) == "".join(
        f"{n} {by_name[n]} {more_by_name[n]}\n" for n in graph.nodes
    )


def test_berge_leaves_a_node_values_ceiling_unchanged():
    graph = grid_graph([[3, 1, 2], [0, 5, 4]]).with_edge_weights([1, 4, 3, 2, 5, 0, 6])
    levels = [TOP, 2, TOP, TOP, TOP, 5]
    omega = NodeValues(graph, levels)
    for schedule in ("gauss_seidel", "jacobi"):
        tau = berge_flood(graph, omega, schedule=schedule).tau
        assert tau == dijkstra_flood(graph, dict(omega.items())).tau
        assert omega.levels is levels and levels == [TOP, 2, TOP, TOP, TOP, 5]
    assert ceiling_by_index(graph, omega) is not levels


def test_node_values_of_another_graph_take_the_name_path():
    """Equal names in another tuple, here in another order: read by name, not by position."""
    graph = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")], edge_weights=[1, 2])
    other = build_graph(["c", "b", "a"], [("c", "b")])
    values = NodeValues(other, [5, TOP, 0])
    assert values_by_index(graph, values, "tau") == [0, TOP, 5]
    assert values == {"a": 0, "b": TOP, "c": 5} == NodeValues(graph, [0, TOP, 5])
    assert dijkstra_flood(graph, values).tau == {"a": 0, "b": 1, "c": 2}
    missing = NodeValues(build_graph(["a", "b"], []), [0, 1])
    with pytest.raises(PreconditionError, match="^omega is missing node 'c'$"):
        dijkstra_flood(graph, missing)


def as_node_values(graph, mapping):
    return NodeValues(graph, [mapping[node] for node in graph.nodes])


@settings(max_examples=150, deadline=None)
@given(rough_edge_graphs(), st.randoms(use_true_random=False))
def test_edge_solvers_and_validators_agree_on_dict_and_node_values(graph, rng):
    levels = [0, 1, 2, 3, TOP, TOP]
    omega = {node: rng.choice(levels) for node in graph.nodes}
    indexed = as_node_values(graph, omega)
    finite = {node: level for node, level in omega.items() if level < TOP}
    tau = dijkstra_flood(graph, omega).tau
    assert dijkstra_flood(graph, indexed).tau == tau
    for schedule in ("gauss_seidel", "jacobi"):
        assert berge_flood(graph, indexed, schedule=schedule).tau == tau
    assert prim_flood(graph, finite).tau == tau
    assert oracle_flood(graph, indexed) == oracle_flood(graph, omega) == tau
    dendro = build_lake_dendrogram(graph)
    assert dendrogram_flood(dendro, indexed) == dendrogram_flood(dendro, omega) == tau
    assert lakes(graph, tau) == lakes(graph, dict(tau.items()))
    bumped = dict(tau.items())
    bumped[rng.choice(graph.nodes)] = rng.choice(levels)
    assert is_edge_flooding(graph, as_node_values(graph, bumped)) == is_edge_flooding(graph, bumped)


@settings(max_examples=100, deadline=None)
@given(rough_node_graphs(), st.randoms(use_true_random=False))
def test_node_solvers_and_validators_agree_on_dict_and_node_values(graph, rng):
    omega = {
        node: rng.choice([floor, floor + 1, TOP]) for node, floor in
        zip(graph.nodes, graph.ground_values)
    }
    indexed = as_node_values(graph, omega)
    tau = core_expanding_flood(graph, omega).tau
    assert core_expanding_flood(graph, indexed).tau == tau
    assert contract_close_flood(graph, indexed) == contract_close_flood(graph, omega) == tau
    node = rng.choice(graph.nodes)
    assert local_flood(graph, indexed, node) == local_flood(graph, omega, node) == tau[node]
    candidate = {node: level + rng.choice([0, 0, 1]) for node, level in tau.items()}
    report = is_node_flooding(graph, candidate)
    assert is_node_flooding(graph, as_node_values(graph, candidate)) == report



def test_a_node_function_is_a_slots_record_with_the_dataclass_repr():
    graph = build_graph(["a", "b"], [("a", "b")])
    values = NodeValues(graph, [3, TOP])
    assert not hasattr(values, "__dict__")
    assert repr(values) == "NodeValues(graph=<Graph: 2 nodes, 1 edges>, levels=[3, inf])"
    assert values["b"] == TOP and graph._index is not None  # [] built the name index
    assert values["a"] == 3  # and reads it as built
