"""Flooding distance, balls, diameters, and minimum spanning trees."""

from __future__ import annotations

import heapq

import pytest
from hypothesis import given, settings

from floodgraph import (
    BOTTOM,
    TOP,
    ConstructionError,
    PreconditionError,
    ball,
    build_graph,
    diameter,
    distance_matrix,
    flooding_distance,
    flooding_distance_all,
    lowest_cocycle_edge,
    mst,
    partial_graph,
    subgraph_spanning,
)

from strategies import edge_graphs, rough_edge_graphs


# -- distances ----------------------------------------------------------------


def test_chain_distances(chain):
    graph = chain.edge_graph
    assert flooding_distance(graph, "a", "e") == 4
    assert flooding_distance_all(graph, "c") == {"a": 4, "b": 4, "c": BOTTOM, "d": 2, "e": 2}


def test_tank_distances_from_a(tank):
    assert flooding_distance_all(tank.graph, "A") == {
        "A": BOTTOM,
        "B": 1,
        "C": 5,
        "D": 5,
        "E": 5,
        "F": 6,
    }


def test_distance_is_top_across_components():
    graph = build_graph(["a", "b"], [], edge_weights=[])
    assert flooding_distance(graph, "a", "b") == TOP


def test_distance_matrix_agrees_with_single_source(chain):
    matrix = distance_matrix(chain.edge_graph)
    for source in chain.edge_graph.nodes:
        assert dict(matrix.table[source]) == flooding_distance_all(chain.edge_graph, source)
    assert matrix.distance("a", "e") == 4
    with pytest.raises(PreconditionError):
        matrix.distance("a", "zzz")


def heapq_distances(graph, source):
    """The former flooding_distance_all: a heapq loop that skips stale pops."""
    weights = graph.edge_weights
    offsets, adj_node, adj_edge = graph.offsets, graph.adj_node, graph.adj_edge
    start = graph.node_index(source)
    dist = [TOP] * len(graph.nodes)
    dist[start] = BOTTOM
    heap = [(BOTTOM, start)]
    while heap:
        d, node = heapq.heappop(heap)
        if d != dist[node]:
            continue
        for slot in range(offsets[node], offsets[node + 1]):
            w = weights[adj_edge[slot]]
            candidate = w if w > d else d
            neighbor = adj_node[slot]
            if candidate < dist[neighbor]:
                dist[neighbor] = candidate
                heapq.heappush(heap, (candidate, neighbor))
    return dict(zip(graph.nodes, dist))


@settings(max_examples=300)
@given(rough_edge_graphs())
def test_flooding_distance_all_matches_heapq_and_the_matrix(graph):
    matrix = distance_matrix(graph)
    for source in graph.nodes:
        dist = flooding_distance_all(graph, source)
        assert dist == heapq_distances(graph, source)
        assert dist == dict(matrix.table[source])


# -- balls and diameters --------------------------------------------------------


def test_chain_balls(chain):
    graph = chain.edge_graph
    assert ball(graph, "c", 2) == ("c", "d", "e")
    assert ball(graph, "c", 2, kind="open") == ("c",)
    assert ball(graph, "c", 3) == ("c", "d", "e")
    assert ball(graph, "c", 4) == ("a", "b", "c", "d", "e")
    with pytest.raises(PreconditionError):
        ball(graph, "c", 2, kind="half")


def test_chain_diameters(chain):
    graph = chain.edge_graph
    assert diameter(graph, ["c", "d", "e"]) == 2
    assert diameter(graph, graph.nodes) == 4
    assert diameter(graph, ["c"]) == BOTTOM
    with pytest.raises(PreconditionError):
        diameter(graph, [])
    with pytest.raises(PreconditionError):
        diameter(graph, ["a", "c"])


def all_sources_diameter(graph, members):
    """The former diameter: one distance pass from every member but the last."""
    inside = list(dict.fromkeys(members))
    if not inside:
        raise PreconditionError("diameter of an empty set")
    if len(inside) == 1:
        graph.node_index(inside[0])
        return BOTTOM
    sub = subgraph_spanning(graph, inside)
    widest = BOTTOM
    for source in sub.nodes[:-1]:
        dist = heapq_distances(sub, source)
        for other in sub.nodes:
            if dist[other] == TOP:
                raise PreconditionError(
                    f"diameter needs a connected set; {source!r} and {other!r} are separated"
                )
            if dist[other] > widest:
                widest = dist[other]
    return widest


def outcome(call, *args):
    try:
        return "value", call(*args)
    except PreconditionError as err:
        return "error", str(err)


@settings(max_examples=300)
@given(rough_edge_graphs())
def test_diameter_matches_every_source_on_every_prefix(graph):
    for size in range(len(graph.nodes) + 1):
        prefix = graph.nodes[:size]
        assert outcome(diameter, graph, prefix) == outcome(all_sources_diameter, graph, prefix)


def test_lowest_cocycle_edge(chain):
    graph = chain.edge_graph
    assert lowest_cocycle_edge(graph, ["a"]) == (("a", "b"), 4)
    assert lowest_cocycle_edge(graph, ["c", "d", "e"]) == (("b", "c"), 4)
    with pytest.raises(PreconditionError):
        lowest_cocycle_edge(graph, [])
    with pytest.raises(PreconditionError):
        lowest_cocycle_edge(graph, graph.nodes)


def test_lowest_cocycle_edge_of_isolated_component():
    graph = build_graph(["a", "b", "c"], [("b", "c")], edge_weights=[5])
    assert lowest_cocycle_edge(graph, ["a"]) == (None, TOP)


# -- minimum spanning trees ------------------------------------------------------


def test_mst_of_a_tree_is_itself(chain):
    tree = mst(chain.edge_graph)
    assert tree.edges == chain.edge_graph.edges
    assert tree.edge_weights == chain.edge_graph.edge_weights


def test_mst_drops_the_heaviest_cycle_edge():
    graph = build_graph(
        ["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")], edge_weights=[3, 1, 2]
    )
    tree = mst(graph)
    assert tree.edges == (("b", "c"), ("a", "c"))
    assert tree.edge_weights == (1, 2)


def test_mst_breaks_ties_by_declaration_order():
    graph = build_graph(
        ["a", "b", "c", "d"],
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")],
        edge_weights=[1, 1, 1, 1],
    )
    tree = mst(graph)
    assert tree.edges == (("a", "b"), ("b", "c"), ("c", "d"))


def test_mst_of_disconnected_graph_is_a_forest():
    graph = build_graph(
        ["a", "b", "c", "d"],
        [("a", "b"), ("c", "d")],
        edge_weights=[2, 7],
    )
    forest = mst(graph)
    assert forest.edges == (("a", "b"), ("c", "d"))


# -- ultrametric axioms (light; the acceptance suite runs the big pool) ----------


@given(edge_graphs())
def test_ultrametric_axioms(graph):
    table = distance_matrix(graph).table
    nodes = graph.nodes
    for x in nodes:
        assert table[x][x] == BOTTOM
        for y in nodes:
            assert table[x][y] == table[y][x]
            for z in nodes:
                assert table[x][y] <= max(table[x][z], table[z][y])


@given(edge_graphs())
def test_mst_preserves_the_distance_matrix(graph):
    tree = mst(graph)
    assert distance_matrix(tree).table == distance_matrix(graph).table


def prim_mst_edges(graph, root=None):
    """Prim over node indices from ``root``, then every unvisited node (the former mst).

    The heap pops ``(weight, edge id)`` pairs, so equal weights go in
    declaration order; mst, now Kruskal under the same order, must pick
    exactly these edges.
    """
    weights = graph.edge_weights
    count = len(graph.nodes)
    starts = range(count)
    if root is not None:
        starts = [graph.node_index(root), *starts]
    offsets, adj_node, adj_edge = graph.offsets, graph.adj_node, graph.adj_edge
    edge_u, edge_v = graph.edge_u, graph.edge_v
    chosen = []
    visited = [False] * count
    heap = []

    def visit(node):
        visited[node] = True
        for slot in range(offsets[node], offsets[node + 1]):
            if not visited[adj_node[slot]]:
                edge_id = adj_edge[slot]
                heapq.heappush(heap, (weights[edge_id], edge_id))

    for start in starts:
        if visited[start]:
            continue
        visit(start)
        while heap:
            _, edge_id = heapq.heappop(heap)
            u = edge_u[edge_id]
            fresh = edge_v[edge_id] if visited[u] else u
            if not visited[fresh]:
                chosen.append(edge_id)
                visit(fresh)
    return chosen


@settings(max_examples=300)
@given(rough_edge_graphs())
def test_mst_matches_prim_from_every_root(graph):
    for root in (None, *graph.nodes):
        assert mst(graph, root) == partial_graph(graph, prim_mst_edges(graph, root))


def test_mst_root_must_be_a_node(chain):
    with pytest.raises(ConstructionError, match="unknown node: 'zzz'"):
        mst(chain.edge_graph, "zzz")
