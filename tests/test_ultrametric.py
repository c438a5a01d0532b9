"""Flooding distance and minimum spanning trees."""

from __future__ import annotations

import heapq

from hypothesis import given, settings

from floodgraph import (
    BOTTOM,
    TOP,
    build_graph,
    distance_matrix,
    flooding_distance_all,
    mst,
    partial_graph,
)
from floodgraph.ultrametric import distance_rows

from strategies import edge_graphs, graph_arrays, rough_edge_graphs


# -- distances ----------------------------------------------------------------


def test_chain_distances(chain):
    graph = chain.edge_graph
    assert flooding_distance_all(graph, "a")["e"] == 4
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
    assert flooding_distance_all(graph, "a")["b"] == TOP


def test_distance_matrix_agrees_with_single_source(chain):
    matrix = distance_matrix(chain.edge_graph)
    for source in chain.edge_graph.nodes:
        assert matrix[source] == flooding_distance_all(chain.edge_graph, source)
    assert matrix["a"]["e"] == 4


def heapq_distances(graph, source):
    """The former flooding_distance_all: a heapq loop that skips stale pops."""
    weights = graph.edge_weights
    offsets, adj_node, adj_edge = graph.incidences()
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
        assert dist == matrix[source]


def textbook_distance_rows(graph):
    """Min-max Floyd-Warshall on the full matrix: every pivot, every ordered pair."""
    count = len(graph.nodes)
    rows = [[BOTTOM if p == q else TOP for q in range(count)] for p in range(count)]
    for u, v, w in zip(graph.edge_u, graph.edge_v, graph.edge_weights):
        rows[u][v] = rows[v][u] = min(rows[u][v], w)
    for r in range(count):
        for p in range(count):
            for q in range(count):
                rows[p][q] = min(rows[p][q], max(rows[p][r], rows[r][q]))
    return rows


@settings(max_examples=300)
@given(rough_edge_graphs())
def test_distance_rows_match_the_full_matrix_and_are_symmetric(graph):
    rows = distance_rows(graph)
    assert rows == textbook_distance_rows(graph)
    assert rows == [list(column) for column in zip(*rows)]


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
    table = distance_matrix(graph)
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
    assert distance_matrix(tree) == distance_matrix(graph)


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
    offsets, adj_node, adj_edge = graph.incidences()
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
    tree = mst(graph)
    for root in (None, *graph.nodes):
        assert graph_arrays(tree) == graph_arrays(partial_graph(graph, prim_mst_edges(graph, root)))
