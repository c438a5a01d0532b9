"""The integer CSR layout of Graph against name-based references.

The references rebuild what the name-keyed graph used to store: adjacency
as per-node lists filled in edge declaration order, grids from formatted
``"r,c"`` ids, and Prim's tree grown over names.
"""

from __future__ import annotations

import heapq
from array import array
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from floodgraph import (
    ConstructionError,
    Graph,
    build_graph,
    derive_edge_graph,
    grid_graph,
    mst,
    partial_graph,
)
from floodgraph import graphs
from floodgraph.graphs import _counting, _csr

from strategies import graph_arrays, ground_of

TOPOLOGY = ("nodes", "edge_u", "edge_v", "ground_values")  # and the incidences


def grid_node(row, col):
    return f"{row},{col}"


@st.composite
def loose_graphs(draw, max_nodes=9):
    """Shuffled names, parallel edges, isolated nodes, ground and weights."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    names = draw(st.permutations([f"v{i}" for i in range(n)]))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    edges = draw(st.lists(pairs, max_size=2 * n)) if n > 1 else []
    levels = st.integers(min_value=0, max_value=4)
    return build_graph(
        names,
        [(names[i], names[j]) for i, j in edges],
        ground={name: draw(levels) for name in names},
        edge_weights=[draw(levels) for _ in edges],
    )


def reference_neighbors(nodes, edges):
    adjacency = {node: [] for node in nodes}
    for edge_id, (u, v) in enumerate(edges):
        adjacency[u].append((v, edge_id))
        adjacency[v].append((u, edge_id))
    return {node: tuple(pairs) for node, pairs in adjacency.items()}


def reference_grid_edges(height, width, connectivity):
    edges = []
    for r in range(height):
        for c in range(width):
            here = grid_node(r, c)
            if c + 1 < width:
                edges.append((here, grid_node(r, c + 1)))
            if connectivity == 8 and r + 1 < height and c >= 1:
                edges.append((here, grid_node(r + 1, c - 1)))
            if r + 1 < height:
                edges.append((here, grid_node(r + 1, c)))
            if connectivity == 8 and r + 1 < height and c + 1 < width:
                edges.append((here, grid_node(r + 1, c + 1)))
    return edges


def reference_mst_edges(graph):
    """Prim over names, equal weights in declaration order (the former mst)."""
    weights = graph.edge_weights
    chosen, visited = [], set()
    for start in graph.nodes:
        if start in visited:
            continue
        visited.add(start)
        heap = [(weights[e], e) for _, e in graph.neighbors(start)]
        heapq.heapify(heap)
        while heap:
            _, edge_id = heapq.heappop(heap)
            u, v = graph.edges[edge_id]
            fresh = v if u in visited else u
            if fresh in visited:
                continue
            visited.add(fresh)
            chosen.append(edge_id)
            for _, next_id in graph.neighbors(fresh):
                heapq.heappush(heap, (weights[next_id], next_id))
    return sorted(chosen)


def csr_pairs(graph):
    """Per node, its (neighbor index, edge id) incidences read off the arrays."""
    offsets, adj_node, adj_edge = graph.incidences()
    return [
        list(zip(adj_node[low:high], adj_edge[low:high]))
        for low, high in zip(offsets, offsets[1:])
    ]


@given(loose_graphs())
def test_neighbors_keep_edge_declaration_order(graph):
    expected = reference_neighbors(graph.nodes, graph.edges)
    for node in graph.nodes:
        assert graph.neighbors(node) == expected[node]
    assert len(graph.incidences()[0]) == len(graph.nodes) + 1
    for index, pairs in enumerate(csr_pairs(graph)):
        assert [(graph.nodes[j], e) for j, e in pairs] == list(expected[graph.nodes[index]])
    assert [graph.nodes.index(u) for u, _ in graph.edges] == list(graph.edge_u)
    assert [graph.nodes.index(v) for _, v in graph.edges] == list(graph.edge_v)


GRID_SHAPES = [(h, w) for h in range(1, 8) for w in range(1, 8)] + [(1, 40), (40, 1), (13, 29)]


@pytest.mark.parametrize("connectivity", [4, 8])
@pytest.mark.parametrize("height,width", GRID_SHAPES)
def test_grid_graph_matches_the_validated_build(height, width, connectivity):
    assert_grid_matches_the_validated_build(height, width, connectivity)


@given(st.integers(1, 30), st.integers(1, 30), st.sampled_from([4, 8]))
def test_grid_graph_matches_the_validated_build_on_random_shapes(height, width, connectivity):
    assert_grid_matches_the_validated_build(height, width, connectivity)


def assert_grid_matches_the_validated_build(height, width, connectivity):
    """grid_graph against build_graph over the per-pixel edge loop."""
    raster = [[(3 * r + c) % 5 for c in range(width)] for r in range(height)]
    grid = grid_graph(raster, connectivity)
    names = [grid_node(r, c) for r in range(height) for c in range(width)]
    built = build_graph(
        names,
        reference_grid_edges(height, width, connectivity),
        ground={grid_node(r, c): raster[r][c] for r in range(height) for c in range(width)},
    )
    for attr in TOPOLOGY:
        assert getattr(grid, attr) == getattr(built, attr), attr
    assert grid.incidences() == built.incidences()
    assert graph_arrays(grid) == graph_arrays(built)


# 130 x 130 has 2m > 2**16 incidences under both connectivities, so the
# counting array behind the stencil copies needs its third byte plane.
@pytest.mark.parametrize("connectivity", [4, 8])
@pytest.mark.parametrize("height,width", [(h, w) for h in range(1, 8) for w in range(1, 8)] + [(130, 130)])
def test_grid_incidences_are_the_csr_of_the_grid_edges(height, width, connectivity):
    grid = grid_graph([[0] * width for _ in range(height)], connectivity)
    assert grid.incidences() == _csr(len(grid.nodes), grid.edge_u, grid.edge_v)
    if height > 7:
        assert 2 * len(grid.edge_u) > 2**16
        assert_grid_matches_the_validated_build(height, width, connectivity)


@pytest.mark.parametrize("total", [0, 1, 255, 256, 257, 2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 5])
def test_counting_array_matches_range(total):
    assert _counting(total) == array("i", range(total))


@given(
    loose_graphs(), st.integers(1, 4), st.integers(1, 4), st.sampled_from([4, 8]), st.booleans()
)
def test_derived_views_share_the_topology(graph, height, width, connectivity, view_first):
    for view in (derive_edge_graph(graph), graph.with_edge_weights(graph.edge_weights)):
        for attr in TOPOLOGY:
            assert getattr(view, attr) is getattr(graph, attr), attr
        assert view.incidences() is graph.incidences()
        assert view._index is graph._index is not None  # one name index for both
    derived = derive_edge_graph(graph)
    ground = ground_of(graph)
    assert derived.edge_weights == tuple(max(ground[u], ground[v]) for u, v in graph.edges)
    with pytest.raises(ConstructionError):
        graph.with_edge_weights([*graph.edge_weights, 0])

    # a grid and its view share the pending build: one run, whichever asks first
    with mock.patch.object(graphs, "_grid_incidences", wraps=graphs._grid_incidences) as build:
        grid = grid_graph([[r + c for c in range(width)] for r in range(height)], connectivity)
        view = derive_edge_graph(grid)
        assert build.call_count == 0
        for first in (view, grid) if view_first else (grid, view):
            first.incidences()
        assert build.call_count == 1
    for attr in TOPOLOGY:
        assert getattr(view, attr) is getattr(grid, attr), attr
    assert view.incidences() is grid.incidences()


@given(loose_graphs(), st.randoms(use_true_random=False))
def test_mst_and_partial_graph_match_the_name_based_build(graph, rng):
    ids = [e for e in range(len(graph.edges)) if rng.random() < 0.5]
    part = partial_graph(graph, ids + ids[:1])
    expected = build_graph(
        graph.nodes,
        [graph.edges[e] for e in ids],
        ground=ground_of(graph),
        edge_weights=[graph.edge_weights[e] for e in ids],
    )
    assert graph_arrays(part) == graph_arrays(expected)
    assert csr_pairs(part) == csr_pairs(expected)
    tree = mst(graph)
    assert tree.edges == tuple(graph.edges[e] for e in reference_mst_edges(graph))
    assert tree.edge_weights == tuple(graph.edge_weights[e] for e in reference_mst_edges(graph))


def test_empty_graph_has_its_own_message():
    with pytest.raises(ConstructionError, match="graph has no nodes"):
        build_graph([], [])
    with pytest.raises(ConstructionError, match="use build_graph"):
        Graph(nodes=(), edges=())
